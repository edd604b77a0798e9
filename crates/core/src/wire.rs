//! The client → server wire format (paper Fig. 8 / §5: clients ship
//! performance data to dedicated analysis servers each reporting period).
//!
//! A [`FragmentBatch`] is what one rank sends for one reporting period:
//! its rank id, the window bounds, a **label dictionary** (each distinct
//! state label appears once, referenced by dense id — reusing the
//! [`SymbolTable`] interner), and the fragments grouped per STG location.
//! Edges are `(from, to)` id pairs, so a state label containing `" -> "`
//! can never collide with a transition label. A client cuts one from its
//! STG the moment a report period completes
//! ([`FragmentBatch::from_stg_starting_in`], called by the
//! [`Collector`](crate::collector::Collector)); the STG then drops those
//! fragments, so the frames shipped are the only copy of the run's data.
//!
//! There is one serialisation, [`FragmentBatch::encode`]: a compact
//! **columnar (SoA) binary layout** with length-prefixed framing (see
//! `DESIGN.md` §“Wire format”). Fragments are written as contiguous
//! columns, and four rules keep a fragment to about half the bytes of a
//! fixed-width record:
//!
//! * **Narrow integers.** Every integer column is written at the
//!   narrowest byte width that holds its largest value in this frame,
//!   declared once per column (`w` below: one byte, `0..=8`). A rank
//!   width of 0 means every row carries the header rank.
//! * **Relative timestamps.** Starts and ends are offsets from the
//!   frame's smallest timestamp, `base_ns`.
//! * **Row shapes.** A frame carries a table of distinct
//!   `(kind, counter set, non-zero mask, arg count)` shapes; each row
//!   stores one shape index in place of those four fields.
//! * **Sparse values.** A counter value is written only when its bits
//!   are not `+0.0` (`-0.0` and NaN payloads stay explicit). Args are
//!   unsigned integers at the column width when every arg in the frame
//!   is a non-negative integral `f64`, raw `f64` otherwise.
//!
//! ```text
//! frame   := payload_len:u32 payload
//! payload := magic "VPRW" | version:u8 (=4)
//!          | crc32:u32             -- IEEE CRC-32 of every payload byte
//!          | seq:u64                  after the crc field (from 1; 0 never admitted)
//!          | tenant_id:u32 | job_id:u32   -- fleet routing stamp
//!          | rank:u32 | window_start_ns:u64 | window_end_ns:u64
//!          | nlabels:u32 | lenw:w (1..=4) | nlabels × (len:lenw, utf-8 bytes)
//!          | nvgroups:u32 | negroups:u32 | idw:w (0..=4) | countw:w (1..=4)
//!          | nvgroups × (label:idw, count:countw)
//!          | negroups × (from:idw, to:idw, count:countw)
//!          | nshapes:u32 | nshapes × (kind:u8, set:u32, nonzero:u32, argc:u16)
//!          | base_ns:u64 | rankw:w (0..=4) | startw:w (0..=8) | endw:w (0..=8)
//!          | shapes:  nfrags × shapew   -- nfrags = Σ counts, vertex groups
//!          | ranks:   nfrags × rankw       then edge groups, group order;
//!          | starts:  nfrags × startw      shapew = bytes of nshapes − 1,
//!          | ends:    nfrags × endw        at least 1
//!          | ncvals:u32 | cvals: ncvals × f64   -- Σ popcount(nonzero)
//!          | nargs:u32 | argw:w (0..=8)         -- Σ argc
//!          | args: nargs × argw-byte uint, or × f64 when argw = 0
//! ```
//!
//! All integers and floats are little-endian. Label lengths, group
//! counts and shape indexes are at least one byte wide, so every count a
//! frame claims is bounded by the bytes that follow it.
//!
//! **Decoding.** There is one parser, [`FrameView::parse`]: it makes every
//! check a frame can fail *before handing anything out* and returns a
//! view that borrows the header, the label table, the group heads, the
//! shape table and the columns from the frame's own bytes. The server
//! appends rows to its arena straight from that view ([`FrameRows`]
//! expands each row back to its `(rank, kind, start, end, set, values,
//! args)`); [`FragmentBatch::decode`] is `parse(bytes)?.to_batch()`, the
//! owned form clients, tests and tools work with.
//!
//! **Integrity.** Each frame carries an IEEE CRC-32 over everything
//! after the checksum field, so a bit-flipped frame is rejected as
//! [`WireError::BadChecksum`] instead of being misparsed, plus a per-rank
//! monotonic sequence number so the server can deduplicate retransmitted
//! batches and detect gaps left by dropped frames. Every sender numbers
//! its frames from 1 per rank; `0` is never admitted. The
//! magic and the version byte sit *before* the checksum field and are
//! **validated, not checksummed**: the decoder accepts exactly one value
//! for each ([`WIRE_MAGIC`], [`WIRE_VERSION`]) and rejects anything else
//! as [`WireError::BadMagic`] / [`WireError::BadVersion`], so no
//! single-byte change anywhere in a frame can decode.

use crate::detect::window::Window;
use crate::fragment::{Fragment, FragmentKind};
use crate::intern::{Sym, SymbolTable};
use crate::stg::Stg;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::fmt;
use vapro_pmu::{CounterDelta, CounterSet};
use vapro_sim::VirtualTime;

/// Frame magic: identifies a Vapro wire payload.
pub const WIRE_MAGIC: [u8; 4] = *b"VPRW";
/// The one wire-format version byte this codec writes and accepts:
/// narrow columns, row shapes and elided `+0.0` counter values.
pub const WIRE_VERSION: u8 = 4;
/// The tenant of a batch nobody stamped ([`FragmentBatch::with_job`]):
/// single-tenant deployments never mention tenancy.
pub const DEFAULT_TENANT: u32 = 0;
/// The job of a batch nobody stamped.
pub const DEFAULT_JOB: u32 = 0;

/// IEEE CRC-32 (the Ethernet/zlib polynomial). On `x86_64` with
/// `pclmulqdq` and `sse4.1` (detected at run time) an input of 64 bytes
/// or more is folded 16 bytes at a time by carry-less multiplication and
/// Barrett-reduced (Intel, "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ", reflected constants as in zlib-ng and Linux); the
/// sub-16-byte tail, shorter input and every other host run the
/// slice-by-8 table walk. Both give the same value on every input.
/// Tables are built at compile time; no external crate needed.
pub mod crc32 {
    const POLY: u32 = 0xEDB8_8320;

    const fn build_tables() -> [[u32; 256]; 8] {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
                bit += 1;
            }
            tables[0][i] = crc;
            i += 1;
        }
        let mut t = 1;
        while t < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[t - 1][i];
                tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            t += 1;
        }
        tables
    }

    static TABLES: [[u32; 256]; 8] = build_tables();

    /// One slicing-table lookup. Both indices are masked into range, so
    /// the `get`s compile to plain loads and the fallback is dead.
    #[inline]
    fn tab(t: usize, b: u64) -> u32 {
        TABLES.get(t & 7).and_then(|row| row.get((b & 0xFF) as usize)).copied().unwrap_or(0)
    }

    /// Checksum of `bytes`.
    pub fn checksum(bytes: &[u8]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        {
            let (blocks, tail) = bytes.as_chunks::<16>();
            let (lines, singles) = blocks.as_chunks::<4>();
            if let Some((first, more)) = lines.split_first() {
                // Miri runs the table walk: the fold has no pointer
                // operation for it to check.
                if !cfg!(miri)
                    && std::arch::is_x86_feature_detected!("pclmulqdq")
                    && std::arch::is_x86_feature_detected!("sse4.1")
                {
                    // SAFETY: the fold's two target features were
                    // detected on this CPU just above.
                    #[allow(unsafe_code)]
                    let folded = unsafe { clmul::crc32_clmul_fold(!0, first, more, singles) };
                    return !slice_by_8(folded, tail);
                }
            }
        }
        !slice_by_8(!0, bytes)
    }

    /// Advance the CRC register `crc` over `bytes` eight at a time.
    fn slice_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
        let (chunks, tail) = bytes.as_chunks::<8>();
        for chunk in chunks {
            let v = u64::from_le_bytes(*chunk) ^ crc as u64;
            crc = tab(7, v)
                ^ tab(6, v >> 8)
                ^ tab(5, v >> 16)
                ^ tab(4, v >> 24)
                ^ tab(3, v >> 32)
                ^ tab(2, v >> 40)
                ^ tab(1, v >> 48)
                ^ tab(0, v >> 56);
        }
        for &b in tail {
            crc = tab(0, (crc ^ b as u32) as u64) ^ (crc >> 8);
        }
        crc
    }

    /// The carry-less-multiply fold. Every intrinsic here is a
    /// register-to-register op, safe inside a `#[target_feature]` fn;
    /// blocks reach a register through `u128::from_le_bytes`, so no
    /// pointer is taken. The function names are unique in the workspace
    /// on purpose: the panic-freedom lint resolves calls by name.
    #[cfg(target_arch = "x86_64")]
    mod clmul {
        use std::arch::x86_64::{
            __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
            _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
        };

        // Fold constants, each (x^e mod P(x) << 32)′ << 1, where ′ is bit
        // reflection. e = 4·128 ± 32 carries one lane of four across
        // 512 bits.
        const K1: i64 = 0x1_5444_2bd4;
        const K2: i64 = 0x1_c6e4_1596;
        // e = 128 ± 32: four lanes into one, then one block at a time.
        const K3: i64 = 0x1_7519_97d0;
        const K4: i64 = 0x0_ccaa_009e;
        // e = 64: 96 → 64 bits.
        const K5: i64 = 0x1_63cd_6124;
        // P(x)′ and μ′ = (x^64 / P(x))′, for the Barrett reduction
        // 64 → 32 bits.
        const P_X: i64 = 0x1_db71_0641;
        const MU: i64 = 0x1_f701_1641;

        /// One 16-byte block as a register, little-endian.
        #[inline]
        #[target_feature(enable = "pclmulqdq,sse4.1")]
        fn crc32_clmul_block(block: &[u8; 16]) -> __m128i {
            let v = u128::from_le_bytes(*block);
            _mm_set_epi64x((v >> 64) as i64, v as i64)
        }

        /// `x` carried 128 or 512 bits forward (by `keys`) onto `next`.
        #[inline]
        #[target_feature(enable = "pclmulqdq,sse4.1")]
        fn crc32_clmul_step(x: __m128i, keys: __m128i, next: __m128i) -> __m128i {
            let lo = _mm_clmulepi64_si128(x, keys, 0x00);
            let hi = _mm_clmulepi64_si128(x, keys, 0x11);
            _mm_xor_si128(_mm_xor_si128(next, lo), hi)
        }

        /// Advance the CRC register `crc` over `first`, `lines` and
        /// `singles`, in that order; what follows them is the caller's.
        #[target_feature(enable = "pclmulqdq,sse4.1")]
        pub(super) fn crc32_clmul_fold(
            crc: u32,
            first: &[[u8; 16]; 4],
            lines: &[[[u8; 16]; 4]],
            singles: &[[u8; 16]],
        ) -> u32 {
            let [b0, b1, b2, b3] = first;
            let mut x0 = _mm_xor_si128(crc32_clmul_block(b0), _mm_cvtsi32_si128(crc as i32));
            let mut x1 = crc32_clmul_block(b1);
            let mut x2 = crc32_clmul_block(b2);
            let mut x3 = crc32_clmul_block(b3);
            let k1k2 = _mm_set_epi64x(K2, K1);
            for [b0, b1, b2, b3] in lines {
                x0 = crc32_clmul_step(x0, k1k2, crc32_clmul_block(b0));
                x1 = crc32_clmul_step(x1, k1k2, crc32_clmul_block(b1));
                x2 = crc32_clmul_step(x2, k1k2, crc32_clmul_block(b2));
                x3 = crc32_clmul_step(x3, k1k2, crc32_clmul_block(b3));
            }
            let k3k4 = _mm_set_epi64x(K4, K3);
            let mut x = crc32_clmul_step(x0, k3k4, x1);
            x = crc32_clmul_step(x, k3k4, x2);
            x = crc32_clmul_step(x, k3k4, x3);
            for block in singles {
                x = crc32_clmul_step(x, k3k4, crc32_clmul_block(block));
            }
            // 128 → 96 → 64 bits.
            let low32 = _mm_set_epi32(0, 0, 0, !0);
            x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
            x = _mm_xor_si128(
                _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
                _mm_srli_si128(x, 4),
            );
            // Barrett: the remainder sits in the upper half of the low
            // 64 bits, bit-reflected.
            let pmu = _mm_set_epi64x(MU, P_X);
            let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
            let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
            _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
        }
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn matches_the_reference_vector() {
            // The canonical IEEE CRC-32 check value.
            assert_eq!(super::checksum(b"123456789"), 0xCBF4_3926);
            assert_eq!(super::checksum(b""), 0);
        }

        /// The plain one-table byte loop every faster path must equal.
        fn bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
            for &b in bytes {
                crc = super::TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
            }
            crc
        }

        /// `n` bytes of xorshift noise: every table entry gets hit.
        fn noise(n: usize) -> Vec<u8> {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 32) as u8
                })
                .collect()
        }

        #[test]
        fn checksum_equals_bytewise_at_every_length_and_offset() {
            // Frames run 1.9–6.2 KB. Every length up to 4 KiB, at each of
            // the sixteen offsets a 16-byte block can start at, crosses
            // every seam between the 64-byte fold, the single-block folds
            // and the 8-byte and 1-byte table tails. The reference grows
            // one byte per length, so it costs one pass per offset.
            let data = noise(4096 + 15);
            for offset in 0..16 {
                let bytes = &data[offset..];
                let mut reference = !0u32;
                for len in 0..=4096 {
                    assert_eq!(
                        super::checksum(&bytes[..len]),
                        !reference,
                        "len {len} at offset {offset}"
                    );
                    reference = bytewise(reference, bytes.get(len..=len).unwrap_or(&[]));
                }
            }
            let big = noise(64 << 10);
            assert_eq!(super::checksum(&big), !bytewise(!0, &big), "64 KiB buffer");
        }
    }
}

/// The invocation fragments of one state (STG vertex), by dictionary id.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexGroup {
    /// Dictionary id of the state label.
    pub label: Sym,
    /// Invocation fragments observed in this state.
    pub fragments: Vec<Fragment>,
}

/// The computation fragments of one transition (STG edge), by endpoint
/// dictionary ids — never a formatted `"from -> to"` string, so labels
/// containing `" -> "` cannot collide.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeGroup {
    /// Dictionary id of the source state label.
    pub from: Sym,
    /// Dictionary id of the destination state label.
    pub to: Sym,
    /// Computation fragments observed on this transition.
    pub fragments: Vec<Fragment>,
}

/// One rank's shipped data for one reporting window.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentBatch {
    /// Originating rank.
    pub rank: usize,
    /// Per-rank monotonic sequence number, numbered from 1; 0 is never
    /// admitted.
    pub seq: u64,
    /// Owning tenant, for fleet routing and admission
    /// ([`DEFAULT_TENANT`] until stamped).
    pub tenant_id: u32,
    /// Job within the tenant ([`DEFAULT_JOB`] until stamped).
    pub job_id: u32,
    /// Window start, ns.
    pub window_start_ns: u64,
    /// Window end, ns.
    pub window_end_ns: u64,
    /// Label dictionary: each distinct state label once; groups refer to
    /// labels by index.
    pub labels: Vec<String>,
    /// Invocation fragments per state.
    pub vertex_groups: Vec<VertexGroup>,
    /// Computation fragments per transition.
    pub edge_groups: Vec<EdgeGroup>,
}

/// What admission reads of a frame, owned ([`FragmentBatch::header`])
/// or still encoded ([`FrameView::header`]): who shipped it, which one
/// it is, where it routes and the span it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Originating rank.
    pub rank: usize,
    /// Per-rank sequence number, numbered from 1; 0 is never admitted.
    pub seq: u64,
    /// Owning tenant.
    pub tenant_id: u32,
    /// Job within the tenant.
    pub job_id: u32,
    /// Window start, ns.
    pub window_start_ns: u64,
    /// Window end, ns.
    pub window_end_ns: u64,
}

/// Decoding or admission failure of a binary wire frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer cannot hold the frame its length prefix declares (or is
    /// too short for the prefix itself).
    ShortFrame {
        /// Bytes the length prefix declared (prefix included), if it could
        /// even be read.
        declared: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload ended before a field did.
    Truncated,
    /// The payload does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion {
        /// The version byte found on the wire.
        got: u8,
        /// The only version this decoder accepts.
        supported: u8,
    },
    /// The payload checksum does not match its CRC-32 field: the frame
    /// was corrupted in flight. Rank and sequence are best-effort reads
    /// of the (untrusted) header, for log attribution.
    BadChecksum {
        /// Claimed originating rank.
        rank: u32,
        /// Claimed sequence number.
        seq: u64,
    },
    /// A frame claims a rank outside the deployment the ingestor was
    /// configured for. Hostile or misrouted input, rejected at admission.
    UnknownRank {
        /// The rank the frame claimed.
        rank: u32,
        /// The configured deployment size.
        nranks: u32,
    },
    /// A frame claims a tenant the fleet has no registration for.
    /// Hostile or misrouted input, rejected at fleet admission.
    UnknownTenant {
        /// The tenant the frame claimed.
        tenant: u32,
    },
    /// A frame would push its tenant past the byte budget the fleet
    /// admitted it with. Structured fair-backpressure rejection: the
    /// sender must back off, other tenants are unaffected.
    TenantOverBudget {
        /// The over-budget tenant.
        tenant: u32,
        /// The tenant's configured budget, bytes.
        budget_bytes: u64,
        /// Bytes the tenant would have had in flight had the frame
        /// been admitted.
        requested_bytes: u64,
    },
    /// A sequenced frame re-used a sequence number the server has already
    /// admitted for that rank — a retransmission, dropped on arrival.
    DuplicateSequence {
        /// Originating rank.
        rank: u32,
        /// The repeated sequence number.
        seq: u64,
    },
    /// A dictionary label is not valid UTF-8.
    BadUtf8,
    /// A fragment-kind byte outside the known range.
    BadKind(u8),
    /// A group references a label id outside the dictionary.
    BadLabelId(Sym),
    /// Column lengths disagree with the group counts, or a row shape's
    /// masks name a counter the frame cannot carry: a counter-set bit
    /// beyond the 24 counters, or a non-zero bit outside its set.
    CountMismatch,
    /// Bytes left over after a single-frame decode.
    TrailingBytes,
    /// A declared column width outside the range that column allows
    /// (never above 8 bytes; see the grammar in the module doc).
    BadWidth(u8),
    /// A row's shape index at or past the end of the shape table.
    BadShape(u64),
    /// A row's timestamp offset overflows `u64` on top of the frame's
    /// base.
    TimeOverflow,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::ShortFrame { declared, available } => write!(
                f,
                "frame declares {declared} bytes but only {available} are available"
            ),
            WireError::Truncated => write!(f, "truncated wire frame"),
            WireError::BadMagic => write!(f, "bad wire magic"),
            WireError::BadVersion { got, supported } => {
                write!(f, "unsupported wire version {got} (decoder accepts only {supported})")
            }
            WireError::BadChecksum { rank, seq } => write!(
                f,
                "checksum mismatch on frame claiming rank {rank} seq {seq}"
            ),
            WireError::UnknownRank { rank, nranks } => {
                write!(f, "frame from unknown rank {rank} (deployment has {nranks} ranks)")
            }
            WireError::UnknownTenant { tenant } => {
                write!(f, "frame from unregistered tenant {tenant}")
            }
            WireError::TenantOverBudget { tenant, budget_bytes, requested_bytes } => write!(
                f,
                "tenant {tenant} over budget: {requested_bytes} B in flight \
                 would exceed the {budget_bytes} B admission budget"
            ),
            WireError::DuplicateSequence { rank, seq } => {
                write!(f, "duplicate frame from rank {rank} seq {seq}")
            }
            WireError::BadUtf8 => write!(f, "dictionary label is not UTF-8"),
            WireError::BadKind(k) => write!(f, "unknown fragment kind byte {k}"),
            WireError::BadLabelId(id) => write!(f, "label id {id} outside dictionary"),
            WireError::CountMismatch => write!(f, "column length does not match group counts"),
            WireError::TrailingBytes => write!(f, "trailing bytes after frame"),
            WireError::BadWidth(w) => write!(f, "column width {w} outside its allowed range"),
            WireError::BadShape(i) => write!(f, "row shape index {i} outside the shape table"),
            WireError::TimeOverflow => write!(f, "timestamp offset overflows the frame base"),
        }
    }
}

impl std::error::Error for WireError {}

fn kind_to_byte(kind: FragmentKind) -> u8 {
    match kind {
        FragmentKind::Computation => 0,
        FragmentKind::Communication => 1,
        FragmentKind::Io => 2,
        FragmentKind::Other => 3,
    }
}

fn kind_from_byte(b: u8) -> Result<FragmentKind, WireError> {
    Ok(match b {
        0 => FragmentKind::Computation,
        1 => FragmentKind::Communication,
        2 => FragmentKind::Io,
        3 => FragmentKind::Other,
        other => return Err(WireError::BadKind(other)),
    })
}

/// The narrowest row is its one-byte shape index: a rank at the header
/// rank and a start and end at the timestamp base cost nothing. The
/// decoder's anti-OOM guard sizes claimed counts against this floor, so
/// an arena row (40 bytes, value and arg heaps aside) is at most 40× the
/// wire bytes it came from.
const MIN_BYTES_PER_FRAG: u64 = 1;

/// Payload bytes ahead of the label dictionary, length prefix included:
/// prefix (4), magic (4), version (1), checksum (4), sequence (8),
/// tenant (4), job (4), rank (4), window bounds (16).
const FRAME_HEADER_BYTES: usize = 49;

/// Bytes of one shape-table entry: kind (1), counter set (4), non-zero
/// mask (4), arg count (2).
const SHAPE_BYTES: usize = 11;

/// The value mask of a `w`-byte column, by `w`.
const WIDTH_MASK: [u64; 9] = [
    0,
    0xFF,
    0xFFFF,
    0xFF_FFFF,
    0xFFFF_FFFF,
    0xFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF,
    0xFF_FFFF_FFFF_FFFF,
    u64::MAX,
];

/// Bytes needed to hold `v`: 0 for 0, 8 past 2^56.
fn byte_width(v: u64) -> usize {
    (u64::BITS.saturating_sub(v.leading_zeros()).saturating_add(7) / 8) as usize
}

/// The shape-index width of a table of `nshapes`: the bytes of its
/// largest index, at least one — the row floor.
fn shape_width(nshapes: usize) -> usize {
    byte_width((nshapes as u64).saturating_sub(1)).max(1)
}

/// `a` as the unsigned integer it equals bit for bit, if there is one:
/// `-0.0`, NaNs, infinities, negatives and fractions have none.
fn integral(a: f64) -> Option<u64> {
    let u = a as u64;
    ((u as f64).to_bits() == a.to_bits()).then_some(u)
}

/// What a row's shape index stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    kind: u8,
    /// [`CounterSet`] bitmask of the counters the row carries.
    set: u32,
    /// The subset of `set` whose values are not `+0.0`: the only ones
    /// written.
    nonzero: u32,
    argc: u16,
}

impl Shape {
    fn of(f: &Fragment) -> Shape {
        let nonzero = f
            .counters
            .entries()
            .filter(|(_, v)| v.to_bits() != 0)
            .fold(0u32, |bits, (id, _)| bits | 1 << id.index());
        Shape {
            kind: kind_to_byte(f.kind),
            set: f.counters.set().bits(),
            nonzero,
            argc: u16::try_from(f.args.len()).expect("at most 65535 args"),
        }
    }

    fn to_bytes(self) -> [u8; SHAPE_BYTES] {
        let [s0, s1, s2, s3] = self.set.to_le_bytes();
        let [n0, n1, n2, n3] = self.nonzero.to_le_bytes();
        let [a0, a1] = self.argc.to_le_bytes();
        [self.kind, s0, s1, s2, s3, n0, n1, n2, n3, a0, a1]
    }

    fn from_bytes(entry: &[u8; SHAPE_BYTES]) -> Shape {
        let [kind, s0, s1, s2, s3, n0, n1, n2, n3, a0, a1] = *entry;
        Shape {
            kind,
            set: u32::from_le_bytes([s0, s1, s2, s3]),
            nonzero: u32::from_le_bytes([n0, n1, n2, n3]),
            argc: u16::from_le_bytes([a0, a1]),
        }
    }

    /// A shape a frame may declare: a known kind, no set bit beyond the
    /// 24 counters (it would carry a value no reader takes) and no
    /// non-zero bit outside the set (a value no counter owns).
    fn check(self) -> Result<(), WireError> {
        kind_from_byte(self.kind)?;
        if CounterSet::from_bits(self.set).bits() != self.set || self.nonzero & !self.set != 0 {
            return Err(WireError::CountMismatch);
        }
        Ok(())
    }
}

/// The encoder's shape table, in first-seen order, with a hash index:
/// a frame whose rows vary their non-zero masks can declare thousands.
#[derive(Default)]
struct ShapeTable {
    shapes: Vec<Shape>,
    index: HashMap<Shape, u32, BuildHasherDefault<ShapeHasher>>,
}

/// One multiply-rotate per field (the FxHash step). The table is filled
/// from the sender's own fragments, so SipHash's flooding resistance
/// buys nothing, and it made the encoder 1.22–1.30× slower (DESIGN §7).
#[derive(Default)]
struct ShapeHasher(u64);

impl Hasher for ShapeHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v.into());
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(v.into());
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl ShapeTable {
    fn intern(&mut self, shape: Shape) -> u32 {
        let next = u32::try_from(self.shapes.len()).expect("shape table fits u32");
        let i = *self.index.entry(shape).or_insert(next);
        if i == next {
            self.shapes.push(shape);
        }
        i
    }
}

/// `v` in its low `width` bytes, little-endian: all eight written, the
/// high ones cut off again — a fixed-size copy, not a variable one.
#[inline]
fn put_uint(out: &mut Vec<u8>, v: u64, width: usize) {
    let end = out.len() + width;
    out.extend_from_slice(&v.to_le_bytes());
    out.truncate(end);
}

/// A frame-level count, as `u32`.
fn put_count(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&u32::try_from(n).expect("count fits u32").to_le_bytes());
}

// --------------------------------------------------------------------
// Little-endian cursor helpers. Encoding writes into one growing Vec;
// decoding advances a borrowed slice. Both are branch-light and never
// allocate beyond the output collections themselves.

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    /// Fixed-size read. The `try_into` cannot fail after a successful
    /// `take`, but the decode path is total by construction: every
    /// conversion maps to an error instead of trusting a length.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| WireError::Truncated)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An unsigned integer `width` bytes wide (a validated width, ≤ 8).
    fn uint(&mut self, width: usize) -> Result<u64, WireError> {
        Ok(uint_le(self.take(width)?))
    }

    /// A column-width byte, held to `min..=max`.
    fn width(&mut self, min: u8, max: u8) -> Result<usize, WireError> {
        let w = self.u8()?;
        if w < min || w > max {
            return Err(WireError::BadWidth(w));
        }
        Ok(w as usize)
    }

    /// A column of `n` fixed-width little-endian fields, borrowed. The
    /// byte count is checked arithmetic on a sender-chosen `n`, and the
    /// slice must already be in the buffer: a claimed count sizes no
    /// allocation.
    fn column<const N: usize>(&mut self, n: usize) -> Result<&'a [[u8; N]], WireError> {
        let bytes = self.take(n.checked_mul(N).ok_or(WireError::Truncated)?)?;
        Ok(bytes.as_chunks::<N>().0)
    }

    /// The bytes consumed since `self.buf` was `before`.
    fn since(&self, before: &'a [u8]) -> &'a [u8] {
        before.get(..before.len().saturating_sub(self.buf.len())).unwrap_or(&[])
    }
}

/// A column of unsigned integers `width` bytes wide, little-endian,
/// borrowed and read front to back.
#[derive(Debug, Clone, Copy)]
struct UintColumn<'a> {
    bytes: &'a [u8],
    width: usize,
    /// [`WIDTH_MASK`] of `width`.
    mask: u64,
}

impl<'a> UintColumn<'a> {
    /// The next `n × width` bytes of `r`, which must already be in the
    /// buffer (checked arithmetic on a sender-chosen `n`).
    fn split(r: &mut Reader<'a>, n: usize, width: usize) -> Result<UintColumn<'a>, WireError> {
        let bytes = r.take(n.checked_mul(width).ok_or(WireError::Truncated)?)?;
        Ok(UintColumn { bytes, width, mask: width_mask(width) })
    }

    #[inline]
    fn take_uint(&mut self) -> u64 {
        next_uint(&mut self.bytes, self.width, self.mask)
    }
}

/// [`WIDTH_MASK`] of `width`.
fn width_mask(width: usize) -> u64 {
    WIDTH_MASK.get(width).copied().unwrap_or(u64::MAX)
}

/// The next `width`-byte value of `buf`, which advances past it: one
/// unaligned 8-byte load masked by `mask` (= [`width_mask`]) while eight
/// bytes remain, byte by byte at the tail; 0 once `buf` is spent.
#[inline]
fn next_uint(buf: &mut &[u8], width: usize, mask: u64) -> u64 {
    let v = match buf.first_chunk::<8>() {
        Some(word) => u64::from_le_bytes(*word) & mask,
        None => uint_le(buf.get(..width).unwrap_or(buf)),
    };
    *buf = buf.get(width..).unwrap_or(&[]);
    v
}

/// `bytes` as a little-endian unsigned integer (at most 8 of them).
#[inline]
fn uint_le(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |v, &b| v << 8 | u64::from(b))
}

/// Every `base_ns + offset` of the `n`-value column `col` fits `u64`.
/// Only a column whose width admits an overflowing offset is walked.
fn check_offsets(base_ns: u64, mut col: UintColumn<'_>, n: usize) -> Result<(), WireError> {
    if base_ns.checked_add(col.mask).is_some() {
        return Ok(());
    }
    for _ in 0..n {
        base_ns.checked_add(col.take_uint()).ok_or(WireError::TimeOverflow)?;
    }
    Ok(())
}

impl FragmentBatch {
    /// The batch a client ships for one report period: the fragments of
    /// `stg` whose *start* lies in `[window.start, window.end)`, grouped
    /// by location in STG order, so consecutive periods partition the
    /// fragment population. Labels are interned on first use, so only
    /// states that appear (as a non-empty vertex or an edge endpoint)
    /// enter the dictionary.
    pub fn from_stg_starting_in(stg: &Stg, rank: usize, window: Window) -> FragmentBatch {
        let kept = |frags: &[Fragment]| -> Vec<Fragment> {
            frags.iter().filter(|f| f.start >= window.start && f.start < window.end).cloned().collect()
        };
        let label = |state: usize| stg.vertices()[state].key.label();
        let mut batch = Self::empty(rank, window);
        let mut dict: SymbolTable<String> = SymbolTable::new();
        for (id, v) in stg.vertices().iter().enumerate() {
            let fragments = kept(&v.fragments);
            if !fragments.is_empty() {
                let label = dict.intern(label(id));
                batch.vertex_groups.push(VertexGroup { label, fragments });
            }
        }
        for e in stg.edges() {
            let fragments = kept(&e.fragments);
            if !fragments.is_empty() {
                let (from, to) = (dict.intern(label(e.from)), dict.intern(label(e.to)));
                batch.edge_groups.push(EdgeGroup { from, to, fragments });
            }
        }
        batch.labels = dict.into_keys();
        batch
    }

    /// A batch of `window` with no fragments, not yet numbered: `seq` is
    /// 0, which is never admitted, until [`with_seq`](Self::with_seq)
    /// stamps it from 1.
    fn empty(rank: usize, window: Window) -> FragmentBatch {
        FragmentBatch {
            rank,
            seq: 0,
            tenant_id: DEFAULT_TENANT,
            job_id: DEFAULT_JOB,
            window_start_ns: window.start.ns(),
            window_end_ns: window.end.ns(),
            labels: Vec::new(),
            vertex_groups: Vec::new(),
            edge_groups: Vec::new(),
        }
    }

    /// Stamp the batch with a sequence number (builder style). Senders
    /// number their frames 1, 2, 3, … per rank; 0 is never admitted.
    pub fn with_seq(mut self, seq: u64) -> FragmentBatch {
        self.seq = seq;
        self
    }

    /// Stamp the batch with its fleet routing identity (builder style).
    pub fn with_job(mut self, tenant_id: u32, job_id: u32) -> FragmentBatch {
        self.tenant_id = tenant_id;
        self.job_id = job_id;
        self
    }

    /// The header admission reads.
    pub fn header(&self) -> FrameHeader {
        FrameHeader {
            rank: self.rank,
            seq: self.seq,
            tenant_id: self.tenant_id,
            job_id: self.job_id,
            window_start_ns: self.window_start_ns,
            window_end_ns: self.window_end_ns,
        }
    }

    /// Resolve a dictionary id to its label.
    pub fn label(&self, id: Sym) -> &str {
        &self.labels[id as usize]
    }

    /// Total fragments in the batch.
    pub fn len(&self) -> usize {
        self.vertex_groups.iter().map(|g| g.fragments.len()).sum::<usize>()
            + self.edge_groups.iter().map(|g| g.fragments.len()).sum::<usize>()
    }

    /// Empty batch?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every fragment of the batch: the vertex groups', then the edge
    /// groups', in group order.
    pub fn fragments(&self) -> impl Iterator<Item = &Fragment> {
        self.vertex_groups
            .iter()
            .flat_map(|g| g.fragments.iter())
            .chain(self.edge_groups.iter().flat_map(|g| g.fragments.iter()))
    }

    /// Append one length-prefixed binary frame to `out`. This is the
    /// allocation-lean streaming entry point: the caller reuses one
    /// buffer across batches.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let len_pos = out.len();
        out.extend_from_slice(&0u32.to_le_bytes()); // patched below
        let payload_start = out.len();

        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION);
        let crc_pos = out.len();
        out.extend_from_slice(&0u32.to_le_bytes()); // checksum, patched below
        let checked_start = out.len();
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.tenant_id.to_le_bytes());
        out.extend_from_slice(&self.job_id.to_le_bytes());
        self.encode_body(out);

        let crc = crc32::checksum(&out[checked_start..]);
        out[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
        let payload_len = u32::try_from(out.len() - payload_start).expect("frame fits u32");
        out[len_pos..len_pos + 4].copy_from_slice(&payload_len.to_le_bytes());
    }

    /// The one encoder under the name its last v3-era caller uses: the
    /// frozen `benchmark/src/layers.rs`, until that crate is unfrozen.
    pub fn encode_into_v3(&self, out: &mut Vec<u8>) {
        self.encode_into(out)
    }

    /// Serialise to one length-prefixed binary frame (see
    /// [`FragmentBatch::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96 + self.len() * 24);
        self.encode_into(&mut out);
        out
    }

    /// The payload body after the header: rank, window bounds, label
    /// dictionary, group heads, shape table and fragment columns.
    fn encode_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&u32::try_from(self.rank).expect("rank fits u32").to_le_bytes());
        out.extend_from_slice(&self.window_start_ns.to_le_bytes());
        out.extend_from_slice(&self.window_end_ns.to_le_bytes());

        put_count(out, self.labels.len());
        let max_len = self.labels.iter().map(|l| l.len()).max().unwrap_or(0);
        let lenw = byte_width(max_len as u64).max(1);
        out.push(lenw as u8);
        for label in &self.labels {
            put_uint(out, label.len() as u64, lenw);
            out.extend_from_slice(label.as_bytes());
        }

        put_count(out, self.vertex_groups.len());
        put_count(out, self.edge_groups.len());
        let vertex_ids = self.vertex_groups.iter().map(|g| g.label);
        let edge_ids = self.edge_groups.iter().flat_map(|g| [g.from, g.to]);
        let idw = byte_width(vertex_ids.chain(edge_ids).max().unwrap_or(0).into());
        let vertex_counts = self.vertex_groups.iter().map(|g| g.fragments.len());
        let edge_counts = self.edge_groups.iter().map(|g| g.fragments.len());
        let countw = byte_width(vertex_counts.chain(edge_counts).max().unwrap_or(0) as u64).max(1);
        out.push(idw as u8);
        out.push(countw as u8);
        for g in &self.vertex_groups {
            put_uint(out, g.label.into(), idw);
            put_uint(out, g.fragments.len() as u64, countw);
        }
        for g in &self.edge_groups {
            put_uint(out, g.from.into(), idw);
            put_uint(out, g.to.into(), idw);
            put_uint(out, g.fragments.len() as u64, countw);
        }

        // One walk settles the shape of every row and each column's
        // width; the columns are written after the table they index.
        let mut shapes = ShapeTable::default();
        let mut index = Vec::with_capacity(self.len());
        let (mut base, mut max_start, mut max_end) = (u64::MAX, 0u64, 0u64);
        let (mut max_rank, mut header_rank_only) = (0u64, true);
        let (mut max_arg, mut integral_args, mut ncvals, mut nargs) = (0u64, true, 0usize, 0usize);
        for f in self.fragments() {
            let shape = Shape::of(f);
            index.push(shapes.intern(shape));
            let (start, end) = (f.start.ns(), f.end.ns());
            base = base.min(start).min(end);
            max_start = max_start.max(start);
            max_end = max_end.max(end);
            max_rank = max_rank.max(u32::try_from(f.rank).expect("rank fits u32").into());
            header_rank_only &= f.rank == self.rank;
            for &a in &f.args {
                match integral(a) {
                    Some(u) => max_arg = max_arg.max(u),
                    None => integral_args = false,
                }
            }
            ncvals += shape.nonzero.count_ones() as usize;
            nargs += f.args.len();
        }
        if index.is_empty() {
            base = 0;
        }

        put_count(out, shapes.shapes.len());
        for shape in &shapes.shapes {
            out.extend_from_slice(&shape.to_bytes());
        }
        let rankw = if header_rank_only { 0 } else { byte_width(max_rank).max(1) };
        let startw = byte_width(max_start.saturating_sub(base));
        let endw = byte_width(max_end.saturating_sub(base));
        out.extend_from_slice(&base.to_le_bytes());
        out.extend_from_slice(&[rankw as u8, startw as u8, endw as u8]);
        let shapew = shape_width(shapes.shapes.len());
        for &i in &index {
            put_uint(out, i.into(), shapew);
        }
        if rankw > 0 {
            for f in self.fragments() {
                put_uint(out, f.rank as u64, rankw);
            }
        }
        for f in self.fragments() {
            put_uint(out, f.start.ns() - base, startw);
        }
        for f in self.fragments() {
            put_uint(out, f.end.ns() - base, endw);
        }
        put_count(out, ncvals);
        for f in self.fragments() {
            for (_, v) in f.counters.entries().filter(|(_, v)| v.to_bits() != 0) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        put_count(out, nargs);
        let argw = if integral_args && nargs > 0 { byte_width(max_arg).max(1) } else { 0 };
        out.push(argw as u8);
        for a in self.fragments().flat_map(|f| &f.args) {
            match integral(*a).filter(|_| argw > 0) {
                Some(u) => put_uint(out, u, argw),
                None => out.extend_from_slice(&a.to_le_bytes()),
            }
        }
    }

    /// Decode exactly one binary frame into its owned form:
    /// [`FrameView::parse`], then [`FrameView::to_batch`]. Trailing
    /// bytes are an error.
    pub fn decode(bytes: &[u8]) -> Result<FragmentBatch, WireError> {
        Ok(FrameView::parse(bytes)?.to_batch())
    }
}

/// One fragment record as a frame's columns hold it: the fixed fields
/// decoded, the counter values and args as iterators over the frame's
/// bytes.
#[derive(Debug, Clone, Copy)]
pub struct WireRow<'a> {
    /// Originating rank (the column's, or the header's at rank width 0).
    pub rank: u32,
    /// Fragment category.
    pub kind: FragmentKind,
    /// Virtual start time, ns.
    pub start_ns: u64,
    /// Virtual end time, ns.
    pub end_ns: u64,
    /// [`CounterSet`] bitmask of the counters carried.
    pub set: u32,
    /// The `set.count_ones()` active counter values, ascending counter
    /// index, elided `+0.0`s restored.
    pub vals: CounterValues<'a>,
    /// The invocation arguments.
    pub args: ArgValues<'a>,
}

/// A row's counter values: one per bit of its counter set, ascending
/// counter index; a bit outside the row's non-zero mask reads `+0.0`.
#[derive(Debug, Clone, Copy)]
pub struct CounterValues<'a> {
    set: u32,
    nonzero: u32,
    vals: &'a [[u8; 8]],
}

impl Iterator for CounterValues<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let rest = self.set & self.set.wrapping_sub(1);
        let bit = self.set ^ rest;
        if bit == 0 {
            return None;
        }
        self.set = rest;
        if self.nonzero & bit == 0 {
            return Some(0.0);
        }
        let (v, vals) = self.vals.split_first()?;
        self.vals = vals;
        Some(f64::from_le_bytes(*v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.set.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for CounterValues<'_> {}

/// A row's invocation arguments: raw `f64`s, or unsigned integers at the
/// frame's arg width.
#[derive(Debug, Clone, Copy)]
pub struct ArgValues<'a> {
    /// The arg column from this row's first arg to the frame's end, so
    /// that a narrow arg is one 8-byte load.
    bytes: &'a [u8],
    /// Bytes an arg: 8 when `raw`.
    width: u8,
    raw: bool,
    /// Args left.
    len: u16,
}

impl Iterator for ArgValues<'_> {
    type Item = f64;

    #[inline]
    fn next(&mut self) -> Option<f64> {
        self.len = self.len.checked_sub(1)?;
        let width = usize::from(self.width);
        let v = next_uint(&mut self.bytes, width, width_mask(width));
        Some(if self.raw { f64::from_bits(v) } else { v as f64 })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::from(self.len), Some(usize::from(self.len)))
    }
}

impl ExactSizeIterator for ArgValues<'_> {}

/// The fragment columns of a validated frame, read front to back: one
/// [`WireRow`] per fragment, vertex groups' then edge groups', in group
/// order.
#[derive(Debug, Clone, Copy)]
pub struct FrameRows<'a> {
    left: usize,
    shapes: &'a [[u8; SHAPE_BYTES]],
    index: UintColumn<'a>,
    header_rank: u32,
    ranks: UintColumn<'a>,
    base_ns: u64,
    starts: UintColumn<'a>,
    ends: UintColumn<'a>,
    cvals: &'a [[u8; 8]],
    /// Raw `f64`s at width 8 when `raw_args`.
    args: UintColumn<'a>,
    raw_args: bool,
}

impl<'a> Iterator for FrameRows<'a> {
    type Item = WireRow<'a>;

    /// `None` after the frame's rows — or, on rows nobody validated, at
    /// the first that names no shape or runs a column dry.
    #[inline]
    fn next(&mut self) -> Option<WireRow<'a>> {
        self.left = self.left.checked_sub(1)?;
        let shape = Shape::from_bytes(self.shapes.get(self.index.take_uint() as usize)?);
        let kind = kind_from_byte(shape.kind).ok()?;
        let rank =
            if self.ranks.width == 0 { self.header_rank } else { self.ranks.take_uint() as u32 };
        let start_ns = self.base_ns.saturating_add(self.starts.take_uint());
        let end_ns = self.base_ns.saturating_add(self.ends.take_uint());
        let (vals, cvals) = self.cvals.split_at_checked(shape.nonzero.count_ones() as usize)?;
        self.cvals = cvals;
        let argc = usize::from(shape.argc);
        let args = self.args;
        self.args.bytes = args.bytes.get(argc.checked_mul(args.width)?..)?;
        Some(WireRow {
            rank,
            kind,
            start_ns,
            end_ns,
            set: shape.set,
            vals: CounterValues { set: shape.set, nonzero: shape.nonzero, vals },
            args: ArgValues {
                bytes: args.bytes,
                width: args.width as u8,
                raw: self.raw_args,
                len: shape.argc,
            },
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for FrameRows<'_> {}

/// Where a frame's bytes go, section by section; the sections sum to
/// the frame's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameComposition {
    /// Length prefix, magic, version, checksum, sequence, routing stamp,
    /// rank and window bounds.
    pub header: usize,
    /// Label count, length width, lengths and UTF-8 bytes.
    pub dictionary: usize,
    /// Group counts, id and count widths, and the group heads.
    pub heads: usize,
    /// Shape count and the shape table.
    pub shapes: usize,
    /// Timestamp base, rank and timestamp widths, and the shape-index,
    /// rank, start and end columns.
    pub rows: usize,
    /// Value count and the non-zero counter values.
    pub values: usize,
    /// Arg count, arg width and the args.
    pub args: usize,
}

impl FrameComposition {
    /// The frame's length.
    pub fn total(&self) -> usize {
        let fixed = self.header + self.dictionary + self.heads + self.shapes;
        fixed + self.rows + self.values + self.args
    }
}

/// A validated frame, borrowed: header decoded, label table, group
/// heads, shape table and fragment columns still the frame's own bytes.
/// Holding one is proof the frame passed every check
/// [`FrameView::parse`] makes, so its accessors cannot fail — they are
/// total all the same, and run dry rather than panic on a view nobody
/// validated.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    header: FrameHeader,
    /// The frame's length, length prefix included.
    wire_len: usize,
    /// Σ counter-set popcount + Σ argc over the rows.
    expanded: usize,
    nlabels: usize,
    lenw: usize,
    /// `nlabels × (len:lenw, utf-8 bytes)`.
    labels: &'a [u8],
    nvgroups: usize,
    negroups: usize,
    idw: usize,
    countw: usize,
    /// `(label:idw, count:countw)` per vertex group.
    vheads: &'a [u8],
    /// `(from:idw, to:idw, count:countw)` per edge group.
    eheads: &'a [u8],
    rows: FrameRows<'a>,
}

impl<'a> FrameView<'a> {
    /// Validate exactly one binary frame; trailing bytes are an error.
    ///
    /// This is the one parser, and the ingest-facing entry point (solo
    /// and fleet admission both come through here). Every check a frame
    /// can fail runs in wire order; nothing is handed out until the last
    /// one has passed. The length prefix must fit the buffer and the
    /// buffer must end where the frame does.
    pub fn parse(bytes: &'a [u8]) -> Result<FrameView<'a>, WireError> {
        let prefix: [u8; 4] = bytes
            .get(..4)
            .and_then(|p| p.try_into().ok())
            .ok_or(WireError::ShortFrame { declared: 4, available: bytes.len() })?;
        let payload_len = u32::from_le_bytes(prefix) as usize;
        let declared = 4usize.saturating_add(payload_len);
        let payload = bytes
            .get(4..declared)
            .ok_or(WireError::ShortFrame { declared, available: bytes.len() })?;

        let mut r = Reader { buf: payload };
        if r.take(4)? != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        // The version byte is outside checksum coverage, so it is held
        // to exactly one value: accepting a second layout here would let
        // a one-bit flip re-interpret a valid frame.
        let got = r.u8()?;
        if got != WIRE_VERSION {
            return Err(WireError::BadVersion { got, supported: WIRE_VERSION });
        }
        let claimed_crc = r.u32()?;
        // Everything after the checksum field is covered: verify before
        // trusting a single body byte. The `SkipCrcCheck` canary
        // (vopr-canary builds only) suppresses exactly this rejection;
        // the VOPR harness must notice the corrupt frames it then admits.
        if crc32::checksum(r.buf) != claimed_crc
            && !crate::vopr::canary::armed(crate::vopr::canary::Canary::SkipCrcCheck)
        {
            // Best-effort attribution from the (untrusted) header for
            // log lines; zeros if the frame is too short.
            let mut peek = Reader { buf: r.buf };
            let seq = peek.u64().unwrap_or(0);
            // Skip the routing stamp to reach the rank.
            let _ = peek.u32();
            let _ = peek.u32();
            let rank = peek.u32().unwrap_or(0);
            return Err(WireError::BadChecksum { rank, seq });
        }
        let header = FrameHeader {
            seq: r.u64()?,
            tenant_id: r.u32()?,
            job_id: r.u32()?,
            rank: r.u32()? as usize,
            window_start_ns: r.u64()?,
            window_end_ns: r.u64()?,
        };

        let nlabels = r.u32()? as usize;
        let lenw = r.width(1, 4)?;
        let table = r.buf;
        for _ in 0..nlabels {
            let len = r.uint(lenw)? as usize;
            std::str::from_utf8(r.take(len)?).map_err(|_| WireError::BadUtf8)?;
        }
        let labels = r.since(table);
        let check_label = |id: u64| {
            if id < nlabels as u64 {
                Ok(())
            } else {
                Err(WireError::BadLabelId(id as Sym))
            }
        };

        let nvgroups = r.u32()? as usize;
        let negroups = r.u32()? as usize;
        let idw = r.width(0, 4)?;
        let countw = r.width(1, 4)?;
        let mut nfrags = 0usize;
        let table = r.buf;
        for _ in 0..nvgroups {
            check_label(r.uint(idw)?)?;
            nfrags = nfrags.saturating_add(r.uint(countw)? as usize);
        }
        let vheads = r.since(table);
        let table = r.buf;
        for _ in 0..negroups {
            check_label(r.uint(idw)?)?;
            check_label(r.uint(idw)?)?;
            nfrags = nfrags.saturating_add(r.uint(countw)? as usize);
        }
        let eheads = r.since(table);
        // A claimed count the buffer cannot possibly hold is refused
        // here, before a column is cut: a tiny frame claiming ~4 billion
        // fragments is `Truncated`, whatever its later fields say.
        if (nfrags as u64).saturating_mul(MIN_BYTES_PER_FRAG) > r.buf.len() as u64 {
            return Err(WireError::Truncated);
        }

        let nshapes = r.u32()? as usize;
        let shapes = r.column::<SHAPE_BYTES>(nshapes)?;
        for entry in shapes {
            Shape::from_bytes(entry).check()?;
        }
        let base_ns = r.u64()?;
        let rankw = r.width(0, 4)?;
        let startw = r.width(0, 8)?;
        let endw = r.width(0, 8)?;
        let index = UintColumn::split(&mut r, nfrags, shape_width(nshapes))?;
        let ranks = UintColumn::split(&mut r, nfrags, rankw)?;
        let starts = UintColumn::split(&mut r, nfrags, startw)?;
        let ends = UintColumn::split(&mut r, nfrags, endw)?;
        check_offsets(base_ns, starts, nfrags)?;
        check_offsets(base_ns, ends, nfrags)?;
        // One walk over the rows: every shape index names a table entry,
        // and the values and args they claim are what the frame holds.
        // It also counts the counter values the rows expand to.
        let (mut walk, mut carried, mut argc_sum, mut set_sum) = (index, 0usize, 0usize, 0usize);
        for _ in 0..nfrags {
            let i = walk.take_uint();
            let shape = Shape::from_bytes(shapes.get(i as usize).ok_or(WireError::BadShape(i))?);
            carried = carried.saturating_add(shape.nonzero.count_ones() as usize);
            argc_sum = argc_sum.saturating_add(usize::from(shape.argc));
            set_sum = set_sum.saturating_add(shape.set.count_ones() as usize);
        }
        if r.u32()? as usize != carried {
            return Err(WireError::CountMismatch);
        }
        let cvals = r.column::<8>(carried)?;
        if r.u32()? as usize != argc_sum {
            return Err(WireError::CountMismatch);
        }
        let argw = r.width(0, 8)?;
        let raw_args = argw == 0;
        let args = UintColumn::split(&mut r, argc_sum, if raw_args { 8 } else { argw })?;
        if !r.buf.is_empty() || declared != bytes.len() {
            return Err(WireError::TrailingBytes);
        }

        Ok(FrameView {
            header,
            wire_len: declared,
            expanded: set_sum.saturating_add(argc_sum),
            nlabels,
            lenw,
            labels,
            nvgroups,
            negroups,
            idw,
            countw,
            vheads,
            eheads,
            rows: FrameRows {
                left: nfrags,
                shapes,
                index,
                header_rank: header.rank as u32,
                ranks,
                base_ns,
                starts,
                ends,
                cvals,
                args,
                raw_args,
            },
        })
    }

    /// The header admission reads.
    pub fn header(&self) -> FrameHeader {
        self.header
    }

    /// Total fragments in the frame.
    pub fn len(&self) -> usize {
        self.rows.left
    }

    /// The frame's length on the wire, length prefix included.
    pub fn wire_len(&self) -> usize {
        self.wire_len
    }

    /// The `f64`s the rows expand to: one per counter of each row's set,
    /// elided `+0.0`s included, and every arg.
    pub fn expanded_values(&self) -> usize {
        self.expanded
    }

    /// Empty frame? (It still advances its rank's shipping mark.)
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries in the label dictionary.
    pub fn num_labels(&self) -> usize {
        self.nlabels
    }

    /// The label dictionary, in id order.
    pub fn labels(&self) -> impl Iterator<Item = &'a str> + 'a {
        let (mut table, lenw) = (self.labels, self.lenw);
        let mask = width_mask(lenw);
        (0..self.nlabels).map_while(move |_| {
            let len = next_uint(&mut table, lenw, mask) as usize;
            let (label, rest) = table.split_at_checked(len)?;
            table = rest;
            std::str::from_utf8(label).ok()
        })
    }

    /// `(label, fragment count)` of each vertex group, in wire order.
    pub fn vertex_heads(&self) -> impl Iterator<Item = (Sym, usize)> + 'a {
        let (mut heads, id, count) = (self.vheads, self.id_column(), self.count_column());
        // The whole head in one load: `idw + countw` is at most 8 bytes.
        let head = id.0.saturating_add(count.0);
        let (head_mask, count_shift) = (width_mask(head), id.0.saturating_mul(8) as u32);
        (0..self.nvgroups).map(move |_| {
            let h = next_uint(&mut heads, head, head_mask);
            ((h & id.1) as Sym, (h >> count_shift & count.1) as usize)
        })
    }

    /// `(from, to, fragment count)` of each edge group, in wire order.
    pub fn edge_heads(&self) -> impl Iterator<Item = (Sym, Sym, usize)> + 'a {
        let (mut heads, id, count) = (self.eheads, self.id_column(), self.count_column());
        // Both ids in one load: `2 × idw` is at most 8 bytes.
        let pair = id.0.saturating_mul(2);
        let (pair_mask, to_shift) = (width_mask(pair), id.0.saturating_mul(8) as u32);
        (0..self.negroups).map(move |_| {
            let ids = next_uint(&mut heads, pair, pair_mask);
            let (from, to) = (ids & id.1, ids >> to_shift & id.1);
            (from as Sym, to as Sym, next_uint(&mut heads, count.0, count.1) as usize)
        })
    }

    /// Width and mask of the group heads' label ids.
    fn id_column(&self) -> (usize, u64) {
        (self.idw, width_mask(self.idw))
    }

    /// Width and mask of the group heads' counts.
    fn count_column(&self) -> (usize, u64) {
        (self.countw, width_mask(self.countw))
    }

    /// The fragment rows: the vertex groups' then the edge groups', each
    /// group's `count` rows in a run.
    pub fn rows(&self) -> FrameRows<'a> {
        self.rows
    }

    /// The frame's bytes by section (`repro storage` prints them).
    pub fn composition(&self) -> FrameComposition {
        let rows = &self.rows;
        let columns = [rows.index, rows.ranks, rows.starts, rows.ends];
        FrameComposition {
            header: FRAME_HEADER_BYTES,
            dictionary: 4 + 1 + self.labels.len(),
            heads: 4 + 4 + 1 + 1 + self.vheads.len() + self.eheads.len(),
            shapes: 4 + rows.shapes.len() * SHAPE_BYTES,
            rows: 8 + 3 + columns.iter().map(|c| c.bytes.len()).sum::<usize>(),
            values: 4 + rows.cvals.len() * 8,
            args: 4 + 1 + rows.args.bytes.len(),
        }
    }

    /// Materialise the owned batch: the allocating half of
    /// [`FragmentBatch::decode`], which the server's ingest path does
    /// not run.
    pub fn to_batch(&self) -> FragmentBatch {
        let mut fragments = self.rows().map(|row| {
            let mut counters = CounterDelta::default();
            for (id, v) in CounterSet::from_bits(row.set).iter().zip(row.vals) {
                counters.put(id, v);
            }
            Fragment {
                rank: row.rank as usize,
                kind: row.kind,
                start: VirtualTime::from_ns(row.start_ns),
                end: VirtualTime::from_ns(row.end_ns),
                counters,
                args: row.args.collect(),
            }
        });
        // Sized exactly: `collect` on a `take` would round a one-fragment
        // group up to four 256-byte slots.
        let mut group = |count: usize| {
            let mut taken = Vec::with_capacity(count.min(fragments.len()));
            taken.extend(fragments.by_ref().take(count));
            taken
        };
        let vertex_groups = self
            .vertex_heads()
            .map(|(label, count)| VertexGroup { label, fragments: group(count) })
            .collect();
        let edge_groups = self
            .edge_heads()
            .map(|(from, to, count)| EdgeGroup { from, to, fragments: group(count) })
            .collect();
        let FrameHeader { rank, seq, tenant_id, job_id, window_start_ns, window_end_ns } =
            self.header;
        FragmentBatch {
            rank,
            seq,
            tenant_id,
            job_id,
            window_start_ns,
            window_end_ns,
            labels: self.labels().map(str::to_string).collect(),
            vertex_groups,
            edge_groups,
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentKind;
    use crate::stg::StateKey;
    use vapro_pmu::{CounterDelta, CounterId};
    use vapro_sim::{CallSite, VirtualTime};

    fn sample_stg(rank: usize) -> Stg {
        let mut stg = Stg::new();
        let s0 = stg.state(StateKey::Start);
        let s1 = stg.state(StateKey::Site(CallSite("w:MPI_Barrier")));
        stg.transition(s0, s1);
        let e = stg.transition(s1, s1);
        for i in 0..10u64 {
            let mut c = CounterDelta::default();
            c.put(CounterId::TotIns, 1000.0);
            stg.attach_edge_fragment(
                e,
                Fragment {
                    rank,
                    kind: FragmentKind::Computation,
                    start: VirtualTime::from_ns(i * 200),
                    end: VirtualTime::from_ns(i * 200 + 150),
                    counters: c,
                    args: vec![],
                },
            );
            stg.attach_vertex_fragment(
                s1,
                Fragment {
                    rank,
                    kind: FragmentKind::Communication,
                    start: VirtualTime::from_ns(i * 200 + 150),
                    end: VirtualTime::from_ns(i * 200 + 200),
                    counters: CounterDelta::default(),
                    args: vec![8.0],
                },
            );
        }
        stg
    }

    fn full_window() -> Window {
        Window { start: VirtualTime::ZERO, end: VirtualTime::from_secs(1) }
    }

    #[test]
    fn start_partitioned_batches_cover_each_fragment_once() {
        let stg = sample_stg(0);
        // 900 ns falls inside the 800..950 fragment, so the boundary is
        // genuinely straddled.
        let w1 = Window { start: VirtualTime::ZERO, end: VirtualTime::from_ns(900) };
        let w2 = Window { start: VirtualTime::from_ns(900), end: VirtualTime::from_secs(1) };
        let b1 = FragmentBatch::from_stg_starting_in(&stg, 0, w1);
        let b2 = FragmentBatch::from_stg_starting_in(&stg, 0, w2);
        assert_eq!(b1.len() + b2.len(), stg.total_fragments());
        assert_eq!((b1.len(), b2.len()), (9, 11));
    }

    /// The sample frame every codec test mutates: rank 2, sequence 7,
    /// routed to tenant 5 / job 6.
    fn stamped_batch() -> FragmentBatch {
        FragmentBatch::from_stg_starting_in(&sample_stg(2), 2, full_window()).with_seq(7).with_job(5, 6)
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let batch = FragmentBatch::from_stg_starting_in(&sample_stg(1), 1, full_window());
        assert_eq!((batch.seq, batch.tenant_id, batch.job_id), (0, DEFAULT_TENANT, DEFAULT_JOB));
        let bytes = batch.encode();
        assert_eq!(bytes[8], WIRE_VERSION);
        assert_eq!(FragmentBatch::decode(&bytes).unwrap(), batch);
        // Sequence number and routing stamp ride in the header.
        let stamped = batch.with_seq(u64::MAX).with_job(7, u32::MAX);
        let back = FragmentBatch::decode(&stamped.encode()).unwrap();
        assert_eq!((back.seq, back.tenant_id, back.job_id), (u64::MAX, 7, u32::MAX));
        assert_eq!(back, stamped);
    }

    #[test]
    fn binary_framing_overhead_is_small() {
        // Twenty rows in two groups of one shape each: the frame is its
        // fixed header, dictionary, heads and shape table plus a few
        // bytes a row — not the 27-byte fixed record of a row-oriented
        // layout.
        let batch = FragmentBatch::from_stg_starting_in(&sample_stg(1), 1, full_window());
        let bytes = batch.encode();
        let parts = FrameView::parse(&bytes).unwrap().composition();
        assert_eq!(parts.total(), bytes.len());
        assert_eq!(parts.shapes, 4 + 2 * SHAPE_BYTES);
        // Shape index (1) + start (2) + end (2) per row; no rank column.
        assert_eq!(parts.rows, 8 + 3 + 20 * 5);
        // One value per computation row; the args are one-byte integers.
        assert_eq!((parts.values, parts.args), (4 + 10 * 8, 4 + 1 + 10));
        let fixed = parts.header + parts.dictionary + parts.heads + parts.shapes;
        assert!(fixed < 120, "fixed overhead {fixed} B");
    }

    #[test]
    fn malformed_frames_error_instead_of_panicking() {
        assert_eq!(
            FragmentBatch::decode(&[]).unwrap_err(),
            WireError::ShortFrame { declared: 4, available: 0 }
        );
        let clean = stamped_batch().encode();
        let mut bytes = clean.clone();
        bytes[4] = b'X'; // magic
        assert_eq!(FragmentBatch::decode(&bytes).unwrap_err(), WireError::BadMagic);
        assert_eq!(
            FragmentBatch::decode(&clean[..clean.len() - 3]).unwrap_err(),
            WireError::ShortFrame { declared: clean.len(), available: clean.len() - 3 }
        );
        let mut bytes = clean.clone();
        bytes.push(0);
        assert_eq!(FragmentBatch::decode(&bytes).unwrap_err(), WireError::TrailingBytes);
        // Arbitrary truncations never panic.
        for cut in 0..clean.len() {
            let _ = FragmentBatch::decode(&clean[..cut]);
        }
    }

    #[test]
    fn every_other_version_byte_is_rejected_and_counted() {
        // The version byte is outside checksum coverage, so the decoder
        // must hold it to one value: the retired layouts 1 to 3, a
        // single-bit flip of 4, and everything else are `BadVersion` —
        // counted as such by the ingest stats.
        let clean = stamped_batch().encode();
        let mut stats = crate::detect::admission::IngestStats::default();
        for got in (0..=u8::MAX).filter(|&v| v != WIRE_VERSION) {
            let mut bytes = clean.clone();
            bytes[8] = got;
            let err = FragmentBatch::decode(&bytes).unwrap_err();
            assert_eq!(err, WireError::BadVersion { got, supported: WIRE_VERSION });
            stats.count_decode_error(&err);
        }
        assert_eq!(stats.bad_version_frames, 255);
        assert_eq!(stats.frames_rejected(), 255);
    }

    #[test]
    fn corrupted_payload_bytes_fail_the_checksum_with_attribution() {
        let batch = stamped_batch();
        let clean = batch.encode();
        assert_eq!(FragmentBatch::decode(&clean).unwrap(), batch);
        // Checksum coverage starts after prefix (4) + magic (4) +
        // version (1) + crc (4) = byte 13. Flip one bit in every covered
        // byte: all must be caught, and once seq (8) + tenant (4) +
        // job (4) + rank (4) are untouched the error still attributes
        // the true rank and sequence.
        for pos in 13..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x40;
            match FragmentBatch::decode(&bytes).unwrap_err() {
                WireError::BadChecksum { rank, seq } => {
                    if pos >= 13 + 20 {
                        assert_eq!((rank, seq), (2, 7), "flip at {pos}");
                    }
                }
                other => panic!("flip at {pos}: unexpected {other:?}"),
            }
        }
        // A flipped CRC field itself is also a checksum failure.
        let mut bytes = clean.clone();
        bytes[9] ^= 0xFF;
        assert!(matches!(
            FragmentBatch::decode(&bytes).unwrap_err(),
            WireError::BadChecksum { .. }
        ));
    }

    #[test]
    fn display_messages_name_rank_and_sequence() {
        let msg = WireError::BadChecksum { rank: 3, seq: 17 }.to_string();
        assert!(msg.contains("rank 3") && msg.contains("seq 17"), "{msg}");
        let msg = WireError::DuplicateSequence { rank: 5, seq: 9 }.to_string();
        assert!(msg.contains("rank 5") && msg.contains("seq 9"), "{msg}");
        let msg = WireError::BadVersion { got: 9, supported: WIRE_VERSION }.to_string();
        assert!(msg.contains('9') && msg.contains('4'), "{msg}");
        let msg = WireError::UnknownTenant { tenant: 11 }.to_string();
        assert!(msg.contains("tenant 11"), "{msg}");
        let msg = WireError::TenantOverBudget {
            tenant: 4,
            budget_bytes: 1024,
            requested_bytes: 2048,
        }
        .to_string();
        assert!(msg.contains("tenant 4") && msg.contains("1024") && msg.contains("2048"), "{msg}");
    }

    /// `checked` — every payload byte after the checksum field — sealed
    /// into a frame with a valid length prefix and checksum.
    fn seal(checked: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::try_from(9 + checked.len()).unwrap().to_le_bytes());
        frame.extend_from_slice(&WIRE_MAGIC);
        frame.push(WIRE_VERSION);
        frame.extend_from_slice(&crc32::checksum(checked).to_le_bytes());
        frame.extend_from_slice(checked);
        frame
    }

    #[test]
    fn huge_claimed_fragment_count_is_rejected_before_allocating() {
        // A tiny frame whose group heads claim ~4 billion fragments must
        // return Truncated, not attempt multi-GB column allocations. It
        // carries a *valid* checksum, so the anti-OOM check is what
        // rejects it.
        let mut checked = Vec::new();
        checked.extend_from_slice(&1u64.to_le_bytes()); // seq
        checked.extend_from_slice(&0u32.to_le_bytes()); // tenant
        checked.extend_from_slice(&0u32.to_le_bytes()); // job
        checked.extend_from_slice(&0u32.to_le_bytes()); // rank
        checked.extend_from_slice(&0u64.to_le_bytes()); // window start
        checked.extend_from_slice(&0u64.to_le_bytes()); // window end
        checked.extend_from_slice(&1u32.to_le_bytes()); // nlabels
        checked.extend_from_slice(&[1, 1, b'a']); // lenw, label length, label
        checked.extend_from_slice(&1u32.to_le_bytes()); // nvgroups
        checked.extend_from_slice(&0u32.to_le_bytes()); // negroups
        checked.extend_from_slice(&[0, 4]); // idw (the one label is id 0), countw
        checked.extend_from_slice(&u32::MAX.to_le_bytes()); // claimed pool size
        checked.extend_from_slice(&1u32.to_le_bytes()); // nshapes
        assert_eq!(FragmentBatch::decode(&seal(&checked)).unwrap_err(), WireError::Truncated);
    }

    /// Byte offsets of the fields the hostile-field test rewrites, read
    /// off a parsed frame's composition.
    struct Fields {
        lenw: usize,
        idw: usize,
        countw: usize,
        shapes: usize,
        base: usize,
        rankw: usize,
        startw: usize,
        index: usize,
        ncvals: usize,
        argw: usize,
    }

    fn fields(bytes: &[u8]) -> Fields {
        let parts = FrameView::parse(bytes).unwrap().composition();
        let dict = parts.header;
        let heads = dict + parts.dictionary;
        let shapes = heads + parts.heads + 4;
        let base = heads + parts.heads + parts.shapes;
        let values = base + parts.rows;
        Fields {
            lenw: dict + 4,
            idw: heads + 8,
            countw: heads + 9,
            shapes,
            base,
            rankw: base + 8,
            startw: base + 9,
            index: base + 11,
            ncvals: values,
            argw: values + parts.values + 4,
        }
    }

    /// Length prefix and checksum recomputed around `bytes`' damage.
    fn reseal(bytes: &[u8]) -> Vec<u8> {
        seal(&bytes[13..])
    }

    #[test]
    fn hostile_v4_fields_are_rejected_and_counted() {
        // Each hostile field, checksummed in so the field's own check is
        // what refuses it, is a `WireError` the ingestor counts as a
        // malformed frame and never an admission.
        let mut stg = sample_stg(2);
        // A row in a third shape whose TSC is +0.0 and so not written.
        let e = stg.transition(1, 0);
        let mut c = CounterDelta::default();
        c.put(CounterId::TotIns, 7.0);
        c.put(CounterId::Tsc, 0.0);
        let (start, end) = (VirtualTime::from_ns(3_000), VirtualTime::from_ns(3_100));
        let f = Fragment { rank: 2, kind: FragmentKind::Io, start, end, counters: c, args: vec![] };
        stg.attach_edge_fragment(e, f);
        let clean = FragmentBatch::from_stg_starting_in(&stg, 2, full_window()).with_seq(1).encode();
        let at = fields(&clean);
        assert_eq!(clean[at.rankw], 0, "every row is at the header rank");
        assert_eq!(clean[at.argw], 1, "the args are one-byte integers");
        let nshapes = u32::from_le_bytes(clean[at.shapes - 4..at.shapes].try_into().unwrap());
        assert_eq!(nshapes, 3);
        let shape = |i: usize| at.shapes + i * SHAPE_BYTES;
        let set_mask = |bytes: &mut Vec<u8>, i: usize, mask: u32, nonzero: bool| {
            let pos = shape(i) + 1 + 4 * usize::from(nonzero);
            bytes[pos..pos + 4].copy_from_slice(&mask.to_le_bytes());
        };
        let tsc = 1 << CounterId::Tsc.index();
        let ins = 1 << CounterId::TotIns.index();
        let io_shape = (0..3)
            .find(|&i| clean[shape(i)] == kind_to_byte(FragmentKind::Io))
            .expect("the I/O row's shape");

        let mut cases: Vec<(&str, Vec<u8>, WireError)> = Vec::new();
        let mut edit = |name, f: &dyn Fn(&mut Vec<u8>), want| {
            let mut bytes = clean.clone();
            f(&mut bytes);
            cases.push((name, reseal(&bytes), want));
        };
        edit("width above 8", &|b| b[at.startw] = 9, WireError::BadWidth(9));
        edit("width 255", &|b| b[at.startw + 1] = 255, WireError::BadWidth(255));
        edit("rank width past u32", &|b| b[at.rankw] = 5, WireError::BadWidth(5));
        edit("id width past u32", &|b| b[at.idw] = 5, WireError::BadWidth(5));
        edit("label length width 0", &|b| b[at.lenw] = 0, WireError::BadWidth(0));
        edit("group count width 0", &|b| b[at.countw] = 0, WireError::BadWidth(0));
        edit("arg width above 8", &|b| b[at.argw] = 9, WireError::BadWidth(9));
        edit("shape index at the table end", &|b| b[at.index] = 3, WireError::BadShape(3));
        edit("shape index past the table", &|b| b[at.index] = 200, WireError::BadShape(200));
        edit(
            "non-zero bit outside the set",
            &|b| set_mask(b, io_shape, ins | tsc | 1 << CounterId::StallsMemAny.index(), true),
            WireError::CountMismatch,
        );
        edit(
            "set bit beyond the 24 counters",
            &|b| set_mask(b, io_shape, ins | tsc | 1 << 30, false),
            WireError::CountMismatch,
        );
        edit(
            "non-zero bit beyond the 24 counters",
            &|b| set_mask(b, io_shape, ins | 1 << 24, true),
            WireError::CountMismatch,
        );
        edit(
            "base plus offset past u64",
            &|b| b[at.base..at.base + 8].copy_from_slice(&(u64::MAX - 100).to_le_bytes()),
            WireError::TimeOverflow,
        );
        edit(
            "ncvals one short of the popcounts",
            &|b| {
                let n = u32::from_le_bytes(b[at.ncvals..at.ncvals + 4].try_into().unwrap());
                b[at.ncvals..at.ncvals + 4].copy_from_slice(&(n - 1).to_le_bytes());
            },
            WireError::CountMismatch,
        );
        // Claiming the elided +0.0 TSC as written moves one value from
        // nowhere: Σ popcount(non-zero) no longer equals `ncvals`.
        edit(
            "elided value claimed written",
            &|b| set_mask(b, io_shape, ins | tsc, true),
            WireError::CountMismatch,
        );

        let cfg = crate::config::VaproConfig::default();
        let mut ingestor = crate::detect::ingestor::WindowedIngestor::new(4, 8, cfg);
        for (n, (name, bytes, want)) in cases.iter().enumerate() {
            assert_eq!(FragmentBatch::decode(bytes).unwrap_err(), *want, "{name}");
            assert_eq!(ingestor.push_encoded(bytes).unwrap_err(), *want, "{name}");
            assert_eq!(ingestor.stats().malformed_frames, n as u64 + 1, "{name} counted once");
        }
        assert_eq!(ingestor.stats().frames_admitted, 0);
        assert!(ingestor.push_encoded(&clean).is_ok());
    }

    #[test]
    fn elided_zeros_come_back_bit_exact() {
        // +0.0 costs nothing on the wire; -0.0, NaN payloads and
        // subnormals are written and return with their bits.
        let mut stg = Stg::new();
        let s0 = stg.state(StateKey::Start);
        let s1 = stg.state(StateKey::Site(CallSite("w:MPI_Wait")));
        let e = stg.transition(s0, s1);
        let values = [0.0, -0.0, f64::from_bits(0x7FF8_0000_0000_0ABC), 5e-324, 1.5];
        let mut c = CounterDelta::default();
        for (id, v) in CounterId::ALL.into_iter().zip(values) {
            c.put(id, v);
        }
        let start = VirtualTime::from_ns(10);
        let kind = FragmentKind::Computation;
        let f = Fragment { rank: 0, kind, start, end: start, counters: c, args: vec![] };
        stg.attach_edge_fragment(e, f);
        let bytes = FragmentBatch::from_stg_starting_in(&stg, 0, full_window()).encode();
        let view = FrameView::parse(&bytes).unwrap();
        assert_eq!(view.composition().values, 4 + 4 * 8, "only +0.0 is elided");
        let row = view.rows().next().unwrap();
        assert_eq!(row.vals.len(), 5);
        let bits: Vec<u64> = row.vals.map(f64::to_bits).collect();
        assert_eq!(bits, values.map(f64::to_bits));
        // An elision past the last written value.
        let suffix = CounterValues { set: 0b111, nonzero: 0b011, vals: &row.vals.vals[2..4] };
        let bits: Vec<u64> = suffix.map(f64::to_bits).collect();
        assert_eq!(bits, [5e-324, 1.5, 0.0].map(f64::to_bits));
    }

    #[test]
    fn edge_labels_with_arrow_substrings_do_not_collide() {
        // A state whose label itself contains " -> " used to collide with
        // a two-state transition label under the formatted-string scheme.
        let mut stg = Stg::new();
        let weird = stg.state(StateKey::Site(CallSite("a -> b")));
        let a = stg.state(StateKey::Site(CallSite("a")));
        let b = stg.state(StateKey::Site(CallSite("b")));
        let self_e = stg.transition(weird, weird);
        let ab = stg.transition(a, b);
        let mk = |ins: f64| {
            let mut c = CounterDelta::default();
            c.put(CounterId::TotIns, ins);
            Fragment {
                rank: 0,
                kind: FragmentKind::Computation,
                start: VirtualTime::ZERO,
                end: VirtualTime::from_ns(100),
                counters: c,
                args: vec![],
            }
        };
        stg.attach_edge_fragment(self_e, mk(1.0));
        stg.attach_edge_fragment(ab, mk(2.0));
        let batch = FragmentBatch::from_stg_starting_in(&stg, 0, full_window());
        // Two distinct edge groups survive the roundtrip, keyed by label
        // *pairs*: ("a -> b","a -> b") and ("a","b").
        let back = FragmentBatch::decode(&batch.encode()).unwrap();
        assert_eq!(back, batch);
        assert_eq!(back.edge_groups.len(), 2);
        let ins_of = |from: &str, to: &str| {
            let g = back
                .edge_groups
                .iter()
                .find(|g| back.label(g.from) == from && back.label(g.to) == to)
                .expect("edge group");
            assert_eq!(g.fragments.len(), 1);
            g.fragments[0].counters.get(CounterId::TotIns)
        };
        assert_eq!(ins_of("a -> b", "a -> b"), Some(1.0));
        assert_eq!(ins_of("a", "b"), Some(2.0));
    }
}
