//! The client → server wire format (paper Fig. 8 / §5: clients ship
//! performance data to dedicated analysis servers each reporting period).
//!
//! A [`FragmentBatch`] is what one rank sends for one reporting period:
//! its rank id, the window bounds, a **label dictionary** (each distinct
//! state label appears once, referenced by dense `u32` id — reusing the
//! [`SymbolTable`] interner), and the fragments grouped per STG location.
//! Edges are `(from, to)` id pairs, so a state label containing `" -> "`
//! can never collide with a transition label.
//!
//! There is one serialisation, [`FragmentBatch::encode_v3`]: a compact
//! **columnar (SoA) binary layout** with length-prefixed framing (see
//! the module constants and `DESIGN.md` §“Wire format”). Fragments are
//! written as contiguous columns (ranks, kinds, starts, ends, counter
//! sets, counter values, argument vectors), which is both several times
//! smaller and several times faster to decode than a self-describing
//! encoding such as JSON.
//!
//! ```text
//! frame   := payload_len:u32 payload
//! payload := magic "VPRW" | version:u8 (=3)
//!          | crc32:u32             -- IEEE CRC-32 of every payload byte
//!          | seq:u64                  after the crc field (0 = unsequenced)
//!          | tenant_id:u32 | job_id:u32   -- fleet routing stamp
//!          | rank:u32 | window_start_ns:u64 | window_end_ns:u64
//!          | nlabels:u32 | nlabels × (len:u32, utf-8 bytes)
//!          | nvgroups:u32 | nvgroups × (label:u32, count:u32)
//!          | negroups:u32 | negroups × (from:u32, to:u32, count:u32)
//!          | nfrags:u32            -- Σ counts, vertex groups then edge
//!          | ranks:   nfrags × u32    groups, fragments in group order
//!          | kinds:   nfrags × u8
//!          | starts:  nfrags × u64
//!          | ends:    nfrags × u64
//!          | csets:   nfrags × u32    -- CounterSet bitmask over ALL
//!          | ncvals:u32 | cvals: ncvals × f64   -- active counters only
//!          | nargcs:  nfrags × u16
//!          | nargs:u32  | args:  nargs × f64
//! ```
//!
//! All integers and floats are little-endian.
//!
//! **Decoding.** There is one parser, [`FrameView::parse`]: it makes every
//! check a frame can fail *before handing anything out* and returns a
//! view that borrows the header, the label table, the group heads and
//! the eight columns from the frame's own bytes. The server appends
//! rows to its arena straight from that view; [`FragmentBatch::decode`]
//! is `parse(bytes)?.to_batch()`, the owned form clients, tests and
//! tools work with.
//!
//! **Integrity.** Each frame carries an IEEE CRC-32 over everything
//! after the checksum field, so a bit-flipped frame is rejected as
//! [`WireError::BadChecksum`] instead of being misparsed, plus a per-rank
//! monotonic sequence number so the server can deduplicate retransmitted
//! batches and detect gaps left by dropped frames. Sequence `0` means
//! "unsequenced": the frame opts out of duplicate/gap tracking. The
//! magic and the version byte sit *before* the checksum field and are
//! **validated, not checksummed**: the decoder accepts exactly one value
//! for each ([`WIRE_MAGIC`], [`WIRE_VERSION`]) and rejects anything else
//! as [`WireError::BadMagic`] / [`WireError::BadVersion`], so no
//! single-byte change anywhere in a frame can decode.

use crate::detect::window::Window;
use crate::fragment::{Fragment, FragmentKind};
use crate::intern::{Sym, SymbolTable};
use crate::stg::Stg;
use std::fmt;
use vapro_pmu::{CounterDelta, CounterSet};
use vapro_sim::VirtualTime;

/// Frame magic: identifies a Vapro wire payload.
pub const WIRE_MAGIC: [u8; 4] = *b"VPRW";
/// The one wire-format version byte this codec writes and accepts:
/// CRC-32, sequence number and `(tenant_id, job_id)` routing stamp.
pub const WIRE_VERSION: u8 = 3;
/// The sequence number meaning "unsequenced": the sender opted out of
/// duplicate and gap tracking.
pub const SEQ_UNSEQUENCED: u64 = 0;
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
    /// Per-rank monotonic sequence number; [`SEQ_UNSEQUENCED`] (0) opts
    /// out of duplicate/gap tracking. Sequenced senders start at 1.
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
    /// Per-rank sequence number ([`SEQ_UNSEQUENCED`] opts out).
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
    /// Column lengths disagree with the group counts.
    CountMismatch,
    /// Bytes left over after a single-frame decode.
    TrailingBytes,
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

fn counter_set_bits(c: &CounterDelta) -> u32 {
    let mut bits = 0u32;
    for (id, _) in c.entries() {
        bits |= 1 << id.index();
    }
    bits
}

/// Exact wire cost of one fragment record in the columnar layout:
/// rank (4) + kind (1) + start (8) + end (8) + counter set (4) +
/// 8 bytes per active counter + arg count (2) + 8 bytes per argument.
/// This is what the collector's storage-overhead accounting charges per
/// recorded fragment (the framing, header and dictionary amortise to
/// noise over a reporting period).
pub fn fragment_wire_bytes(f: &Fragment) -> u64 {
    let counters = f.counters.entries().count() as u64;
    4 + 1 + 8 + 8 + 4 + 8 * counters + 2 + 8 * f.args.len() as u64
}

/// Every fragment record occupies at least rank (4) + kind (1) +
/// start (8) + end (8) + counter set (4) + arg count (2) bytes in the
/// column section; the decoder's anti-OOM guard sizes claimed counts
/// against this floor.
const MIN_BYTES_PER_FRAG: u64 = 4 + 1 + 8 + 8 + 4 + 2;

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

impl FragmentBatch {
    /// Extract a rank's batch for `window` from its STG: every fragment
    /// *overlapping* the window. Used for one-shot analyses; periodic
    /// shipping should use [`FragmentBatch::from_stg_starting_in`] so
    /// consecutive batches partition the fragments.
    pub fn from_stg(stg: &Stg, rank: usize, window: Window) -> FragmentBatch {
        Self::from_stg_filtered(stg, rank, window, |f| window.overlaps(f.start, f.end))
    }

    /// Extract the batch a client ships for one reporting period: the
    /// fragments whose *start* lies in `[window.start, window.end)`.
    /// Unlike [`FragmentBatch::from_stg`], consecutive periods partition
    /// the fragment population — nothing is shipped twice.
    pub fn from_stg_starting_in(stg: &Stg, rank: usize, window: Window) -> FragmentBatch {
        Self::from_stg_filtered(stg, rank, window, |f| {
            f.start >= window.start && f.start < window.end
        })
    }

    fn from_stg_filtered(
        stg: &Stg,
        rank: usize,
        window: Window,
        keep: impl Fn(&Fragment) -> bool,
    ) -> FragmentBatch {
        let mut dict: SymbolTable<String> = SymbolTable::new();
        // Lazily intern vertex labels: only states that actually appear
        // (as a non-empty vertex or an edge endpoint) enter the dictionary.
        let mut syms: Vec<Option<Sym>> = vec![None; stg.num_states()];
        let mut sym_of = |state: usize, dict: &mut SymbolTable<String>| -> Sym {
            if let Some(s) = syms[state] {
                return s;
            }
            let s = dict.intern(stg.vertices()[state].key.label());
            syms[state] = Some(s);
            s
        };
        let mut vertex_groups = Vec::with_capacity(stg.vertices().len());
        for (id, v) in stg.vertices().iter().enumerate() {
            let fragments: Vec<Fragment> = v
                .fragments
                .iter()
                .filter(|f| keep(f))
                .cloned()
                .collect();
            if !fragments.is_empty() {
                let label = sym_of(id, &mut dict);
                vertex_groups.push(VertexGroup { label, fragments });
            }
        }
        let mut edge_groups = Vec::with_capacity(stg.edges().len());
        for e in stg.edges() {
            let fragments: Vec<Fragment> = e
                .fragments
                .iter()
                .filter(|f| keep(f))
                .cloned()
                .collect();
            if !fragments.is_empty() {
                let from = sym_of(e.from, &mut dict);
                let to = sym_of(e.to, &mut dict);
                edge_groups.push(EdgeGroup { from, to, fragments });
            }
        }
        FragmentBatch {
            rank,
            seq: SEQ_UNSEQUENCED,
            tenant_id: DEFAULT_TENANT,
            job_id: DEFAULT_JOB,
            window_start_ns: window.start.ns(),
            window_end_ns: window.end.ns(),
            labels: dict.into_keys(),
            vertex_groups,
            edge_groups,
        }
    }

    /// Stamp the batch with a sequence number (builder style). Sequenced
    /// senders number their frames 1, 2, 3, … per rank; `0` keeps the
    /// batch unsequenced.
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

    pub(crate) fn fragments(&self) -> impl Iterator<Item = &Fragment> {
        self.vertex_groups
            .iter()
            .flat_map(|g| g.fragments.iter())
            .chain(self.edge_groups.iter().flat_map(|g| g.fragments.iter()))
    }

    /// Append one length-prefixed binary frame to `out`. This is the
    /// allocation-lean streaming entry point: the caller reuses one
    /// buffer across batches.
    pub fn encode_into_v3(&self, out: &mut Vec<u8>) {
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

    /// Serialise to one length-prefixed binary frame (see
    /// [`FragmentBatch::encode_into_v3`]).
    pub fn encode_v3(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.len() * 40);
        self.encode_into_v3(&mut out);
        out
    }

    /// The payload body after the header: rank, window bounds, label
    /// dictionary, group heads and fragment columns.
    fn encode_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&u32::try_from(self.rank).expect("rank fits u32").to_le_bytes());
        out.extend_from_slice(&self.window_start_ns.to_le_bytes());
        out.extend_from_slice(&self.window_end_ns.to_le_bytes());

        out.extend_from_slice(
            &u32::try_from(self.labels.len()).expect("dictionary fits u32").to_le_bytes(),
        );
        for label in &self.labels {
            let bytes = label.as_bytes();
            out.extend_from_slice(
                &u32::try_from(bytes.len()).expect("label fits u32").to_le_bytes(),
            );
            out.extend_from_slice(bytes);
        }

        out.extend_from_slice(
            &u32::try_from(self.vertex_groups.len()).expect("groups fit u32").to_le_bytes(),
        );
        for g in &self.vertex_groups {
            out.extend_from_slice(&g.label.to_le_bytes());
            out.extend_from_slice(
                &u32::try_from(g.fragments.len()).expect("pool fits u32").to_le_bytes(),
            );
        }
        out.extend_from_slice(
            &u32::try_from(self.edge_groups.len()).expect("groups fit u32").to_le_bytes(),
        );
        for g in &self.edge_groups {
            out.extend_from_slice(&g.from.to_le_bytes());
            out.extend_from_slice(&g.to.to_le_bytes());
            out.extend_from_slice(
                &u32::try_from(g.fragments.len()).expect("pool fits u32").to_le_bytes(),
            );
        }

        let nfrags = self.len();
        out.extend_from_slice(&u32::try_from(nfrags).expect("batch fits u32").to_le_bytes());
        // Columns. Each pass walks the fragments in group order, so the
        // column offsets line up on decode without any per-fragment index.
        for f in self.fragments() {
            out.extend_from_slice(
                &u32::try_from(f.rank).expect("rank fits u32").to_le_bytes(),
            );
        }
        out.extend(self.fragments().map(|f| kind_to_byte(f.kind)));
        for f in self.fragments() {
            out.extend_from_slice(&f.start.ns().to_le_bytes());
        }
        for f in self.fragments() {
            out.extend_from_slice(&f.end.ns().to_le_bytes());
        }
        for f in self.fragments() {
            out.extend_from_slice(&counter_set_bits(&f.counters).to_le_bytes());
        }
        let ncvals: usize = self.fragments().map(|f| f.counters.entries().count()).sum();
        out.extend_from_slice(&u32::try_from(ncvals).expect("values fit u32").to_le_bytes());
        for f in self.fragments() {
            for (_, v) in f.counters.entries() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        for f in self.fragments() {
            out.extend_from_slice(
                &u16::try_from(f.args.len()).expect("at most 65535 args").to_le_bytes(),
            );
        }
        let nargs: usize = self.fragments().map(|f| f.args.len()).sum();
        out.extend_from_slice(&u32::try_from(nargs).expect("args fit u32").to_le_bytes());
        for f in self.fragments() {
            for a in &f.args {
                out.extend_from_slice(&a.to_le_bytes());
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
/// decoded, the two variable-length payloads still little-endian bytes.
#[derive(Debug, Clone, Copy)]
pub struct WireRow<'a> {
    /// Originating rank (the column's, not the header's).
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
    /// index.
    pub vals: &'a [[u8; 8]],
    /// The invocation arguments.
    pub args: &'a [[u8; 8]],
}

/// The fragment columns of a validated frame, read front to back: one
/// [`WireRow`] per fragment, vertex groups' then edge groups', in group
/// order.
#[derive(Debug, Clone, Copy)]
pub struct FrameRows<'a> {
    ranks: &'a [[u8; 4]],
    kinds: &'a [u8],
    starts: &'a [[u8; 8]],
    ends: &'a [[u8; 8]],
    csets: &'a [[u8; 4]],
    cvals: &'a [[u8; 8]],
    argcs: &'a [[u8; 2]],
    args: &'a [[u8; 8]],
}

impl<'a> Iterator for FrameRows<'a> {
    type Item = WireRow<'a>;

    /// `None` once the shortest column is spent — for the rows of a
    /// [`FrameView`], whose column lengths were checked against each
    /// other, after exactly `len()` rows.
    fn next(&mut self) -> Option<WireRow<'a>> {
        let (rank, ranks) = self.ranks.split_first()?;
        let (kind, kinds) = self.kinds.split_first()?;
        let (start, starts) = self.starts.split_first()?;
        let (end, ends) = self.ends.split_first()?;
        let (cset, csets) = self.csets.split_first()?;
        let (argc, argcs) = self.argcs.split_first()?;
        let set = u32::from_le_bytes(*cset);
        let (vals, cvals) = self.cvals.split_at_checked(set.count_ones() as usize)?;
        let (args, rest) = self.args.split_at_checked(u16::from_le_bytes(*argc) as usize)?;
        let kind = kind_from_byte(*kind).ok()?;
        *self = FrameRows { ranks, kinds, starts, ends, csets, cvals, argcs, args: rest };
        Some(WireRow {
            rank: u32::from_le_bytes(*rank),
            kind,
            start_ns: u64::from_le_bytes(*start),
            end_ns: u64::from_le_bytes(*end),
            set,
            vals,
            args,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.ranks.len(), Some(self.ranks.len()))
    }
}

impl ExactSizeIterator for FrameRows<'_> {}

/// A validated frame, borrowed: header decoded, label table, group
/// heads and fragment columns still the frame's own bytes. Holding one
/// is proof the frame passed every check [`FrameView::parse`] makes, so
/// its accessors cannot fail — they are total all the same, and run dry
/// rather than panic on a view nobody validated.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    header: FrameHeader,
    nlabels: usize,
    /// `nlabels × (len:u32, utf-8 bytes)`.
    labels: &'a [u8],
    /// `(label:u32, count:u32)` per vertex group.
    vheads: &'a [[u8; 8]],
    /// `(from:u32, to:u32, count:u32)` per edge group.
    eheads: &'a [[u8; 12]],
    rows: FrameRows<'a>,
}

impl<'a> FrameView<'a> {
    /// Validate exactly one binary frame; trailing bytes are an error.
    ///
    /// This is the one parser, and the ingest-facing entry point (solo
    /// and fleet admission both come through here), so it is where wire
    /// rejections register as VOPR fault points: corrupt (checksum) and
    /// structural (everything else) rejects are counted separately.
    pub fn parse(bytes: &'a [u8]) -> Result<FrameView<'a>, WireError> {
        use crate::vopr::fault_points::{hit, FaultPoint};
        let parsed = Self::parse_frame(bytes);
        if let Err(e) = &parsed {
            hit(match e {
                WireError::BadChecksum { .. } => FaultPoint::WireCorruptReject,
                _ => FaultPoint::WireStructuralReject,
            });
        }
        parsed
    }

    /// Every check a frame can fail, in wire order; nothing is handed
    /// out until the last one has passed. The length prefix must fit the
    /// buffer and the buffer must end where the frame does.
    fn parse_frame(bytes: &'a [u8]) -> Result<FrameView<'a>, WireError> {
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
        let table = r.buf;
        for _ in 0..nlabels {
            let len = r.u32()? as usize;
            std::str::from_utf8(r.take(len)?).map_err(|_| WireError::BadUtf8)?;
        }
        let labels = r.since(table);
        let check_label = |id: Sym| {
            if (id as usize) < nlabels {
                Ok(id)
            } else {
                Err(WireError::BadLabelId(id))
            }
        };

        let nvgroups = r.u32()? as usize;
        let table = r.buf;
        let mut grouped = 0usize;
        for _ in 0..nvgroups {
            check_label(r.u32()?)?;
            grouped = grouped.saturating_add(r.u32()? as usize);
        }
        let vheads = r.since(table).as_chunks::<8>().0;
        let negroups = r.u32()? as usize;
        let table = r.buf;
        for _ in 0..negroups {
            check_label(r.u32()?)?;
            check_label(r.u32()?)?;
            grouped = grouped.saturating_add(r.u32()? as usize);
        }
        let eheads = r.since(table).as_chunks::<12>().0;

        let nfrags = r.u32()? as usize;
        if nfrags != grouped {
            return Err(WireError::CountMismatch);
        }
        // A claimed count the buffer cannot possibly hold is refused
        // here, as the materialising decoder always refused it before
        // sizing a column: a tiny frame claiming ~4 billion fragments is
        // `Truncated`, whatever its later fields say.
        if (nfrags as u64).saturating_mul(MIN_BYTES_PER_FRAG) > r.buf.len() as u64 {
            return Err(WireError::Truncated);
        }

        // Columns, in layout order.
        let ranks = r.column::<4>(nfrags)?;
        let kinds = r.take(nfrags)?;
        for &b in kinds {
            kind_from_byte(b)?;
        }
        let starts = r.column::<8>(nfrags)?;
        let ends = r.column::<8>(nfrags)?;
        let csets = r.column::<4>(nfrags)?;
        let ncvals = r.u32()? as usize;
        let mut carried = 0usize;
        for cset in csets {
            let bits = u32::from_le_bytes(*cset);
            // A bit no counter owns would carry a value no reader takes.
            if CounterSet::from_bits(bits).bits() != bits {
                return Err(WireError::CountMismatch);
            }
            carried = carried.saturating_add(bits.count_ones() as usize);
        }
        if ncvals != carried {
            return Err(WireError::CountMismatch);
        }
        let cvals = r.column::<8>(ncvals)?;
        let argcs = r.column::<2>(nfrags)?;
        let nargs = r.u32()? as usize;
        let argc_sum = argcs
            .iter()
            .fold(0usize, |sum, argc| sum.saturating_add(u16::from_le_bytes(*argc) as usize));
        if nargs != argc_sum {
            return Err(WireError::CountMismatch);
        }
        let args = r.column::<8>(nargs)?;
        if !r.buf.is_empty() || declared != bytes.len() {
            return Err(WireError::TrailingBytes);
        }

        Ok(FrameView {
            header,
            nlabels,
            labels,
            vheads,
            eheads,
            rows: FrameRows { ranks, kinds, starts, ends, csets, cvals, argcs, args },
        })
    }

    /// The header admission reads.
    pub fn header(&self) -> FrameHeader {
        self.header
    }

    /// Total fragments in the frame.
    pub fn len(&self) -> usize {
        self.rows.ranks.len()
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
        let mut r = Reader { buf: self.labels };
        (0..self.nlabels).map_while(move |_| {
            let len = r.u32().ok()? as usize;
            std::str::from_utf8(r.take(len).ok()?).ok()
        })
    }

    /// `(label, fragment count)` of each vertex group, in wire order.
    pub fn vertex_heads(&self) -> impl Iterator<Item = (Sym, usize)> + 'a {
        self.vheads.iter().filter_map(|head| {
            let (label, count) = head.split_first_chunk::<4>()?;
            Some((u32::from_le_bytes(*label), u32::from_le_bytes(*count.first_chunk()?) as usize))
        })
    }

    /// `(from, to, fragment count)` of each edge group, in wire order.
    pub fn edge_heads(&self) -> impl Iterator<Item = (Sym, Sym, usize)> + 'a {
        self.eheads.iter().filter_map(|head| {
            let (from, rest) = head.split_first_chunk::<4>()?;
            let (to, count) = rest.split_first_chunk::<4>()?;
            Some((
                u32::from_le_bytes(*from),
                u32::from_le_bytes(*to),
                u32::from_le_bytes(*count.first_chunk()?) as usize,
            ))
        })
    }

    /// The fragment rows: the vertex groups' then the edge groups', each
    /// group's `count` rows in a run.
    pub fn rows(&self) -> FrameRows<'a> {
        self.rows
    }

    /// Materialise the owned batch: the allocating half of
    /// [`FragmentBatch::decode`], which the server's ingest path does
    /// not run.
    pub fn to_batch(&self) -> FragmentBatch {
        let mut fragments = self.rows().map(|row| {
            let mut counters = CounterDelta::default();
            for (id, v) in CounterSet::from_bits(row.set).iter().zip(row.vals) {
                counters.put(id, f64::from_le_bytes(*v));
            }
            Fragment {
                rank: row.rank as usize,
                kind: row.kind,
                start: VirtualTime::from_ns(row.start_ns),
                end: VirtualTime::from_ns(row.end_ns),
                counters,
                args: row.args.iter().map(|a| f64::from_le_bytes(*a)).collect(),
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
    fn batch_extraction_respects_the_window() {
        let stg = sample_stg(3);
        let all = FragmentBatch::from_stg(&stg, 3, full_window());
        assert_eq!(all.len(), 20);
        let half = FragmentBatch::from_stg(
            &stg,
            3,
            Window { start: VirtualTime::ZERO, end: VirtualTime::from_ns(1000) },
        );
        assert!(half.len() < all.len());
        assert!(!half.is_empty());
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
        // The overlap extraction, by contrast, double-ships the fragment
        // straddling the boundary.
        let o1 = FragmentBatch::from_stg(&stg, 0, w1);
        let o2 = FragmentBatch::from_stg(&stg, 0, w2);
        assert!(o1.len() + o2.len() > stg.total_fragments());
    }

    /// The sample frame every codec test mutates: rank 2, sequence 7,
    /// routed to tenant 5 / job 6.
    fn stamped_batch() -> FragmentBatch {
        FragmentBatch::from_stg(&sample_stg(2), 2, full_window()).with_seq(7).with_job(5, 6)
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let batch = FragmentBatch::from_stg(&sample_stg(1), 1, full_window());
        assert_eq!((batch.seq, batch.tenant_id, batch.job_id), (0, DEFAULT_TENANT, DEFAULT_JOB));
        let bytes = batch.encode_v3();
        assert_eq!(bytes[8], WIRE_VERSION);
        assert_eq!(FragmentBatch::decode(&bytes).unwrap(), batch);
        // Sequence number and routing stamp ride in the header.
        let stamped = batch.with_seq(u64::MAX).with_job(7, u32::MAX);
        let back = FragmentBatch::decode(&stamped.encode_v3()).unwrap();
        assert_eq!((back.seq, back.tenant_id, back.job_id), (u64::MAX, 7, u32::MAX));
        assert_eq!(back, stamped);
    }

    #[test]
    fn binary_framing_overhead_is_small() {
        // The frame costs the §6.2 per-record accounting plus a fixed
        // header and dictionary, not a per-fragment tax.
        let batch = FragmentBatch::from_stg(&sample_stg(1), 1, full_window());
        let accounted: u64 = batch.fragments().map(fragment_wire_bytes).sum();
        let overhead = batch.encode_v3().len() as u64 - accounted;
        assert!(overhead < 200, "fixed overhead {overhead} B");
    }

    #[test]
    fn malformed_frames_error_instead_of_panicking() {
        assert_eq!(
            FragmentBatch::decode(&[]).unwrap_err(),
            WireError::ShortFrame { declared: 4, available: 0 }
        );
        let clean = stamped_batch().encode_v3();
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
        // must hold it to one value: the retired layouts 1 and 2, a
        // single-bit flip of 3, and everything else are `BadVersion` —
        // counted as such by the ingest stats and as a structural reject
        // by the VOPR fault-point registry.
        use crate::vopr::fault_points::{snapshot, FaultPoint};
        let structural_hits = || snapshot()[FaultPoint::WireStructuralReject as usize];
        let clean = stamped_batch().encode_v3();
        let mut stats = crate::detect::admission::IngestStats::default();
        let before = structural_hits();
        for got in (0..=u8::MAX).filter(|&v| v != WIRE_VERSION) {
            let mut bytes = clean.clone();
            bytes[8] = got;
            let err = FragmentBatch::decode(&bytes).unwrap_err();
            assert_eq!(err, WireError::BadVersion { got, supported: WIRE_VERSION });
            stats.count_decode_error(&err);
        }
        assert_eq!(stats.bad_version_frames, 255);
        assert_eq!(stats.frames_rejected(), 255);
        // Other tests bump the process-wide counter too: at least ours.
        assert!(structural_hits() >= before + 255);
    }

    #[test]
    fn corrupted_payload_bytes_fail_the_checksum_with_attribution() {
        let batch = stamped_batch();
        let clean = batch.encode_v3();
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
        assert!(msg.contains('9') && msg.contains('3'), "{msg}");
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
        checked.extend_from_slice(&1u32.to_le_bytes()); // label length
        checked.push(b'a');
        checked.extend_from_slice(&1u32.to_le_bytes()); // nvgroups
        checked.extend_from_slice(&0u32.to_le_bytes()); // group label id
        checked.extend_from_slice(&u32::MAX.to_le_bytes()); // claimed pool size
        checked.extend_from_slice(&0u32.to_le_bytes()); // negroups
        checked.extend_from_slice(&u32::MAX.to_le_bytes()); // nfrags

        let mut payload = Vec::new();
        payload.extend_from_slice(&WIRE_MAGIC);
        payload.push(WIRE_VERSION);
        payload.extend_from_slice(&crc32::checksum(&checked).to_le_bytes());
        payload.extend_from_slice(&checked);
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        frame.extend_from_slice(&payload);
        assert_eq!(FragmentBatch::decode(&frame).unwrap_err(), WireError::Truncated);
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
        let batch = FragmentBatch::from_stg(&stg, 0, full_window());
        // Two distinct edge groups survive the roundtrip, keyed by label
        // *pairs*: ("a -> b","a -> b") and ("a","b").
        let back = FragmentBatch::decode(&batch.encode_v3()).unwrap();
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
