//! Property tests of the columnar wire format: the binary encoding is a
//! lossless bijection on batches, bit for bit (labels with `" -> "`
//! inside, unicode labels, empty windows, `+0.0`/`-0.0`/NaN-payload/
//! subnormal counter values, integral and mixed args, every row at the
//! header rank, `end < start`, timestamps near `u64::MAX`, every column
//! width from 0 to 8 and shape tables past 255 entries), malformed input
//! never panics, and no single-byte change to a valid frame — length
//! prefix, magic, version byte, checksum or payload — decodes.
//! `FragmentBatch::decode` is `FrameView::parse` + `to_batch`, so every
//! property here runs the one parser; one more holds the borrowed view's
//! accessors, and the arena append fed from them, to the owned batch
//! (which also puts that byte-level path, width dispatch included, under
//! `make miri`), one holds the frame checksum to the bit-at-a-time
//! CRC-32, and one golden frame pins the layout byte for byte.

use proptest::prelude::*;
use proptest::prop::collection::vec;
use vapro_core::fragment::{Fragment, FragmentKind};
use vapro_core::wire::{crc32, EdgeGroup, FragmentBatch, FrameView, VertexGroup, WireError};
use vapro_core::{ColumnarPool, IngestArena};
use vapro_pmu::{CounterDelta, CounterId};
use vapro_sim::VirtualTime;

/// Labels exercising the separator ambiguity the dictionary removes,
/// plus unicode and the empty string.
fn label_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        vec(0u8..26, 1..12)
            .prop_map(|ix| ix.into_iter().map(|i| (b'a' + i) as char).collect::<String>()),
        Just("solve -> apply".to_string()),
        Just("a -> b -> c".to_string()),
        Just("поток:MPI_Allreduce".to_string()),
        Just("循环:письмо✓".to_string()),
        Just(String::new()),
        Just(" -> ".to_string()),
    ]
}

fn kind_strategy() -> impl Strategy<Value = FragmentKind> {
    prop_oneof![
        Just(FragmentKind::Computation),
        Just(FragmentKind::Communication),
        Just(FragmentKind::Io),
        Just(FragmentKind::Other),
    ]
}

/// Finite values only: NaN breaks `==` without telling us anything about
/// the codec.
fn finite() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), -1e12f64..1e12]
}

/// A fair coin.
fn coin() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

/// Any value in `0..=max`, `max` itself drawn often enough that the
/// column width it needs is exercised.
fn up_to(max: u64) -> BoxedStrategy<u64> {
    match max {
        0 => Just(0).boxed(),
        _ => prop_oneof![0..max, Just(max)].boxed(),
    }
}

/// Counter values, the ones whose bits the zero elision must tell apart
/// included: `+0.0` (elided), `-0.0`, NaNs with payloads and subnormals.
fn value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        -1e12f64..1e12,
        (1u64..1 << 51, coin())
            .prop_map(|(payload, neg)| {
                f64::from_bits(0x7FF8_0000_0000_0000 | payload | (neg as u64) << 63)
            }),
        (1u64..1 << 52).prop_map(f64::from_bits),
    ]
}

/// How a batch's args are drawn: every arg integral (the frame writes
/// them as unsigned integers, at a width the largest one picks) or
/// mixed with fractions, negatives and `-0.0` (raw `f64`).
#[derive(Debug, Clone, Copy)]
enum Args {
    Integral { width: u32 },
    Mixed,
}

fn args_strategy() -> impl Strategy<Value = Args> {
    prop_oneof![(1u32..9).prop_map(|width| Args::Integral { width }), Just(Args::Mixed)]
}

fn arg_strategy(mode: Args) -> BoxedStrategy<f64> {
    match mode {
        // Integral f64s below 2^(8·width): exact below 2^53, and the
        // powers of two above it are integral too.
        Args::Integral { width } => prop_oneof![
            (0u64..1u64 << (8 * width).min(53)).prop_map(|v| v as f64),
            (0..8 * width).prop_map(|shift| (1u64 << shift) as f64),
        ]
        .boxed(),
        Args::Mixed => {
            prop_oneof![finite(), Just(-0.0), (0u64..1000).prop_map(|v| v as f64)].boxed()
        }
    }
}

/// Where a batch's timestamps lie: offsets below 2^(8·width) over a base,
/// the base anywhere that leaves room for them — up against `u64::MAX`
/// included. Starts and ends are drawn independently, so `end < start`
/// is common.
#[derive(Debug, Clone, Copy)]
struct Times {
    base: u64,
    start_width: u32,
    end_width: u32,
}

fn width_mask(width: u32) -> u64 {
    if width == 8 { u64::MAX } else { (1u64 << (8 * width)) - 1 }
}

fn times_strategy() -> impl Strategy<Value = Times> {
    (0u32..9, 0u32..9, 0.0f64..1.0, coin()).prop_map(|(start_width, end_width, at, top)| {
        let room = u64::MAX - width_mask(start_width.max(end_width));
        let base = if top { room } else { (room as f64 * at) as u64 };
        Times { base, start_width, end_width }
    })
}

fn fragment_strategy(
    rank: Option<usize>,
    times: Times,
    args: Args,
) -> impl Strategy<Value = Fragment> {
    let rank = match rank {
        Some(r) => Just(r).boxed(),
        None => prop_oneof![0usize..64, 0usize..u32::MAX as usize, Just(u32::MAX as usize)].boxed(),
    };
    (
        rank,
        kind_strategy(),
        up_to(width_mask(times.start_width)),
        up_to(width_mask(times.end_width)),
        vec((0usize..CounterId::ALL.len(), value_strategy()), 0..6),
        vec(arg_strategy(args), 0..5),
    )
        .prop_map(move |(rank, kind, start, end, counters, args)| {
            let mut delta = CounterDelta::default();
            for (idx, val) in counters {
                delta.put(CounterId::ALL[idx], val);
            }
            Fragment {
                rank,
                kind,
                start: VirtualTime::from_ns(times.base + start),
                end: VirtualTime::from_ns(times.base + end),
                counters: delta,
                args,
            }
        })
}

/// An arbitrary batch: every group references a valid dictionary id;
/// groups (and the whole batch) may be empty — the "empty window" report.
/// Half the batches put every row at the header rank (rank width 0).
fn batch_strategy() -> impl Strategy<Value = FragmentBatch> {
    (vec(label_strategy(), 1..6), 0usize..1024, coin(), times_strategy(), args_strategy())
        .prop_flat_map(|(labels, rank, header_only, times, args)| {
            let nlabels = labels.len() as u32;
            let frag = move || fragment_strategy(header_only.then_some(rank), times, args);
            (
                Just(labels),
                0u64..1u64 << 32,
                0u64..1u64 << 48,
                vec((0..nlabels, vec(frag(), 0..8)), 0..4),
                vec((0..nlabels, 0..nlabels, vec(frag(), 0..8)), 0..4),
            )
                .prop_map(move |(labels, seq, wstart, vgroups, egroups)| FragmentBatch {
                    rank,
                    seq,
                    tenant_id: (seq >> 16) as u32,
                    job_id: (seq >> 24) as u32,
                    window_start_ns: wstart,
                    window_end_ns: wstart + 1_000_000,
                    labels,
                    vertex_groups: vgroups
                        .into_iter()
                        .map(|(label, fragments)| VertexGroup { label, fragments })
                        .collect(),
                    edge_groups: egroups
                        .into_iter()
                        .map(|(from, to, fragments)| EdgeGroup { from, to, fragments })
                        .collect(),
                })
        })
}

/// A fragment with every float as its bits, so NaN payloads compare.
type Bits = (usize, FragmentKind, u64, u64, Vec<(usize, u64)>, Vec<u64>);

fn bits(f: &Fragment) -> Bits {
    (
        f.rank,
        f.kind,
        f.start.ns(),
        f.end.ns(),
        f.counters.entries().map(|(id, v)| (id.index(), v.to_bits())).collect(),
        f.args.iter().map(|a| a.to_bits()).collect(),
    )
}

/// A batch compared bit for bit: header, dictionary, group heads and
/// every fragment's bits, in wire order.
fn batch_bits(b: &FragmentBatch) -> (String, Vec<Bits>) {
    let heads = (
        b.header(),
        &b.labels,
        b.vertex_groups.iter().map(|g| (g.label, g.fragments.len())).collect::<Vec<_>>(),
        b.edge_groups.iter().map(|g| (g.from, g.to, g.fragments.len())).collect::<Vec<_>>(),
    );
    let fragments = b
        .vertex_groups
        .iter()
        .flat_map(|g| &g.fragments)
        .chain(b.edge_groups.iter().flat_map(|g| &g.fragments));
    (format!("{heads:?}"), fragments.map(bits).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode(encode(b)) == b bit for bit, for arbitrary batches: the
    /// frame carries every field, sequence number and routing stamp
    /// included, at whatever widths, shapes and arg form it picked.
    #[test]
    fn binary_roundtrip_is_identity(batch in batch_strategy()) {
        let bytes = batch.encode();
        let back = FragmentBatch::decode(&bytes).expect("own frame parses");
        prop_assert_eq!(batch_bits(&batch), batch_bits(&back));
        prop_assert_eq!(back.encode(), bytes);
    }

    /// The borrowed view hands out exactly what `decode` materialises —
    /// header, dictionary, group heads, and per row the fixed fields,
    /// the active counter values and the args — and an arena fed from
    /// the view seals what an arena fed the owned batch seals.
    #[test]
    fn frame_view_reads_what_decode_materialises(batch in batch_strategy()) {
        let bytes = batch.encode();
        let view = FrameView::parse(&bytes).expect("own frame parses");
        prop_assert_eq!(view.header(), batch.header());
        prop_assert_eq!((view.len(), view.is_empty()), (batch.len(), batch.is_empty()));
        prop_assert_eq!(view.num_labels(), batch.labels.len());
        prop_assert_eq!(view.labels().collect::<Vec<_>>(), batch.labels.iter().collect::<Vec<_>>());
        prop_assert_eq!(
            view.vertex_heads().collect::<Vec<_>>(),
            batch.vertex_groups.iter().map(|g| (g.label, g.fragments.len())).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            view.edge_heads().collect::<Vec<_>>(),
            batch.edge_groups.iter().map(|g| (g.from, g.to, g.fragments.len())).collect::<Vec<_>>()
        );
        let fragments = batch
            .vertex_groups
            .iter()
            .flat_map(|g| &g.fragments)
            .chain(batch.edge_groups.iter().flat_map(|g| &g.fragments));
        let mut rows = view.rows();
        for f in fragments {
            let row = rows.next().expect("a row per fragment");
            prop_assert_eq!(
                (row.rank as usize, row.kind, row.start_ns, row.end_ns),
                (f.rank, f.kind, f.start.ns(), f.end.ns())
            );
            prop_assert_eq!(row.set, f.counters.set().bits());
            prop_assert_eq!(row.vals.len(), f.counters.entries().count());
            prop_assert_eq!(
                row.vals.map(f64::to_bits).collect::<Vec<_>>(),
                f.counters.entries().map(|(_, v)| v.to_bits()).collect::<Vec<_>>()
            );
            prop_assert_eq!(row.args.len(), f.args.len());
            prop_assert_eq!(
                row.args.map(f64::to_bits).collect::<Vec<_>>(),
                f.args.iter().map(|a| a.to_bits()).collect::<Vec<_>>()
            );
        }
        prop_assert!(rows.next().is_none());

        let (mut byte_fed, mut batch_fed) = (IngestArena::new(), IngestArena::new());
        byte_fed.push_frame(&view);
        batch_fed.push_batch(batch);
        // Compared as text: NaN values print alike where `==` fails; the
        // bits were held row by row above.
        prop_assert_eq!(
            format!("{:?}", ColumnarPool::from_merged(&byte_fed.full_view())),
            format!("{:?}", ColumnarPool::from_merged(&batch_fed.full_view()))
        );
    }

    /// Truncating a valid frame anywhere yields an error, never a panic
    /// and never a silently-wrong batch.
    #[test]
    fn truncation_errors_cleanly(batch in batch_strategy(), cut in 0.0f64..1.0) {
        let bytes = batch.encode();
        let cut = (bytes.len() as f64 * cut) as usize;
        if cut < bytes.len() {
            prop_assert!(FragmentBatch::decode(&bytes[..cut]).is_err());
        }
    }

    /// The frame checksum is the IEEE CRC-32 of its input on every
    /// length up to 16 KiB and at every start offset, whichever kernel
    /// the host runs: checked against the bit-at-a-time definition.
    #[test]
    fn checksum_is_the_bitwise_crc32(
        bytes in vec((0u16..256).prop_map(|b| b as u8), 0..16 << 10),
        offset in 0usize..16,
    ) {
        let bytes = bytes.get(offset..).unwrap_or(&[]);
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        prop_assert_eq!(crc32::checksum(bytes), !crc, "{} bytes", bytes.len());
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn garbage_never_panics(bytes in vec((0u16..256).prop_map(|b| b as u8), 0..256)) {
        let _ = FragmentBatch::decode(&bytes);
    }

    /// Mutating any single byte of a valid frame — no position exempt —
    /// never panics and always returns an error: the length prefix is
    /// checked against the buffer, the magic and the version byte are
    /// each held to one value, and every byte after them is either the
    /// CRC field or covered by it (the routing stamp included). The
    /// version byte is the one position outside both the structural
    /// checks and checksum coverage, so half the cases aim at it: every
    /// flip there is `BadVersion`, never a re-parse under another layout.
    #[test]
    fn byte_mutations_error_cleanly(
        batch in batch_strategy(),
        pos in prop_oneof![(0.0f64..1.0).prop_map(Some), Just(None)],
        mask in 1u16..256,
    ) {
        const VERSION_BYTE: usize = 8;
        let mut bytes = batch.encode();
        let pos = pos.map_or(VERSION_BYTE, |p| ((bytes.len() - 1) as f64 * p) as usize);
        bytes[pos] ^= mask as u8;
        let decoded = FragmentBatch::decode(&bytes);
        prop_assert!(decoded.is_err(), "flip at {} decoded anyway", pos);
        if pos == VERSION_BYTE {
            prop_assert!(
                matches!(decoded, Err(WireError::BadVersion { .. })),
                "version flip rejected as {:?}",
                decoded
            );
        }
    }
}

fn fragment(
    kind: FragmentKind,
    start: u64,
    end: u64,
    counters: &[(CounterId, f64)],
    args: Vec<f64>,
) -> Fragment {
    let mut delta = CounterDelta::default();
    for &(id, v) in counters {
        delta.put(id, v);
    }
    Fragment {
        rank: 1,
        kind,
        start: VirtualTime::from_ns(start),
        end: VirtualTime::from_ns(end),
        counters: delta,
        args,
    }
}

fn one_group_batch(rank: usize, fragments: Vec<Fragment>) -> FragmentBatch {
    FragmentBatch {
        rank,
        seq: 1,
        tenant_id: 0,
        job_id: 0,
        window_start_ns: 0,
        window_end_ns: 1,
        labels: vec!["l".into()],
        vertex_groups: vec![VertexGroup { label: 0, fragments }],
        edge_groups: Vec::new(),
    }
}

#[test]
fn every_column_width_round_trips() {
    // Two rows a width apart, up against u64::MAX: the start and end
    // columns take exactly `width` bytes, the args (a power of two in
    // the top byte) `width` bytes, and a rank column of the widest rank
    // at most 4.
    for width in 0..9u32 {
        let top = width_mask(width);
        let base = u64::MAX - top;
        let args = if width == 0 { vec![] } else { vec![(1u64 << (8 * width - 1)) as f64] };
        let kind = FragmentKind::Communication;
        let fragments = vec![
            fragment(kind, base, base + top, &[], args.clone()),
            fragment(kind, base + top, base, &[], args.clone()),
        ];
        let rank_width = width.clamp(1, 4) as usize;
        let mut ranked = fragments.clone();
        ranked[1].rank = width_mask(rank_width as u32) as usize;
        let header_ranks = (one_group_batch(1, fragments), 0);
        for (batch, rankw) in [header_ranks, (one_group_batch(1, ranked), rank_width)] {
            let bytes = batch.encode();
            let parts = FrameView::parse(&bytes).expect("own frame parses").composition();
            let w = width as usize;
            let rows = 8 + 3 + 2 * (1 + rankw + 2 * w);
            assert_eq!(parts.rows, rows, "width {width}, rank width {rankw}");
            let arg_bytes = if width == 0 { 0 } else { 2 * w };
            assert_eq!(parts.args, 4 + 1 + arg_bytes, "width {width}");
            let back = FragmentBatch::decode(&bytes).expect("own frame parses");
            assert_eq!(batch_bits(&back), batch_bits(&batch), "width {width}");
        }
    }
}

#[test]
fn shape_tables_past_255_entries_round_trip() {
    // 600 distinct shapes: each row its own counter set and kind, so the
    // shape index takes two bytes.
    let kinds = [FragmentKind::Computation, FragmentKind::Communication, FragmentKind::Io];
    let fragments: Vec<Fragment> = (0..600u32)
        .map(|i| {
            let set = (i + 1) as usize;
            let counters: Vec<(CounterId, f64)> = CounterId::ALL
                .into_iter()
                .enumerate()
                .filter(|&(bit, _)| set >> bit & 1 == 1)
                .map(|(bit, id)| (id, bit as f64 + 0.5))
                .collect();
            let start = u64::from(i) * 10;
            fragment(kinds[i as usize % 3], start, start + 5, &counters, vec![f64::from(i % 2)])
        })
        .collect();
    let batch = one_group_batch(1, fragments);
    let bytes = batch.encode();
    let parts = FrameView::parse(&bytes).expect("own frame parses").composition();
    assert_eq!(parts.shapes, 4 + 600 * 11);
    // Shape index (2) + start (2) + end (2) per row.
    assert_eq!(parts.rows, 8 + 3 + 600 * 6);
    let back = FragmentBatch::decode(&bytes).expect("own frame parses");
    assert_eq!(back, batch);
}

#[test]
fn golden_two_group_frame() {
    // One vertex group (an MPI call with one integral arg) and one edge
    // group (a computation whose TSC delta is +0.0, and so not written),
    // every row at the header rank. The layout, pinned byte for byte.
    let comm = fragment(FragmentKind::Communication, 1_000, 1_040, &[], vec![8.0]);
    let counters = [(CounterId::Tsc, 0.0), (CounterId::TotIns, 5.0)];
    let comp = fragment(FragmentKind::Computation, 1_040, 1_300, &counters, vec![]);
    let batch = FragmentBatch {
        rank: 1,
        seq: 2,
        tenant_id: 3,
        job_id: 4,
        window_start_ns: 1_000,
        window_end_ns: 2_000,
        labels: vec!["a".into(), "bc".into()],
        vertex_groups: vec![VertexGroup { label: 1, fragments: vec![comm] }],
        edge_groups: vec![EdgeGroup { from: 0, to: 1, fragments: vec![comp] }],
    };
    let checked: &[&[u8]] = &[
        &[2, 0, 0, 0, 0, 0, 0, 0], // seq
        &[3, 0, 0, 0, 4, 0, 0, 0], // tenant, job
        &[1, 0, 0, 0], // rank
        &[0xE8, 3, 0, 0, 0, 0, 0, 0, 0xD0, 7, 0, 0, 0, 0, 0, 0], // window 1000..2000
        &[2, 0, 0, 0, 1, 1, b'a', 2, b'b', b'c'], // nlabels, lenw, (len, bytes) × 2
        &[1, 0, 0, 0, 1, 0, 0, 0, 1, 1], // nvgroups, negroups, idw, countw
        &[1, 1], // vertex head: label 1, 1 row
        &[0, 1, 1], // edge head: 0 -> 1, 1 row
        &[2, 0, 0, 0], // nshapes
        &[1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0], // communication, no counters, 1 arg
        &[0, 3, 0, 0, 0, 2, 0, 0, 0, 0, 0], // computation, {TSC, TOT_INS}, non-zero {TOT_INS}
        &[0xE8, 3, 0, 0, 0, 0, 0, 0], // base_ns 1000
        &[0, 1, 2], // rankw (header rank), startw, endw
        &[0, 1], // shape indexes
        &[0, 40], // start offsets
        &[40, 0, 0x2C, 1], // end offsets 40, 300
        &[1, 0, 0, 0], // ncvals
        &5.0f64.to_le_bytes(), // TOT_INS
        &[1, 0, 0, 0, 1, 8], // nargs, argw, 8
    ];
    let checked = checked.concat();
    let mut want = Vec::new();
    want.extend_from_slice(&(9 + checked.len() as u32).to_le_bytes());
    want.extend_from_slice(b"VPRW");
    want.push(4);
    want.extend_from_slice(&0xA9AC_3A84u32.to_le_bytes()); // CRC-32 of `checked`
    want.extend_from_slice(&checked);
    let bytes = batch.encode();
    assert_eq!(bytes[9..13], want[9..13], "checksum {:#010x}", crc32::checksum(&checked));
    assert_eq!(bytes, want);
    assert_eq!(FragmentBatch::decode(&bytes).expect("golden frame parses"), batch);
}
