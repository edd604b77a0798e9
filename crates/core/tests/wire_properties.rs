//! Property tests of the columnar wire format: the binary encoding is a
//! lossless bijection on batches (including labels with `" -> "` inside,
//! unicode labels, empty windows and zero-counter fragments), malformed
//! input never panics, and no single-byte change to a valid frame —
//! length prefix, magic, version byte, checksum or payload — decodes.
//! `FragmentBatch::decode` is `FrameView::parse` + `to_batch`, so every
//! property here runs the one parser; one more holds the borrowed view's
//! accessors, and the arena append fed from them, to the owned batch
//! (which also puts that byte-level path under `make miri`), and one
//! holds the frame checksum to the bit-at-a-time CRC-32.

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

fn fragment_strategy() -> impl Strategy<Value = Fragment> {
    (
        0usize..64,
        kind_strategy(),
        0u64..1u64 << 48,
        0u64..1u64 << 20,
        vec((0usize..CounterId::ALL.len(), finite()), 0..6),
        vec(finite(), 0..5),
    )
        .prop_map(|(rank, kind, start, dur, counters, args)| {
            let mut delta = CounterDelta::default();
            for (idx, val) in counters {
                delta.put(CounterId::ALL[idx], val);
            }
            Fragment {
                rank,
                kind,
                start: VirtualTime::from_ns(start),
                end: VirtualTime::from_ns(start + dur),
                counters: delta,
                args,
            }
        })
}

/// An arbitrary batch: every group references a valid dictionary id;
/// groups (and the whole batch) may be empty — the "empty window" report.
fn batch_strategy() -> impl Strategy<Value = FragmentBatch> {
    vec(label_strategy(), 1..6).prop_flat_map(|labels| {
        let nlabels = labels.len() as u32;
        (
            Just(labels),
            0usize..1024,
            0u64..1u64 << 32,
            0u64..1u64 << 48,
            vec((0..nlabels, vec(fragment_strategy(), 0..8)), 0..4),
            vec((0..nlabels, 0..nlabels, vec(fragment_strategy(), 0..8)), 0..4),
        )
            .prop_map(|(labels, rank, seq, wstart, vgroups, egroups)| FragmentBatch {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode(encode_v3(b)) == b, for arbitrary batches: the frame
    /// carries every field, sequence number and routing stamp included.
    #[test]
    fn binary_roundtrip_is_identity(batch in batch_strategy()) {
        let back = FragmentBatch::decode(&batch.encode_v3()).expect("own frame parses");
        prop_assert_eq!(&batch, &back);
    }

    /// The borrowed view hands out exactly what `decode` materialises —
    /// header, dictionary, group heads, and per row the fixed fields,
    /// the active counter values and the args — and an arena fed from
    /// the view seals what an arena fed the owned batch seals.
    #[test]
    fn frame_view_reads_what_decode_materialises(batch in batch_strategy()) {
        let bytes = batch.encode_v3();
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
            prop_assert_eq!(
                row.vals.iter().map(|v| f64::from_le_bytes(*v)).collect::<Vec<_>>(),
                f.counters.entries().map(|(_, v)| v).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                &row.args.iter().map(|a| f64::from_le_bytes(*a)).collect::<Vec<_>>(),
                &f.args
            );
        }
        prop_assert!(rows.next().is_none());

        let (mut byte_fed, mut batch_fed) = (IngestArena::new(), IngestArena::new());
        byte_fed.push_frame(&view);
        batch_fed.push_batch(batch);
        prop_assert_eq!(
            ColumnarPool::from_merged(&byte_fed.full_view()),
            ColumnarPool::from_merged(&batch_fed.full_view())
        );
    }

    /// Truncating a valid frame anywhere yields an error, never a panic
    /// and never a silently-wrong batch.
    #[test]
    fn truncation_errors_cleanly(batch in batch_strategy(), cut in 0.0f64..1.0) {
        let bytes = batch.encode_v3();
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
        let mut bytes = batch.encode_v3();
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
