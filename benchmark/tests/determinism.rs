//! The generator is seeded and program-blind: the same seed gives
//! byte-identical frames and an identical fault plan, a different seed
//! gives different ones; and `BENCHMARK.json` lists exactly the
//! workloads and metrics this crate reports.

use vapro_benchmark::bench::{END_TO_END, PER_LAYER};
use vapro_benchmark::gen::{generate, params, FrameKind, Params, WORKLOADS};

/// A short copy of a workload, so the debug-build test stays quick.
fn short(name: &str) -> Params {
    Params {
        periods: 60,
        ..params(name).expect("known workload")
    }
}

#[test]
fn same_seed_same_bytes_and_plan_different_seed_different() {
    for name in WORKLOADS {
        let p = short(name);
        let (a, b, c) = (generate(&p, 7), generate(&p, 7), generate(&p, 8));
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{name}: same seed must repeat"
        );
        assert_eq!(a.frames.len(), b.frames.len());
        assert!(a
            .frames
            .iter()
            .zip(&b.frames)
            .all(|(x, y)| x.bytes == y.bytes && x.kind == y.kind));
        assert_eq!(a.due_frame, b.due_frame);
        assert_eq!(a.rects, b.rects);
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "{name}: another seed must differ"
        );
    }
}

#[test]
fn the_plan_holds_what_each_workload_promises() {
    let count = |s: &vapro_benchmark::gen::Stream, k: FrameKind| {
        s.frames.iter().filter(|f| f.kind == k).count()
    };

    let quiet = generate(&short("stream_quiet"), 1);
    assert!(quiet.rects.is_empty());
    assert_eq!(count(&quiet, FrameKind::Clean), quiet.frames.len());
    // 60 periods of half-overlapped windows, the last one due at finish.
    assert_eq!(quiet.due_frame[0].len(), 120);
    assert_eq!(quiet.due_frame[0].iter().filter(|d| d.is_none()).count(), 1);
    assert!(quiet.due_frame[0].windows(2).all(|w| match (w[0], w[1]) {
        (Some(a), Some(b)) => a <= b,
        (Some(_), None) => true,
        (None, _) => false,
    }));

    let faulty = generate(&short("stream_faulty"), 1);
    assert!(count(&faulty, FrameKind::Duplicate) > 0);
    assert!(count(&faulty, FrameKind::Corrupt) > 0);
    let silent = faulty.silent_rank.expect("a silent rank");
    let sent = faulty
        .frames
        .iter()
        .filter(|f| f.rank == silent && f.kind == FrameKind::Clean)
        .count();
    assert_eq!(sent, 60 - 18, "the silent rank skips periods 24..42");
    // Every corrupt frame is followed at once by its clean retransmit.
    for (i, f) in faulty
        .frames
        .iter()
        .enumerate()
        .filter(|(_, f)| f.kind == FrameKind::Corrupt)
    {
        let next = &faulty.frames[i + 1];
        assert_eq!((next.kind, next.rank), (FrameKind::Clean, f.rank));
        assert_ne!(next.bytes, f.bytes);
    }

    let fleet = generate(&short("fleet_small"), 1);
    assert_eq!(fleet.jobs.len(), 12);
    assert_eq!(fleet.tenants.len(), 3);
    assert_eq!(
        count(&fleet, FrameKind::Burst),
        2,
        "bursts at periods 0 and 50"
    );
    let budget = fleet.tenants[0].1;
    assert!(fleet
        .frames
        .iter()
        .all(|f| (f.kind == FrameKind::Burst) == (f.bytes.len() as u64 > budget)));
}

#[test]
fn benchmark_json_matches_the_tables() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repository root");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<String> {
        json.get(key)
            .and_then(|v| v.as_array())
            .expect("a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("a name")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.0));
    assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.0));
    for (entry, (_, unit, better, bound)) in json
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .expect("a list")
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(unit));
        assert_eq!(
            entry.get("better").and_then(|u| u.as_str()),
            Some(better.as_str())
        );
        assert_eq!(entry.get("bound").and_then(|u| u.as_f64()), Some(bound));
    }
}
