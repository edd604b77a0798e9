//! Short copies of all four workloads through the real program: every
//! frame's outcome matches the plan, every expected window closes in
//! order, and the inline, pipelined, open-loop and shadow passes agree
//! window by window.

use vapro_benchmark::drive::{
    close_latencies_ms, failed_frames, failed_windows, run_pass, score_planted, shadow_replay,
    PassMode,
};
use vapro_benchmark::gen::{generate, params, Params, WORKLOADS};

#[test]
fn every_pass_of_every_workload_verifies() {
    for name in WORKLOADS {
        let p = Params {
            periods: 50,
            ..params(name).expect("known workload")
        };
        let stream = generate(&p, 11);
        let inline = run_pass(
            &stream,
            PassMode {
                inline: true,
                ..PassMode::default()
            },
        );
        assert_eq!(failed_frames(&stream, &inline), 0, "{name}: inline frames");
        assert_eq!(
            failed_windows(&stream, &inline.windows, None, true),
            0,
            "{name}: inline cover"
        );

        let reference = Some(inline.windows.as_slice());
        let pipelined = run_pass(&stream, PassMode::default());
        assert_eq!(
            failed_frames(&stream, &pipelined),
            0,
            "{name}: pipelined frames"
        );
        assert_eq!(
            failed_windows(&stream, &pipelined.windows, reference, true),
            0,
            "{name}: pipelined"
        );

        // Far above any sustainable rate: only ordering and clocks matter.
        let open = run_pass(
            &stream,
            PassMode {
                rate: Some(1e7),
                ..PassMode::default()
            },
        );
        assert_eq!(
            failed_windows(&stream, &open.windows, reference, true),
            0,
            "{name}: open loop"
        );
        assert_eq!(
            close_latencies_ms(&stream, &open, 1e7).len(),
            stream.expected_windows()
        );

        let shadow = shadow_replay(&stream, &inline);
        assert_eq!(
            failed_windows(&stream, &shadow.windows, reference, false),
            0,
            "{name}: shadow"
        );
        assert_eq!(
            shadow.counts.probe_mismatches, 0,
            "{name}: sub-layer probes"
        );

        let (recall, false_per_kwin, regions) = score_planted(&stream, &inline.windows);
        assert!(recall >= 0.9, "{name}: recall {recall}");
        assert_eq!(false_per_kwin, 0.0, "{name}: false regions");
        assert_eq!(
            regions == 0,
            stream.rects.is_empty(),
            "{name}: regions iff planted"
        );
    }
}
