//! An estimator that can fail: plant a calibrated busy-spin in the
//! benchmark's own wrapper around one layer and require that `compare`
//! flags `frags_per_s` on the workload the interaction table predicts,
//! that the shadow table localises the spin to that layer, and that the
//! bypass workload does not move.

use crate::bench::WorkloadResult;
use crate::drive::{run_pass, shadow_replay, Pass, PassMode};
use crate::gen::{self, Stream};
use crate::layers::{plant_spin, SpinLayer};
use crate::report;
use crate::trace::{median, SPAN_NAMES};

/// The interaction table's rows for the spin-capable layers: the
/// workload whose `frags_per_s` must move and the one that must not.
pub fn prediction(layer: SpinLayer) -> (&'static str, Option<&'static str>) {
    match layer {
        SpinLayer::Wire => ("stream_quiet", None),
        SpinLayer::Region | SpinLayer::Diagnose => ("stream_noisy", Some("stream_quiet")),
    }
}

/// Spin units one closed-loop pass holds, from its window facts.
fn units(stream: &Stream, pass: &Pass, layer: SpinLayer) -> u64 {
    match layer {
        SpinLayer::Wire => stream.unique_frags,
        SpinLayer::Region => pass.windows.iter().map(|w| w.regions.len() as u64).sum(),
        SpinLayer::Diagnose => pass
            .windows
            .iter()
            .map(|w| w.diagnoses_attempted as u64)
            .sum(),
    }
}

/// Three closed-loop passes without and three with the spin, taking
/// turns so a host stall hits both sides alike: median wall ns of each.
fn alternating(stream: &Stream, layer: SpinLayer, ns_per_unit: u64) -> (f64, f64) {
    let (mut base, mut spun) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        plant_spin(None, 0);
        base.push(run_pass(stream, PassMode::default()).wall_ns as f64);
        plant_spin(Some(layer), ns_per_unit);
        spun.push(run_pass(stream, PassMode::default()).wall_ns as f64);
    }
    plant_spin(None, 0);
    (median(&base), median(&spun))
}

/// A `result.json` holding just `frags_per_s`, for `compare`.
fn as_result(name: &str, stream: &Stream, wall_ns: f64) -> String {
    let r = WorkloadResult {
        name: name.to_string(),
        metrics: vec![("frags_per_s", stream.unique_frags as f64 / (wall_ns / 1e9))],
        correct: true,
        ..WorkloadResult::default()
    };
    report::result_json(stream.seed, 0.0, "end_to_end", &[r])
}

/// `compare` base against spun; appends its lines, returns the breach.
fn flagged(name: &str, stream: &Stream, (base, spun): (f64, f64), lines: &mut Vec<String>) -> bool {
    match report::compare(
        &as_result(name, stream, base),
        &as_result(name, stream, spun),
    ) {
        Ok((cmp, breached)) => {
            lines.extend(cmp);
            breached
        }
        Err(e) => {
            lines.push(e);
            false
        }
    }
}

/// Run the selftest; returns the lines to print and whether it passed.
pub fn run(layer: SpinLayer, frac: f64, seed: u64) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let (predicted, bypass) = prediction(layer);

    let stream = gen::generate(&gen::params(predicted).expect("known workload"), seed);
    plant_spin(None, 0);
    let warm = run_pass(&stream, PassMode::default());
    let units = units(&stream, &warm, layer);
    // On the thread that pushes frames and receives reports a spin adds
    // to the wall one for one: `frac` of a pass, spread over its units.
    let planted_ns = frac * warm.wall_ns as f64;
    let ns_per_unit = (planted_ns / units.max(1) as f64) as u64;
    lines.push(format!(
        "planting {ns_per_unit} ns per unit in {layer:?}: {units} units, {:.1} ms = {:.0}% of {predicted}'s {:.3} s pass",
        planted_ns / 1e6,
        frac * 100.0,
        warm.wall_ns as f64 / 1e9
    ));

    let moved = flagged(
        predicted,
        &stream,
        alternating(&stream, layer, ns_per_unit),
        &mut lines,
    );
    lines.push(format!("compare flags frags_per_s on {predicted}: {moved}"));
    let mut ok = moved;

    let inline = run_pass(
        &stream,
        PassMode {
            inline: true,
            ..PassMode::default()
        },
    );
    let base_spans = shadow_replay(&stream, &inline).tracer.totals();
    plant_spin(Some(layer), ns_per_unit);
    let spun_spans = shadow_replay(&stream, &inline).tracer.totals();
    plant_spin(None, 0);
    let grew: Vec<i64> = base_spans
        .iter()
        .zip(&spun_spans)
        .map(|(b, s)| s.1 as i64 - b.1 as i64)
        .collect();
    let top = (0..grew.len()).max_by_key(|&i| grew[i]).unwrap_or(0);
    let localised = SPAN_NAMES[top] == layer.span() && grew[top] as f64 >= 0.5 * planted_ns;
    lines.push(format!(
        "shadow table: largest self-time growth is {} (+{:.1} ms of {:.1} ms planted): localised {localised}",
        SPAN_NAMES[top],
        grew[top] as f64 / 1e6,
        planted_ns / 1e6
    ));
    ok &= localised;

    if let Some(bypass) = bypass {
        let stream = gen::generate(&gen::params(bypass).expect("known workload"), seed);
        run_pass(&stream, PassMode::default());
        let moved = flagged(
            bypass,
            &stream,
            alternating(&stream, layer, ns_per_unit),
            &mut lines,
        );
        lines.push(format!("bypass workload {bypass} moved: {moved}"));
        ok &= !moved;
    }
    (lines, ok)
}
