//! Online monitoring: the analysis-server view of a long run — frames
//! streamed into overlapped 15-second windows analysed as they close,
//! tree aggregation of per-server heat-map slabs, and the combined text
//! report (paper Fig. 2, steps 5-7 and Fig. 8's periodic analysis).
//!
//! ```sh
//! cargo run --release --example online_monitoring
//! ```

use vapro::apps::{npb::lu, AppParams};
use vapro::core::detect::heatmap::tree_aggregate;
use vapro::core::{HeatMap, VaproConfig, VaproReport};
use vapro::harness::{run_bare, run_under_vapro, serve};
use vapro::pmu::events;
use vapro::sim::{NoiseEvent, NoiseKind, NoiseSchedule, SimConfig, TargetSet, VirtualTime};

fn main() {
    let ranks = 8;
    // A long-horizon run spanning several 15-second reporting periods.
    let params = AppParams::default().with_iterations(40).with_scale(120.0);
    let base = SimConfig::new(ranks);
    let span = run_bare(&base, |ctx| lu::run(ctx, &params));
    println!("quiet makespan: {span}");

    // A memory hog visits rank 5 for the middle third of the run.
    let noise = NoiseSchedule::quiet().with(NoiseEvent::during(
        NoiseKind::MemContention { intensity: 2.0 },
        TargetSet::Ranks(vec![5]),
        VirtualTime::from_ns(span.ns() / 3),
        VirtualTime::from_ns(2 * span.ns() / 3),
    ));
    let cfg = base.with_noise(noise);
    let vcfg = VaproConfig::default().with_counters(events::s3_memory_set());

    let run = run_under_vapro(&cfg, &vcfg, |ctx| lu::run(ctx, &params));
    println!("monitored makespan: {}", run.makespan);

    // Clients ship one frame per reporting period; the server analyses
    // each window as soon as every rank has shipped past its end.
    let reports = serve(&run.shipped, 24, vcfg.clone());
    println!("analysed {} overlapped windows of {}", reports.len(), vcfg.report_period);
    for r in &reports {
        let flagged = r
            .result
            .comp_regions
            .first()
            .map(|reg| format!("VARIANCE ranks {}..={}", reg.rank_range.0, reg.rank_range.1));
        println!(
            "  window {:>6.1}s..{:>6.1}s: {}",
            r.window.start.as_secs_f64(),
            r.window.end.as_secs_f64(),
            flagged.unwrap_or_else(|| "clean".into())
        );
        // Each closed window ships its top-K region diagnoses along with
        // the detection result — no second pass over the run needed.
        for d in &r.diagnoses {
            println!(
                "    diagnosed ranks {}..={}: culprits {:?}",
                d.roi.ranks.0, d.roi.ranks.1, d.report.culprits
            );
        }
    }

    // Tree aggregation (the MRNet-style reduction of §5): each of two
    // leaf aggregators (clients assigned round-robin) builds a
    // same-geometry slab holding only its clients' normalised points;
    // the tree reduces them to the root overview map.
    let leaves = 2;
    let geometry = HeatMap::spanning(&run.detection.series.computation, 48, ranks);
    let slabs: Vec<HeatMap> = (0..leaves)
        .map(|leaf| {
            let mut slab = HeatMap::new(geometry.t0, geometry.bin_ns, geometry.bins, ranks);
            for p in &run.detection.series.computation {
                if p.rank % leaves == leaf {
                    slab.add_point(p);
                }
            }
            slab
        })
        .collect();
    let root = tree_aggregate(slabs).expect("slabs present");
    println!(
        "\nroot overview map: coverage {:.1}%, overall perf {:.3}",
        root.coverage() * 100.0,
        root.overall_perf()
    );
    print!("{}", vapro::core::viz::render_heatmap(&root, 8));

    // The combined end-of-run report with per-region diagnosis.
    let report = VaproReport::build(&run.detection, &run.diagnoses);
    println!("\n{}", report.to_text());
}
