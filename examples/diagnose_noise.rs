//! Progressive variance diagnosis: drill from "this rank is slow" down to
//! the responsible hardware/OS factor, stage by stage, exactly as Vapro's
//! server drives its clients (paper §4.3).
//!
//! ```sh
//! cargo run --release --example diagnose_noise
//! ```
//!
//! Injects memory-bandwidth contention into a fixed-workload kernel and
//! watches the diagnosis walk: S1 backend-bound → S2 memory-bound →
//! S3 DRAM-bound, widening the active counter set only along that branch.

use vapro::core::diagnose::{diagnose_progressively, Factor};
use vapro::core::fragment::{Fragment, FragmentKind};
use vapro::pmu::{CounterSet, CpuConfig, CpuModel, JitterModel, NoiseEnv, WorkloadSpec};
use vapro::sim::VirtualTime;

fn main() {
    // A fixed-workload kernel: identical every execution.
    let spec = WorkloadSpec::memory_bound(4e6);
    let noisy = NoiseEnv { mem_contention: 2.0, ..NoiseEnv::default() };

    // The data provider plays the client side: each diagnosis stage asks
    // for the cluster's fragments collected under a wider counter set
    // (one reporting period per stage). Odd executions suffer the noise.
    let mut provider = move |set: CounterSet| -> Vec<Fragment> {
        let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::default());
        let mut rng = rand::thread_rng();
        let mut t = 0u64;
        (0..40)
            .map(|i| {
                let env = if i % 2 == 1 { noisy } else { NoiseEnv::quiet() };
                let out = model.execute(&spec, &env, &mut rng);
                let start = VirtualTime::from_ns(t);
                let end = start + VirtualTime::from_ns_f64(out.wall_ns);
                t = end.ns() + 1_000;
                Fragment {
                    rank: 0,
                    kind: FragmentKind::Computation,
                    start,
                    end,
                    counters: out.counters.project(set),
                    args: vec![],
                }
            })
            .collect()
    };

    let report = diagnose_progressively(&mut provider)
        .expect("variance present");

    println!("progressive diagnosis ({} periods):\n", report.periods);
    for (i, step) in report.steps.iter().enumerate() {
        println!(
            "stage {}: {} counters active, {} abnormal / {} normal fragments",
            i + 1,
            step.counters_used,
            step.report.abnormal_count,
            step.report.normal_count
        );
        for f in &step.report.factors {
            let share = if f.impact_share.is_nan() {
                "  (count factor — OLS)".to_string()
            } else {
                format!("{:6.1}% of slowdown", f.impact_share * 100.0)
            };
            println!(
                "    {:<28} {}{}",
                f.factor.to_string(),
                share,
                if f.major { "  << major" } else { "" }
            );
        }
    }
    println!("\nculprits: {:?}", report.culprits);
    assert!(report.culprits.contains(&Factor::DramBound));
    println!("=> the memory noise was correctly traced to DRAM-bound stalls");
}
