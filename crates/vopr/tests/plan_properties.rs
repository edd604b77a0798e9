//! Property tests of the ingest plane under arbitrary seeded fault
//! plans — drops, duplicates, reordering, bit flips, delays, rank
//! deaths and births, buffer caps — run through the VOPR solo and fleet
//! drivers. Every push is predicted by the independent admission oracle
//! (`model_admission_agreement`, `watermark_agreement`); every drive
//! must close the exact window cover of the data it admitted
//! (`window_tiling`), account for every delivery
//! (`delivery_accounting`), keep the arena gauges sound
//! (`eviction_safety`, `backpressure_bound`), analyse identically
//! inline and pipelined (`pipeline_inline_equivalence`) and never panic
//! (`no_panic`); every fleet job must equal its solo run
//! (`tenant_isolation`). Zero violations, whatever the plan.

use proptest::prelude::*;
use vapro_vopr::plan::{FaultPlan, FleetPlan};
use vapro_vopr::{check_fleet_plan, check_solo_plan, SuiteRun};

/// Small plans: the suite runs on a single-core gate, so each case is a
/// few hundred fragments over a handful of periods.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        (0u64..1u64 << 32, 2usize..4, 100usize..250, 4usize..7),
        (0.0f64..0.25, 0.0f64..0.3, 0.0f64..0.6, 0.0f64..0.15, 0.0f64..0.3),
    )
        .prop_flat_map(|(shape, faults)| {
            let (_, nranks, _, periods) = shape;
            let deaths = prop_oneof![
                Just(Vec::new()),
                (0..nranks, 1..periods - 1).prop_map(|(r, p)| vec![(r, p)]),
            ];
            let births = prop_oneof![
                Just(Vec::new()),
                (1..3usize.min(periods - 2) + 1).prop_map(|p| vec![p]),
            ];
            let cap = prop_oneof![Just(None), (4_096u64..65_536).prop_map(Some)];
            (Just(shape), Just(faults), deaths, births, cap)
        })
        .prop_map(
            |(
                (seed, nranks, frags, periods),
                (drop, duplicate, reorder, corrupt, delay),
                deaths,
                births,
                max_buffered_bytes,
            )| FaultPlan {
                seed,
                nranks,
                frags_per_rank: frags,
                periods,
                drop,
                duplicate,
                reorder,
                corrupt,
                delay,
                deaths,
                births,
                max_buffered_bytes,
            },
        )
}

fn violations(run: &SuiteRun) -> String {
    run.tracker.violations().iter().map(|v| format!("{v}\n")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any solo plan holds every solo invariant, inline and pipelined.
    #[test]
    fn arbitrary_fault_plans_hold_every_invariant(plan in plan_strategy()) {
        let run = check_solo_plan(&plan);
        prop_assert!(run.tracker.violations().is_empty(), "{}", violations(&run));
        prop_assert!(run.tracker.counts().contains_key("pipeline_inline_equivalence"));
    }

    /// Any random fleet plan — several jobs with private fault mixes
    /// (job 0 always clean) interleaved through a sharded fleet — keeps
    /// every job bit-identical to its solo run: no cross-tenant
    /// corruption, no cross-tenant stalls, exact per-job window tiling.
    #[test]
    fn arbitrary_fleet_plans_stay_isolated(seed in 0u64..1u64 << 32) {
        let run = check_fleet_plan(&FleetPlan::random(seed));
        prop_assert!(run.tracker.violations().is_empty(), "{}", violations(&run));
        prop_assert!(run.tracker.counts().contains_key("tenant_isolation"));
    }
}
