//! Fleet-plane equivalence and fairness properties.
//!
//! * A single-job fleet — any shard count, with or without a
//!   `max_buffered_bytes` cap — is a bare `WindowedIngestor` fed the
//!   same frames, push for push and stat for stat, the unstamped default
//!   tenant/job included.
//! * An over-budget tenant is rejected with structured errors while a
//!   clean tenant's windows keep closing on time; a tenant is charged
//!   only for what its jobs still hold ahead of their watermarks.
//! * Unknown tenants are structured rejections, never panics and never
//!   silent drops.
//! * Same-node jobs with correlated variance produce an interference
//!   finding; isolated jobs do not.

mod common;

use common::looped_stg;
use proptest::prelude::*;
use vapro_core::detect::window::Window;
use vapro_core::detect::ingestor::{WindowReport, WindowedIngestor};
use vapro_core::fleet::{FleetConfig, FleetIngestor, JobKey};
use vapro_core::stg::Stg;
use vapro_core::detect::frame_charge;
use vapro_core::wire::{FragmentBatch, FrameView, WireError};
use vapro_core::VaproConfig;
use vapro_sim::VirtualTime;

/// What admission charges a valid frame against caps and budgets.
fn charge(frame: &[u8]) -> u64 {
    frame_charge(&FrameView::parse(frame).expect("valid frame"))
}

/// Period-major frames for one job: every rank ships period `k`
/// before any rank ships `k+1`, sequenced from 1.
fn job_frames(stgs: &[Stg], periods: u64, period: VirtualTime, key: JobKey) -> Vec<Vec<u8>> {
    skewed_job_frames(stgs, periods, period, key, 0)
}

/// [`job_frames`] with rank 0 shipping `lead` periods ahead of the
/// others, so its frames arrive ahead of the watermark.
fn skewed_job_frames(
    stgs: &[Stg],
    periods: u64,
    period: VirtualTime,
    key: JobKey,
    lead: u64,
) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for step in 0..periods + lead {
        for (rank, stg) in stgs.iter().enumerate() {
            let k = if rank == 0 { Some(step) } else { step.checked_sub(lead) };
            let Some(k) = k.filter(|&k| k < periods) else { continue };
            let w = Window {
                start: VirtualTime::from_ns(period.ns() * k),
                end: VirtualTime::from_ns(period.ns() * (k + 1)),
            };
            frames.push(
                FragmentBatch::from_stg_starting_in(stg, rank, w)
                    .with_seq(k + 1)
                    .with_job(key.tenant, key.job)
                    .encode(),
            );
        }
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: one job through the fleet — whatever the
    /// shard count, with rank 0 running ahead into a byte cap or not —
    /// closes exactly the windows the bare `WindowedIngestor` closes,
    /// bit for bit, sheds exactly the frames it sheds, and at depth 0
    /// returns each window from the very push that makes it due.
    #[test]
    fn single_job_fleet_is_bit_identical(
        nranks in 1usize..4,
        slow_from in 0usize..20,
        shards in 1usize..5,
        lead in 0u64..3,
        capped_inline in (prop_oneof![Just(false), Just(true)], prop_oneof![Just(false), Just(true)]),
        tenant_job in (prop_oneof![Just(0u32), Just(3u32)], prop_oneof![Just(0u32), Just(41u32)]),
    ) {
        let ((capped, inline), (tenant, job)) = (capped_inline, tenant_job);
        let mut cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            ..VaproConfig::default()
        };
        if inline {
            cfg.pipeline_depth = 0;
        }
        let mut stgs: Vec<Stg> =
            (0..nranks).map(|r| looped_stg(r, 24, 1_000_000_000, 0..0)).collect();
        stgs[nranks - 1] = looped_stg(nranks - 1, 24, 1_000_000_000, slow_from..slow_from + 6);
        let key = JobKey { tenant, job };
        let frames = skewed_job_frames(&stgs, 14, cfg.report_period, key, lead);
        if capped {
            // Room for one frame ahead of the watermark, not for two.
            let largest = frames.iter().map(|f| charge(f)).max().unwrap_or(0);
            cfg.fault.max_buffered_bytes = Some(largest * 3 / 2);
        }

        // The bare ingestor sees the identical frames; it ignores the
        // routing stamp the fleet routes on.
        let mut bare = WindowedIngestor::new(nranks, 8, cfg.clone());
        let mut fleet_cfg = FleetConfig::new(cfg);
        fleet_cfg.shards = shards;
        fleet_cfg.default_nranks = nranks;
        let mut fleet = FleetIngestor::new(fleet_cfg);
        if tenant != 0 {
            fleet.register_tenant(tenant, u64::MAX);
        }

        let (mut want, mut got) = (Vec::new(), Vec::new());
        for (i, f) in frames.iter().enumerate() {
            let bare_closed = bare.push_encoded(f).expect("valid frame");
            let fleet_closed = fleet.push_encoded(f).expect("valid frame");
            if inline {
                prop_assert_eq!(
                    fleet_closed.len(),
                    bare_closed.len(),
                    "frame {}: a due window is returned by the push that makes it due",
                    i
                );
            }
            want.extend(bare_closed);
            got.extend(fleet_closed);
        }
        let want_stats = bare.stats().clone();
        want.extend(bare.finish());
        let (report, tail) = fleet.into_report();
        got.extend(tail);

        prop_assert!(got.iter().all(|w| w.key == key), "windows tagged with the job key");
        let got_reports: Vec<WindowReport> = got.into_iter().map(|w| w.report).collect();
        assert_eq!(got_reports, want);
        prop_assert_eq!(report.jobs.len(), 1);
        prop_assert_eq!(&report.jobs[0].stats, &want_stats);
        if capped && lead == 2 && nranks > 1 {
            prop_assert!(want_stats.dropped_backpressure_frames > 0, "the cap never engaged");
        }
    }
}

#[test]
fn over_budget_tenant_is_rejected_while_clean_tenant_closes_windows() {
    let cfg = VaproConfig {
        report_period: VirtualTime::from_secs(5),
        ..VaproConfig::default()
    };
    let clean_key = JobKey { tenant: 1, job: 1 };
    let greedy_key = JobKey { tenant: 2, job: 1 };
    let stg_clean = looped_stg(0, 24, 1_000_000_000, 6..10);
    let stg_greedy = looped_stg(0, 24, 1_000_000_000, 0..0);
    let clean_frames = job_frames(std::slice::from_ref(&stg_clean), 14, cfg.report_period, clean_key);
    let greedy_frames =
        job_frames(std::slice::from_ref(&stg_greedy), 14, cfg.report_period, greedy_key);

    // The clean tenant alone, as the reference timeline.
    let mut bare = WindowedIngestor::new(1, 8, cfg.clone());
    let mut want = Vec::new();
    for f in &clean_frames {
        want.extend(bare.push_encoded(f).expect("valid"));
    }
    want.extend(bare.finish());

    let mut fleet_cfg = FleetConfig::new(cfg);
    fleet_cfg.shards = 2;
    let mut fleet = FleetIngestor::new(fleet_cfg);
    fleet.register_tenant(1, u64::MAX);
    // A budget below one frame: every greedy frame is over budget.
    fleet.register_tenant(2, 16);

    let mut got = Vec::new();
    let mut rejections = 0u64;
    for (c, g) in clean_frames.iter().zip(&greedy_frames) {
        got.extend(fleet.push_encoded(c).expect("clean tenant admitted"));
        match fleet.push_encoded(g) {
            Err(WireError::TenantOverBudget { tenant, budget_bytes, requested_bytes }) => {
                assert_eq!(tenant, 2);
                assert_eq!(budget_bytes, 16);
                assert!(requested_bytes > budget_bytes);
                rejections += 1;
            }
            other => panic!("expected structured budget rejection, got {other:?}"),
        }
    }
    assert_eq!(rejections, greedy_frames.len() as u64);
    let greedy_stats = fleet.tenant_stats(2).expect("registered").clone();
    assert_eq!(greedy_stats.over_budget_frames, rejections);
    assert!(greedy_stats.over_budget_bytes > 0);
    assert_eq!(greedy_stats.frames_admitted, 0);
    let clean_stats = fleet.tenant_stats(1).expect("registered").clone();
    assert_eq!(clean_stats.frames_admitted, clean_frames.len() as u64);
    assert_eq!(clean_stats.frames_rejected(), 0);

    let (report, tail) = fleet.into_report();
    got.extend(tail);

    // The clean tenant's windows are exactly what it would have closed
    // alone — the greedy tenant never stalled or corrupted it.
    assert!(got.iter().all(|w| w.key == clean_key));
    let got_reports: Vec<WindowReport> = got.into_iter().map(|w| w.report).collect();
    assert_eq!(got_reports, want);

    // And the report attributes the rejections to the greedy tenant.
    let greedy = report.tenants.iter().find(|t| t.tenant == 2).expect("summarised");
    assert_eq!(greedy.stats.over_budget_frames, rejections);
}

#[test]
fn unknown_tenant_is_a_structured_rejection() {
    let cfg = VaproConfig {
        report_period: VirtualTime::from_secs(5),
        ..VaproConfig::default()
    };
    let stg = looped_stg(0, 12, 1_000_000_000, 0..0);
    let frames =
        job_frames(std::slice::from_ref(&stg), 6, cfg.report_period, JobKey { tenant: 9, job: 0 });

    let mut fleet = FleetIngestor::new(FleetConfig::new(cfg));
    for f in &frames {
        match fleet.push_encoded(f) {
            Err(WireError::UnknownTenant { tenant }) => assert_eq!(tenant, 9),
            other => panic!("expected unknown-tenant rejection, got {other:?}"),
        }
    }
    assert_eq!(fleet.unattributed_stats().unknown_tenant_frames, frames.len() as u64);

    // The plane still serves registered tenants afterwards.
    let default_frames =
        job_frames(std::slice::from_ref(&stg), 6, VirtualTime::from_secs(5), JobKey::default_job());
    let mut windows = Vec::new();
    for f in &default_frames {
        windows.extend(fleet.push_encoded(f).expect("default tenant admitted"));
    }
    let (report, tail) = fleet.into_report();
    windows.extend(tail);
    assert!(!windows.is_empty(), "default tenant still closes windows");
    // The rejected frames created no job and reached no ingestor.
    assert_eq!(report.jobs.len(), 1, "only the default job exists");
    assert_eq!(report.jobs[0].key, JobKey::default_job());
    assert_eq!(report.jobs[0].stats.frames_admitted, default_frames.len() as u64);
    assert_eq!(report.jobs[0].windows_closed, windows.len());
}

#[test]
fn a_lone_tenant_is_not_charged_for_frames_already_absorbed() {
    // One tenant, one 1-rank job shipping in order: every frame is at
    // the watermark when it arrives and behind it once absorbed, so the
    // tenant never holds anything and a budget of three frames admits
    // the whole stream. (A plane that charged frames until some later
    // batch boundary rejected this tenant from its fourth frame on,
    // forever, with no other traffic to trigger the release.)
    let cfg = VaproConfig {
        report_period: VirtualTime::from_secs(5),
        ..VaproConfig::default()
    };
    let key = JobKey { tenant: 5, job: 0 };
    let stg = looped_stg(0, 50, 1_000_000_000, 0..0);
    let frames = job_frames(std::slice::from_ref(&stg), 10, cfg.report_period, key);
    let largest = frames.iter().map(|f| charge(f)).max().expect("frames");

    let mut fleet = FleetIngestor::new(FleetConfig::new(cfg));
    fleet.register_tenant(5, 3 * largest);
    for (i, f) in frames.iter().enumerate() {
        if let Err(e) = fleet.push_encoded(f) {
            panic!("frame {i} of a tenant holding nothing was rejected: {e}");
        }
    }
    let stats = fleet.tenant_stats(5).expect("registered");
    assert_eq!(stats.frames_admitted, frames.len() as u64);
    assert_eq!(stats.frames_rejected(), 0);
}

#[test]
fn same_node_jobs_with_correlated_variance_are_flagged() {
    let cfg = VaproConfig {
        report_period: VirtualTime::from_secs(5),
        ..VaproConfig::default()
    };
    // Both jobs slow over the same iterations — the co-located pair —
    // and a third job on another node with the same pattern.
    let key_a = JobKey { tenant: 1, job: 1 };
    let key_b = JobKey { tenant: 1, job: 2 };
    let key_c = JobKey { tenant: 1, job: 3 };
    let mut fleet_cfg = FleetConfig::new(cfg.clone());
    fleet_cfg.shards = 2;
    let mut fleet = FleetIngestor::new(fleet_cfg);
    fleet.register_tenant(1, u64::MAX);
    fleet.register_job(key_a, 2, 0);
    fleet.register_job(key_b, 2, 0);
    fleet.register_job(key_c, 2, 7);

    for key in [key_a, key_b, key_c] {
        let mut stgs: Vec<Stg> =
            (0..2).map(|r| looped_stg(r, 24, 1_000_000_000, 0..0)).collect();
        stgs[1] = looped_stg(1, 24, 1_000_000_000, 8..14);
        for f in job_frames(&stgs, 14, cfg.report_period, key) {
            fleet.push_encoded(&f).expect("valid frame");
        }
    }
    let (report, _) = fleet.into_report();

    assert_eq!(report.jobs.len(), 3);
    assert!(
        report.jobs.iter().all(|j| j.windows_closed > 0),
        "every job closed windows: {:?}",
        report.jobs.iter().map(|j| j.windows_closed).collect::<Vec<_>>()
    );
    // Exactly the co-located pair is flagged, and their identical slow
    // phases overlap near-fully.
    assert_eq!(report.interference.len(), 1, "findings: {:?}", report.interference);
    let f = &report.interference[0];
    assert_eq!((f.node, f.a, f.b), (0, key_a, key_b));
    assert!(f.overlap_ns > 0);
    assert!(f.overlap_frac > 0.9, "identical phases should overlap: {}", f.overlap_frac);
}
