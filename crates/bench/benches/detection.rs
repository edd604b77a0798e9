//! Criterion bench: end-to-end detection — from per-rank STGs to heat
//! maps and variance regions — plus the windowed server analysis. This is
//! the recurring server-side cost per 15-second reporting period.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vapro::harness::run_under_vapro;
use vapro_apps::AppParams;
use vapro_core::detect::pipeline::{detect, detect_seq};
use vapro_core::{ServerPool, Stg, VaproConfig};
use vapro_sim::SimConfig;

fn collect_stgs(ranks: usize, iterations: usize) -> Vec<Stg> {
    let params = AppParams::default().with_iterations(iterations);
    let run = run_under_vapro(
        &SimConfig::new(ranks),
        &VaproConfig::context_free(),
        move |ctx| vapro_apps::npb::cg::run(ctx, &params),
    );
    run.stgs
}

fn bench_detection(c: &mut Criterion) {
    let mut g = c.benchmark_group("detect/pipeline");
    g.sample_size(20);
    for ranks in [8usize, 32] {
        let stgs = collect_stgs(ranks, 15);
        let cfg = VaproConfig::context_free();
        g.bench_with_input(BenchmarkId::from_parameter(ranks), &stgs, |b, stgs| {
            b.iter(|| detect(std::hint::black_box(stgs), stgs.len(), 48, &cfg))
        });
    }
    g.finish();
}

fn bench_region_growing(c: &mut Criterion) {
    use vapro_core::detect::normalize::PerfPoint;
    use vapro_core::detect::region::grow_regions;
    use vapro_core::HeatMap;
    use vapro_sim::VirtualTime;
    // A 256×256 map with a scattered slow pattern.
    let mut hm = HeatMap::new(VirtualTime::ZERO, 1_000, 256, 256);
    for r in 0..256usize {
        for bi in 0..256u64 {
            hm.add_point(&PerfPoint {
                rank: r,
                start: VirtualTime::from_ns(bi * 1_000),
                end: VirtualTime::from_ns(bi * 1_000 + 900),
                perf: if (r + bi as usize).is_multiple_of(9) { 0.4 } else { 1.0 },
                loss_ns: 0.0,
            });
        }
    }
    c.bench_function("detect/region_growing_256x256", |b| {
        b.iter(|| grow_regions(std::hint::black_box(&hm), 0.85))
    });
}

fn bench_windowed_server(c: &mut Criterion) {
    let stgs = collect_stgs(8, 30);
    let cfg = VaproConfig::context_free();
    let pool = ServerPool::new(2, 8);
    let mut g = c.benchmark_group("detect/windowed_server");
    g.sample_size(10);
    g.bench_function("8ranks_30iters", |b| {
        b.iter(|| pool.analyze_windows(std::hint::black_box(&stgs), 8, 24, &cfg))
    });
    g.finish();
}

/// The rayon fan-out against its sequential reference on a synthetic
/// 4-rank/8k-fragment STG. Meaningful speedup needs a
/// multi-core runner; the outputs are identical either way.
fn bench_seq_vs_par(c: &mut Criterion) {
    let stgs = vapro_vopr::plan::synthetic_stgs(4, 2000, 32, 0xBE7C);
    let cfg = VaproConfig::default();
    let mut g = c.benchmark_group("detect/seq_vs_par");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| detect_seq(std::hint::black_box(&stgs), 4, 64, &cfg))
    });
    g.bench_function("parallel", |b| {
        b.iter(|| detect(std::hint::black_box(&stgs), 4, 64, &cfg))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_detection,
    bench_region_growing,
    bench_windowed_server,
    bench_seq_vs_par
);
criterion_main!(benches);
