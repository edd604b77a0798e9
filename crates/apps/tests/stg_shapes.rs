//! Structural checks of every mini-app's STG under the Vapro collector:
//! the state/edge shape a tool user would see, and the SPMD symmetry
//! the inter-process analysis relies on.

use vapro_apps::{all_apps, AppKind, AppParams};
use vapro_core::stg::StateKey;
use vapro_core::{Collector, VaproConfig};
use vapro_sim::{run_simulation, Interceptor, SimConfig, Topology};

fn stgs_for(app: &vapro_apps::AppSpec, ranks: usize, iterations: usize) -> Vec<vapro_core::Stg> {
    let topo = match app.kind {
        AppKind::MultiProcess => Topology::tianhe_like(ranks),
        AppKind::MultiThreaded => Topology::single_node(ranks),
    };
    let params = AppParams::default().with_iterations(iterations);
    let res = run_simulation(
        &SimConfig::new(ranks).with_topology(topo),
        |rank| {
            Box::new(Collector::new(rank, VaproConfig::default())) as Box<dyn Interceptor>
        },
        move |ctx| (app.run)(ctx, &params),
    );
    res.into_tools::<Collector>()
        .into_iter()
        .map(|c| c.finish().0)
        .collect()
}

#[test]
fn stg_size_is_bounded_and_stable_across_iteration_counts() {
    // The defining property of the STG: states grow with *code*, not with
    // execution length (otherwise online analysis could not be O(1) per
    // event). Doubling the iterations must not change the graph shape —
    // once every code path has been discovered (CESM's periodic history
    // write fires at iteration 5, and its return transition appears at
    // iteration 6, so the baseline is 6).
    for app in all_apps() {
        let a = stgs_for(&app, 4, 6);
        let b = stgs_for(&app, 4, 12);
        assert_eq!(
            a[0].num_states(),
            b[0].num_states(),
            "{}: states grew with iterations",
            app.name
        );
        assert_eq!(
            a[0].num_edges(),
            b[0].num_edges(),
            "{}: edges grew with iterations",
            app.name
        );
        assert!(
            a[0].num_states() <= 64,
            "{}: implausibly many states ({})",
            app.name,
            a[0].num_states()
        );
        // But fragments do grow.
        assert!(b[0].total_fragments() > a[0].total_fragments(), "{}", app.name);
    }
}

#[test]
fn spmd_apps_have_symmetric_interior_ranks() {
    // SPMD symmetry: interior ranks see the same states — the premise of
    // pooling fragments across ranks. (Boundary ranks of pipelined apps
    // like LU/ferret legitimately differ.)
    for name in ["CG", "FT", "MG", "SP", "BT", "AMG", "Nekbone", "BERT", "vips"] {
        let app = vapro_apps::find_app(name).unwrap();
        let stgs = stgs_for(&app, 6, 4);
        let keys = |stg: &vapro_core::Stg| -> Vec<String> {
            let mut k: Vec<String> =
                stg.vertices().iter().map(|v| v.key.label()).collect();
            k.sort();
            k
        };
        assert_eq!(keys(&stgs[2]), keys(&stgs[3]), "{name}: interior ranks differ");
    }
}

#[test]
fn every_app_reaches_every_declared_static_site() {
    // The vSensor annotations must point at call-sites the app actually
    // executes — otherwise the baseline comparison would be vacuous.
    for app in all_apps() {
        if app.static_fixed_sites.is_empty() {
            continue;
        }
        let stgs = stgs_for(&app, 4, 4);
        for site in app.static_fixed_sites {
            // Some rank must reach the site (boundary ranks of pipelined
            // apps — LU's rank 0 in the upper sweep — legitimately skip
            // their directional sends).
            let found = stgs.iter().any(|stg| {
                stg.vertices().iter().any(|v| match &v.key {
                    StateKey::Site(s) => s.label() == *site,
                    _ => false,
                })
            });
            assert!(found, "{}: static site {site} never executed", app.name);
        }
    }
}

#[test]
fn warmup_phases_only_exist_where_declared() {
    // CG is the only app with an explicit warm-up region; under a
    // context-aware STG it must (and only it may) split states.
    for app in all_apps() {
        let params = AppParams::default().with_iterations(3);
        let topo = match app.kind {
            AppKind::MultiProcess => Topology::tianhe_like(2),
            AppKind::MultiThreaded => Topology::single_node(2),
        };
        let run_modes = |cfg: VaproConfig| {
            let res = run_simulation(
                &SimConfig::new(2).with_topology(topo.clone()),
                move |rank| Box::new(Collector::new(rank, cfg.clone())) as Box<dyn Interceptor>,
                |ctx| (app.run)(ctx, &params),
            );
            res.into_tools::<Collector>()[0].stg().num_states()
        };
        let cf = run_modes(VaproConfig::context_free());
        let ca = run_modes(VaproConfig::context_aware());
        if app.name == "CG" {
            assert!(ca > cf, "CG should split warm-up states (cf {cf}, ca {ca})");
        } else if app.name == "CESM" {
            // CESM's components run in named regions: CA splits by region.
            assert!(ca >= cf);
        } else {
            assert_eq!(ca, cf, "{}: unexpected path-sensitivity", app.name);
        }
    }
}
