//! # vapro-bench — the reproduction harness
//!
//! One module per table/figure of the paper's evaluation (§6). Each
//! module exposes `run(&ExpOpts) -> String`, returning the report that
//! the `repro` binary prints; the modules are libraries so integration
//! tests can assert on the *shape* of each result (who wins, by roughly
//! what factor) without string-scraping.
//!
//! Scale: the paper runs up to 2048 processes. Every experiment here
//! defaults to a scaled-down rank count that preserves the phenomenon and
//! finishes in seconds; `--full` (or `ExpOpts::full`) restores the
//! paper's scale.

pub mod ablation;
pub mod common;
pub mod fig01_cg_repeat;
pub mod fig04_stg;
pub mod fig05_pmu_noise;
pub mod fig09_pagerank;
pub mod fig11_breakdown;
pub mod fig12_sp_vsensor;
pub mod fig13_cg_large;
pub mod fig14_mpip;
pub mod fig15_hpl_bug;
pub mod fig16_hpl_cdf;
pub mod fig17_nekbone;
pub mod fig18_raxml;
pub mod fig19_raxml_io;
pub mod regression;
pub mod storage;
pub mod table1;
pub mod table2;

pub use common::ExpOpts;

/// All experiment names the `repro` binary accepts.
pub const EXPERIMENTS: &[&str] = &[
    "fig1", "fig4", "fig5", "fig9", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "table1", "table2", "storage", "ablation", "regression",
];

/// Dispatch one experiment by name.
pub fn run_experiment(name: &str, opts: &ExpOpts) -> Option<String> {
    Some(match name {
        "fig1" => fig01_cg_repeat::run(opts),
        "fig4" => fig04_stg::run(opts),
        "fig5" => fig05_pmu_noise::run(opts),
        "fig9" => fig09_pagerank::run(opts),
        "fig11" => fig11_breakdown::run(opts),
        "fig12" => fig12_sp_vsensor::run(opts),
        "fig13" => fig13_cg_large::run(opts),
        "fig14" => fig14_mpip::run(opts),
        "fig15" => fig15_hpl_bug::run(opts),
        "fig16" => fig16_hpl_cdf::run(opts),
        "fig17" => fig17_nekbone::run(opts),
        "fig18" => fig18_raxml::run(opts),
        "fig19" => fig19_raxml_io::run(opts),
        "table1" => table1::run(opts),
        "table2" => table2::run(opts),
        "storage" => storage::run(opts),
        "ablation" => ablation::run(opts),
        "regression" => regression::run(opts),
        _ => return None,
    })
}
