#![warn(missing_docs)]
// One `unsafe` block, allowed in place: the call into the CRC fold
// after its CPU features were detected (`wire::crc32::checksum`).
#![deny(unsafe_code)]

//! # vapro-core — performance variance detection and diagnosis
//!
//! The paper's primary contribution (Zheng et al., PPoPP'22): a
//! light-weight tool that detects and diagnoses performance variance in
//! production-run parallel applications *without source code*, by
//! exploiting code snippets with de-facto fixed workload.
//!
//! Pipeline (paper Fig. 2):
//!
//! 1. **Intercepting** — [`collector::Collector`] plugs into the runtime's
//!    interception layer and slices execution into fragments;
//! 2. **Building STG** — fragments attach to the vertices (invocations) and
//!    edges (computation snippets) of a [`stg::Stg`], keyed by call-site
//!    (context-free) or call-path (context-aware);
//! 3. **Performance data collection** — each fragment carries a counter
//!    delta and/or invocation arguments ([`fragment`]);
//! 4. **Identifying fixed-workload fragments** — [`clustering`] implements
//!    the paper's Algorithm 1 (norm-sorted greedy clustering, linear time);
//! 5. **Variance detection** — [`detect`] normalises per-cluster
//!    performance, merges clusters, renders rank × time heat maps, and
//!    locates variance by region growing;
//! 6. **Progressive variance diagnosis** — [`diagnose`] breaks wall time
//!    into the hierarchical factor model of paper Fig. 10, quantifies each
//!    factor by formula or OLS, and drills down stage by stage;
//! 7. **Visualization** — [`viz`] renders heat maps and serialises reports.

pub mod baseline;
pub mod clustering;
pub mod collector;
pub mod columnar;
pub mod config;
pub mod detect;
pub mod diagnose;
pub mod fleet;
pub mod fragment;
pub mod intern;
pub mod report;
pub mod sampling;
pub mod stg;
pub mod viz;
pub mod vopr;
pub mod wire;

pub use baseline::{BaselineProfile, RunComparison};
pub use clustering::{
    cluster_lanes, cluster_pool, cluster_vectors, cluster_vectors_unpruned, Cluster,
    ClusterOutcome, ClusterRef, ClusterTable, LaneClustering, LaneClusters,
};
pub use columnar::{ColumnarPool, LaneView, PoolView};
pub use detect::pipeline::{detect_columnar, DetectionResult};
pub use intern::{Sym, SymbolTable};
pub use collector::Collector;
pub use config::{FaultTolerance, LateDataPolicy, StgMode, VaproConfig};
pub use detect::heatmap::HeatMap;
pub use detect::region::VarianceRegion;
pub use detect::admission::{IngestStats, RankHealth};
pub use detect::arena::{ArenaView, IngestArena};
pub use detect::ingestor::{RegionDiagnosis, WindowReport, WindowedIngestor};
pub use detect::oneshot::analyze_windows;
pub use diagnose::{diagnose_region, DiagnosisBatch, DiagnosisReport, RegionOfInterest};
pub use fleet::{
    FleetConfig, FleetIngestor, FleetReport, FleetWindow, InterferenceFinding, JobKey,
    JobSummary, TenantSummary,
};
pub use fragment::{Fragment, FragmentKind};
pub use report::{VaproReport, WindowCoverage};
pub use stg::{StateKey, Stg};
pub use wire::{FragmentBatch, WireError};
