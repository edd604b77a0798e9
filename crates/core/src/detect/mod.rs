//! Variance detection (paper §3.5): per-cluster performance
//! normalisation, weighted merging across clusters, heat maps, region
//! growing, and the periodic inter-process analysis servers (paper §3.5
//! Fig. 8 and §5: dedicated server processes periodically collect
//! performance data from application processes and analyse the last
//! window).
//!
//! One sealed layout, one kernel — AoS where data is mutable, SoA where
//! it is sealed. The analysis reads a
//! [`ColumnarPool`](crate::ColumnarPool) whose lanes are keyed by state
//! label, in label order:
//!
//! * **Streaming.** [`ingestor::WindowedIngestor`] admits shipped frames
//!   ([`admission`]) into per-location fragment pools ([`arena`]), seals
//!   each window the watermark passes into a columnar snapshot and
//!   analyses it on the in-order `stage`. The figures run it too: the
//!   whole run is one window.
//! * **One pool.** [`ingestor::analyze_pool`] is the same per-window
//!   analysis over a pool gathered any other way — for instance
//!   [`ColumnarPool::from_batches`](crate::ColumnarPool::from_batches)
//!   straight out of shipped frames, with no arena, sort, eviction or
//!   stage. The one-shot reference every stream ≡ one-shot test
//!   compares against (`vapro_vopr::reference::analyze_windows`) is
//!   built on it.

pub mod admission;
pub mod arena;
pub mod heatmap;
pub mod ingestor;
pub mod normalize;
pub mod pipeline;
pub mod region;
pub(crate) mod stage;
pub mod window;

pub use admission::{frame_charge, IngestStats, RankHealth};
pub use arena::IngestArena;
pub use heatmap::HeatMap;
pub use ingestor::{analyze_pool, WindowReport, WindowedIngestor};
pub use normalize::{CategorySeries, PerfPoint};
pub use pipeline::{DetectionResult, RareLocation, RarePath};
pub use region::{grow_regions, VarianceRegion};
pub use window::{windows_covering, Window};
