//! Variance detection (paper §3.5): per-cluster performance
//! normalisation, weighted merging across clusters, heat maps, region
//! growing, and the periodic inter-process analysis servers (paper §3.5
//! Fig. 8 and §5: dedicated server processes periodically collect
//! performance data from application processes and analyse the last
//! window).
//!
//! Two sources, one sealed layout, one kernel — AoS where data is
//! mutable, SoA where it is sealed. Either way the analysis reads a
//! [`ColumnarPool`](crate::columnar::ColumnarPool) whose lanes are keyed
//! by state label, in label order:
//!
//! * **Streaming.** [`ingestor::WindowedIngestor`] admits shipped frames
//!   ([`admission`]) into per-location fragment pools ([`arena`]), seals
//!   each window the watermark passes into a columnar snapshot and
//!   analyses it on the in-order `stage`. The figures run it too: the
//!   whole run is one window.
//! * **One-shot.** [`oneshot::analyze_windows`] gathers each window
//!   straight out of the per-rank STGs — no wire, arena, sort, eviction
//!   or stage — which makes it the test reference every stream ≡
//!   one-shot test compares everything upstream of the kernel against.

pub mod admission;
pub mod arena;
pub mod heatmap;
pub mod ingestor;
pub mod normalize;
pub mod oneshot;
pub mod pipeline;
pub mod region;
pub(crate) mod stage;
pub mod window;

pub use admission::{frame_charge, IngestStats, RankHealth};
pub use arena::IngestArena;
pub use heatmap::HeatMap;
pub use ingestor::{WindowReport, WindowedIngestor};
pub use normalize::{CategorySeries, PerfPoint};
pub use oneshot::analyze_windows;
pub use pipeline::{DetectionResult, RareLocation, RarePath};
pub use region::{grow_regions, VarianceRegion};
pub use window::{windows_covering, Window};
