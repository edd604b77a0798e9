//! Variance diagnosis (paper §4): the hierarchical breakdown model,
//! factor-time quantification (formula-based and OLS-based), contribution
//! analysis, the progressive drill-down that keeps the active counter
//! set small, and the batch that diagnoses a window's regions of
//! interest over its sealed pool.

pub mod batch;
pub mod contribution;
pub mod factor;
pub mod progressive;
pub mod quantify;

pub use batch::{DiagnosisBatch, RegionOfInterest};
pub use contribution::{
    analyze_contributions, ContributionReport, FactorContribution, ABNORMAL_RATIO, MAJOR_SHARE,
};
pub use factor::{Factor, Stage};
pub use progressive::{diagnose_cluster, diagnose_progressively, DiagnosisReport, StageStep};
pub use quantify::{factor_value, ols_impacts, FactorValues, OlsImpact, FG_ALPHA};
