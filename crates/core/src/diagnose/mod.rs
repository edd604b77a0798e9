//! Variance diagnosis (paper §4): the hierarchical breakdown model,
//! factor-time quantification (formula-based and OLS-based), contribution
//! analysis, and the progressive drill-down that keeps the active counter
//! set small.

pub mod batch;
pub mod contribution;
pub mod driver;
pub mod factor;
pub mod progressive;
pub mod quantify;

pub use batch::DiagnosisBatch;
pub use contribution::{analyze_contributions, ContributionReport, FactorContribution};
pub use driver::{diagnose_region, RegionOfInterest};
pub use factor::{Factor, Stage};
pub use progressive::{diagnose_cluster, diagnose_progressively, DiagnosisReport, StageStep};
pub use quantify::{factor_value, ols_impacts, FactorValues, OlsImpact};
