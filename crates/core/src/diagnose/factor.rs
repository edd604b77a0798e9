//! The variance breakdown model (paper Fig. 10): a tree of factors, each
//! accounting for part of a fixed-workload fragment's execution time.
//!
//! Stage-one splits wall time into retiring / frontend bound /
//! bad speculation / backend bound (the top-down CPU taxonomy) plus
//! *suspension* (the process not running at all). Backend refines into
//! core vs memory, memory into L1/L2/L3/DRAM; suspension refines into
//! page faults (soft/hard), context switches (voluntary/involuntary) and
//! signals. Factors are *quantifiable in time* when PMU formulas give
//! their time share directly; OS event counts are not, and take the
//! OLS route (§4.2).

use vapro_pmu::{events, CounterId, CounterSet};

/// Diagnosis stage (S1 → S2 → S3 in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Top-level split of wall time.
    S1,
    /// First refinement.
    S2,
    /// Second refinement.
    S3,
}

/// A node of the variance breakdown model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Factor {
    // --- S1 ---
    /// Useful work (retiring uops).
    Retiring,
    /// Instruction supply starvation.
    FrontendBound,
    /// Wasted speculation.
    BadSpeculation,
    /// Execution/memory stalls.
    BackendBound,
    /// Process suspended by the OS.
    Suspension,
    // --- S2 under BackendBound ---
    /// Non-memory execution stalls.
    CoreBound,
    /// Memory-hierarchy stalls.
    MemoryBound,
    // --- S2 under Suspension ---
    /// Page-fault service.
    PageFault,
    /// Context-switch effects.
    ContextSwitch,
    /// Signal delivery.
    Signal,
    // --- S3 under MemoryBound ---
    /// Stalls resolved in L1.
    L1Bound,
    /// Stalls resolved in L2.
    L2Bound,
    /// Stalls resolved in L3.
    L3Bound,
    /// Stalls resolved in DRAM.
    DramBound,
    // --- S3 under PageFault ---
    /// Minor faults.
    SoftPageFault,
    /// Major faults.
    HardPageFault,
    // --- S3 under ContextSwitch ---
    /// Blocking waits.
    VoluntaryCs,
    /// Preemption.
    InvoluntaryCs,
}

impl Factor {
    /// The five top-level factors.
    pub const S1: [Factor; 5] = [
        Factor::Retiring,
        Factor::FrontendBound,
        Factor::BadSpeculation,
        Factor::BackendBound,
        Factor::Suspension,
    ];

    /// The stage this factor belongs to.
    pub fn stage(self) -> Stage {
        match self {
            Factor::Retiring
            | Factor::FrontendBound
            | Factor::BadSpeculation
            | Factor::BackendBound
            | Factor::Suspension => Stage::S1,
            Factor::CoreBound | Factor::MemoryBound | Factor::PageFault
            | Factor::ContextSwitch
            | Factor::Signal => Stage::S2,
            _ => Stage::S3,
        }
    }

    /// The refinement of this factor, empty at the leaves.
    pub fn children(self) -> &'static [Factor] {
        match self {
            Factor::BackendBound => &[Factor::CoreBound, Factor::MemoryBound],
            Factor::Suspension => {
                &[Factor::PageFault, Factor::ContextSwitch, Factor::Signal]
            }
            Factor::MemoryBound => {
                &[Factor::L1Bound, Factor::L2Bound, Factor::L3Bound, Factor::DramBound]
            }
            Factor::PageFault => &[Factor::SoftPageFault, Factor::HardPageFault],
            Factor::ContextSwitch => &[Factor::VoluntaryCs, Factor::InvoluntaryCs],
            _ => &[],
        }
    }

    /// The parent factor (None for S1).
    pub fn parent(self) -> Option<Factor> {
        match self {
            Factor::CoreBound | Factor::MemoryBound => Some(Factor::BackendBound),
            Factor::PageFault | Factor::ContextSwitch | Factor::Signal => {
                Some(Factor::Suspension)
            }
            Factor::L1Bound | Factor::L2Bound | Factor::L3Bound | Factor::DramBound => {
                Some(Factor::MemoryBound)
            }
            Factor::SoftPageFault | Factor::HardPageFault => Some(Factor::PageFault),
            Factor::VoluntaryCs | Factor::InvoluntaryCs => Some(Factor::ContextSwitch),
            _ => None,
        }
    }

    /// True when the factor's time share follows from PMU formulas
    /// (the shaded nodes of Fig. 10); false for OS event counts, whose
    /// time impact must be estimated statistically.
    pub fn time_quantifiable(self) -> bool {
        !matches!(
            self,
            Factor::PageFault
                | Factor::ContextSwitch
                | Factor::Signal
                | Factor::SoftPageFault
                | Factor::HardPageFault
                | Factor::VoluntaryCs
                | Factor::InvoluntaryCs
        )
    }

    /// The counters that must be active to evaluate this factor.
    pub fn required_counters(self) -> CounterSet {
        match self {
            Factor::Retiring | Factor::FrontendBound | Factor::BadSpeculation
            | Factor::BackendBound
            | Factor::Suspension => events::s1_set(),
            Factor::CoreBound | Factor::MemoryBound => events::s2_backend_set(),
            Factor::PageFault | Factor::Signal | Factor::ContextSwitch => {
                events::s2_suspension_set()
            }
            Factor::L1Bound | Factor::L2Bound | Factor::L3Bound | Factor::DramBound => {
                events::s3_memory_set()
            }
            Factor::SoftPageFault | Factor::HardPageFault => CounterSet::from_ids(&[
                CounterId::PageFaultsSoft,
                CounterId::PageFaultsHard,
            ])
            .union(events::s1_set()),
            Factor::VoluntaryCs | Factor::InvoluntaryCs => CounterSet::from_ids(&[
                CounterId::CtxSwitchVoluntary,
                CounterId::CtxSwitchInvoluntary,
            ])
            .union(events::s1_set()),
        }
    }

    /// A human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Factor::Retiring => "retiring",
            Factor::FrontendBound => "frontend bound",
            Factor::BadSpeculation => "bad speculation",
            Factor::BackendBound => "backend bound",
            Factor::Suspension => "suspension",
            Factor::CoreBound => "core bound",
            Factor::MemoryBound => "memory bound",
            Factor::PageFault => "page fault",
            Factor::ContextSwitch => "context switch",
            Factor::Signal => "signal",
            Factor::L1Bound => "L1 bound",
            Factor::L2Bound => "L2 bound",
            Factor::L3Bound => "L3 bound",
            Factor::DramBound => "DRAM bound",
            Factor::SoftPageFault => "soft page fault",
            Factor::HardPageFault => "hard page fault",
            Factor::VoluntaryCs => "voluntary context switch",
            Factor::InvoluntaryCs => "involuntary context switch",
        }
    }
}

impl std::fmt::Display for Factor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_is_consistent() {
        // Every child's parent points back.
        for f in Factor::S1 {
            for &c in f.children() {
                assert_eq!(c.parent(), Some(f), "{c} parent mismatch");
                for &g in c.children() {
                    assert_eq!(g.parent(), Some(c), "{g} parent mismatch");
                }
            }
        }
    }

    #[test]
    fn stages_increase_down_the_tree() {
        for f in Factor::S1 {
            assert_eq!(f.stage(), Stage::S1);
            for &c in f.children() {
                assert_eq!(c.stage(), Stage::S2);
                for &g in c.children() {
                    assert_eq!(g.stage(), Stage::S3);
                }
            }
        }
    }

    #[test]
    fn backend_splits_into_core_and_memory() {
        assert_eq!(
            Factor::BackendBound.children(),
            &[Factor::CoreBound, Factor::MemoryBound]
        );
        assert_eq!(Factor::MemoryBound.children().len(), 4);
    }

    #[test]
    fn suspension_children_are_not_time_quantifiable() {
        // The paper's Fig. 10: PF/CS/signal counts need the OLS method.
        for &c in Factor::Suspension.children() {
            assert!(!c.time_quantifiable(), "{c} should be unquantifiable");
        }
        assert!(Factor::Suspension.time_quantifiable());
        assert!(Factor::L2Bound.time_quantifiable());
    }

    #[test]
    fn required_counters_grow_with_depth() {
        let s1 = Factor::BackendBound.required_counters();
        let s2 = Factor::MemoryBound.required_counters();
        let s3 = Factor::DramBound.required_counters();
        assert!(s1.len() < s2.len());
        assert!(s2.len() < s3.len());
        // Every S1 counter remains needed at S3.
        for id in s1.iter() {
            assert!(s3.contains(id));
        }
    }

    #[test]
    fn leaves_have_no_children() {
        for f in [
            Factor::Retiring,
            Factor::L2Bound,
            Factor::DramBound,
            Factor::SoftPageFault,
            Factor::InvoluntaryCs,
            Factor::Signal,
        ] {
            assert!(f.children().is_empty(), "{f} should be a leaf");
        }
    }
}
