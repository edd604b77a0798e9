//! OS event cost model: how long page faults, context switches and signals
//! suspend the process.
//!
//! These feed the *suspension* branch of the paper's variance breakdown
//! model (Fig. 10): suspension splits into page faults (soft/hard), context
//! switches (voluntary/involuntary) and signals, each with a characteristic
//! service time. The constants are rough Linux magnitudes; the diagnosis
//! algorithms only rely on their relative order.


/// Per-event service times in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsCosts {
    /// A minor fault: page already resident, only PTE fixup.
    pub soft_fault_ns: f64,
    /// A major fault: page must be read from storage.
    pub hard_fault_ns: f64,
    /// A voluntary context switch (blocking wait).
    pub ctx_switch_ns: f64,
    /// Signal delivery and handler dispatch.
    pub signal_ns: f64,
    /// Scheduler timeslice: how long a preempted process waits before
    /// being scheduled again under 2-way CPU contention.
    pub timeslice_ns: f64,
}

impl Default for OsCosts {
    fn default() -> Self {
        OsCosts {
            soft_fault_ns: 2_500.0,
            hard_fault_ns: 6_000_000.0,
            ctx_switch_ns: 3_000.0,
            signal_ns: 4_000.0,
            timeslice_ns: 4_000_000.0,
        }
    }
}

impl OsCosts {
    /// Validity: all positive and finite.
    pub fn is_valid(&self) -> bool {
        [
            self.soft_fault_ns,
            self.hard_fault_ns,
            self.ctx_switch_ns,
            self.signal_ns,
            self.timeslice_ns,
        ]
        .iter()
        .all(|v| v.is_finite() && *v > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(OsCosts::default().is_valid());
    }

    #[test]
    fn hard_faults_dwarf_soft_faults() {
        let c = OsCosts::default();
        assert!(c.hard_fault_ns > 100.0 * c.soft_fault_ns);
    }
}
