//! Counter identifiers, counter sets, snapshots and deltas.
//!
//! A [`CounterId`] names either a hardware PMU event or an OS software
//! counter. Real PMUs can only keep a handful of events active at a time;
//! Vapro's progressive diagnosis (paper §4.3) exploits this by widening the
//! active [`CounterSet`] stage by stage. We model the restriction
//! faithfully: a [`CounterSnapshot`] only contains the events that were in
//! the active set when it was taken.

use std::fmt;

/// A hardware PMU event or OS software counter.
///
/// Hardware names follow Intel conventions (as used in the paper, e.g.
/// `CYCLE_ACTIVITY.STALLS_L2_MISS` for the HPL hardware-bug case study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum CounterId {
    /// Timestamp counter: wall-clock cycles, including suspension time.
    Tsc,
    /// Total retired instructions (`TOT_INS` / `INST_RETIRED.ANY`).
    TotIns,
    /// Unhalted core cycles (`CPU_CLK_UNHALTED.THREAD`): cycles while the
    /// process is actually running on the core.
    ClkUnhalted,
    /// Issue slots where the frontend delivered no uop
    /// (`IDQ_UOPS_NOT_DELIVERED.CORE`).
    IdqUopsNotDelivered,
    /// Retired uop slots (`UOPS_RETIRED.RETIRE_SLOTS`).
    UopsRetiredSlots,
    /// Issue slots wasted on mis-speculated uops and recovery
    /// (`UOPS_ISSUED.ANY - UOPS_RETIRED.RETIRE_SLOTS + recovery`).
    BadSpeculationSlots,
    /// Execution stall cycles with a demand load outstanding anywhere in the
    /// memory hierarchy (`CYCLE_ACTIVITY.STALLS_MEM_ANY`).
    StallsMemAny,
    /// Stall cycles while an L1D miss is outstanding
    /// (`CYCLE_ACTIVITY.STALLS_L1D_MISS`).
    StallsL1dMiss,
    /// Stall cycles while an L2 miss is outstanding
    /// (`CYCLE_ACTIVITY.STALLS_L2_MISS`) — the event correlated with the
    /// Intel L2-eviction bug in paper §6.5.1.
    StallsL2Miss,
    /// Stall cycles while an L3 miss is outstanding (DRAM bound).
    StallsL3Miss,
    /// Core-bound (non-memory) execution stall cycles.
    StallsCore,
    /// Retired loads that hit L1 (`MEM_LOAD_RETIRED.L1_HIT`).
    LoadsL1Hit,
    /// Retired loads that hit L2.
    LoadsL2Hit,
    /// Retired loads that hit L3.
    LoadsL3Hit,
    /// Retired loads served from DRAM.
    LoadsDram,
    /// Retired store instructions.
    Stores,
    /// Retired branch instructions.
    Branches,
    /// Mispredicted branches.
    BranchMisses,
    /// Minor (soft) page faults — resolved without IO.
    PageFaultsSoft,
    /// Major (hard) page faults — required IO.
    PageFaultsHard,
    /// Voluntary context switches (blocking waits).
    CtxSwitchVoluntary,
    /// Involuntary context switches (preemption — the signature of CPU
    /// contention noise in paper §6.4, significant at p < 0.001).
    CtxSwitchInvoluntary,
    /// Signals delivered to the process.
    Signals,
    /// Nanoseconds the process spent suspended (not running on a core).
    /// Derived from the OS scheduler; quantified directly in time.
    SuspensionNs,
}

impl CounterId {
    /// All counters the simulated PMU can produce.
    pub const ALL: [CounterId; 24] = [
        CounterId::Tsc,
        CounterId::TotIns,
        CounterId::ClkUnhalted,
        CounterId::IdqUopsNotDelivered,
        CounterId::UopsRetiredSlots,
        CounterId::BadSpeculationSlots,
        CounterId::StallsMemAny,
        CounterId::StallsL1dMiss,
        CounterId::StallsL2Miss,
        CounterId::StallsL3Miss,
        CounterId::StallsCore,
        CounterId::LoadsL1Hit,
        CounterId::LoadsL2Hit,
        CounterId::LoadsL3Hit,
        CounterId::LoadsDram,
        CounterId::Stores,
        CounterId::Branches,
        CounterId::BranchMisses,
        CounterId::PageFaultsSoft,
        CounterId::PageFaultsHard,
        CounterId::CtxSwitchVoluntary,
        CounterId::CtxSwitchInvoluntary,
        CounterId::Signals,
        CounterId::SuspensionNs,
    ];

    /// Index of this counter inside dense per-counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// True for OS software counters (always readable, no PMU slot needed).
    pub fn is_software(self) -> bool {
        matches!(
            self,
            CounterId::PageFaultsSoft
                | CounterId::PageFaultsHard
                | CounterId::CtxSwitchVoluntary
                | CounterId::CtxSwitchInvoluntary
                | CounterId::Signals
                | CounterId::SuspensionNs
        )
    }

    /// True for counters subject to hardware PMU measurement jitter.
    /// Software counters and the TSC are exact.
    pub fn is_jittered(self) -> bool {
        !self.is_software() && self != CounterId::Tsc
    }

    /// The Intel-style event name, as it would appear in `perf list`.
    pub fn event_name(self) -> &'static str {
        match self {
            CounterId::Tsc => "TSC",
            CounterId::TotIns => "INST_RETIRED.ANY",
            CounterId::ClkUnhalted => "CPU_CLK_UNHALTED.THREAD",
            CounterId::IdqUopsNotDelivered => "IDQ_UOPS_NOT_DELIVERED.CORE",
            CounterId::UopsRetiredSlots => "UOPS_RETIRED.RETIRE_SLOTS",
            CounterId::BadSpeculationSlots => "BAD_SPECULATION.SLOTS",
            CounterId::StallsMemAny => "CYCLE_ACTIVITY.STALLS_MEM_ANY",
            CounterId::StallsL1dMiss => "CYCLE_ACTIVITY.STALLS_L1D_MISS",
            CounterId::StallsL2Miss => "CYCLE_ACTIVITY.STALLS_L2_MISS",
            CounterId::StallsL3Miss => "CYCLE_ACTIVITY.STALLS_L3_MISS",
            CounterId::StallsCore => "CYCLE_ACTIVITY.STALLS_CORE",
            CounterId::LoadsL1Hit => "MEM_LOAD_RETIRED.L1_HIT",
            CounterId::LoadsL2Hit => "MEM_LOAD_RETIRED.L2_HIT",
            CounterId::LoadsL3Hit => "MEM_LOAD_RETIRED.L3_HIT",
            CounterId::LoadsDram => "MEM_LOAD_RETIRED.DRAM",
            CounterId::Stores => "MEM_INST_RETIRED.ALL_STORES",
            CounterId::Branches => "BR_INST_RETIRED.ALL_BRANCHES",
            CounterId::BranchMisses => "BR_MISP_RETIRED.ALL_BRANCHES",
            CounterId::PageFaultsSoft => "minor-faults",
            CounterId::PageFaultsHard => "major-faults",
            CounterId::CtxSwitchVoluntary => "context-switches:voluntary",
            CounterId::CtxSwitchInvoluntary => "context-switches:involuntary",
            CounterId::Signals => "signals",
            CounterId::SuspensionNs => "suspension-ns",
        }
    }
}

impl fmt::Display for CounterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.event_name())
    }
}

/// Number of distinct counters.
pub const NUM_COUNTERS: usize = CounterId::ALL.len();

/// A set of active counters, stored as a bitmask.
///
/// Real PMUs multiplex a limited number of programmable hardware counters;
/// [`CounterSet::hardware_slots`] reports how many hardware events a set
/// needs so callers can enforce the limit the paper's progressive diagnosis
/// works around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CounterSet(u32);

impl CounterSet {
    /// The empty set.
    pub const fn empty() -> Self {
        CounterSet(0)
    }

    /// Every counter the model can produce.
    pub fn all() -> Self {
        let mut s = CounterSet::empty();
        for id in CounterId::ALL {
            s.insert(id);
        }
        s
    }

    /// Build a set from a slice of counter ids.
    pub fn from_ids(ids: &[CounterId]) -> Self {
        let mut s = CounterSet::empty();
        for &id in ids {
            s.insert(id);
        }
        s
    }

    /// Add a counter to the set.
    pub fn insert(&mut self, id: CounterId) {
        self.0 |= 1 << id.index();
    }

    /// Remove a counter from the set.
    pub fn remove(&mut self, id: CounterId) {
        self.0 &= !(1 << id.index());
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, id: CounterId) -> bool {
        self.0 & (1 << id.index()) != 0
    }

    /// Union of two sets.
    pub fn union(self, other: CounterSet) -> CounterSet {
        CounterSet(self.0 | other.0)
    }

    /// Number of counters in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if no counter is active.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of hardware PMU slots this set occupies (software counters
    /// and the fixed-function TSC are free).
    pub fn hardware_slots(self) -> usize {
        self.iter()
            .filter(|id| !id.is_software() && *id != CounterId::Tsc)
            .count()
    }

    /// Iterate over the members in `CounterId::ALL` order.
    pub fn iter(self) -> impl Iterator<Item = CounterId> {
        CounterId::ALL.into_iter().filter(move |id| self.contains(*id))
    }

    /// The raw membership bitmask (bit `id.index()` set per member).
    /// Columnar fragment storage packs each fragment's active counter
    /// values contiguously in `CounterId::ALL` order; the popcount of
    /// the bits below an id recovers that value's position in O(1).
    #[inline]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Rebuild a set from a raw bitmask previously taken with
    /// [`CounterSet::bits`]. Bits beyond `NUM_COUNTERS` are dropped.
    #[inline]
    pub fn from_bits(bits: u32) -> CounterSet {
        CounterSet(bits & ((1u32 << NUM_COUNTERS) - 1))
    }
}

/// A dense vector of counter values; unset entries are zero.
///
/// Used both as an absolute snapshot ([`CounterSnapshot`]) and as a
/// difference between two snapshots ([`CounterDelta`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterVector {
    values: [f64; NUM_COUNTERS],
    set: CounterSet,
}

impl Default for CounterVector {
    fn default() -> Self {
        CounterVector { values: [0.0; NUM_COUNTERS], set: CounterSet::empty() }
    }
}

impl CounterVector {
    /// The active counter set.
    pub fn set(&self) -> CounterSet {
        self.set
    }

    /// Read a counter; returns `None` if it was not in the active set.
    #[inline]
    pub fn get(&self, id: CounterId) -> Option<f64> {
        if self.set.contains(id) {
            Some(self.values[id.index()])
        } else {
            None
        }
    }

    /// Read a counter, defaulting to zero when inactive.
    #[inline]
    pub fn get_or_zero(&self, id: CounterId) -> f64 {
        if self.set.contains(id) {
            self.values[id.index()]
        } else {
            0.0
        }
    }

    /// Write a counter value, activating it in the set.
    pub fn put(&mut self, id: CounterId, value: f64) {
        self.set.insert(id);
        // vapro-lint: allow(R5, CounterId::index() < NUM_COUNTERS by the enum definition)
        self.values[id.index()] = value;
    }

    /// Add to a counter value, activating it in the set.
    pub fn add(&mut self, id: CounterId, value: f64) {
        self.set.insert(id);
        self.values[id.index()] += value;
    }

    /// Accumulate another vector into this one (union of sets).
    pub fn accumulate(&mut self, other: &CounterVector) {
        for id in other.set.iter() {
            self.add(id, other.values[id.index()]);
        }
    }

    /// Element-wise difference `self - earlier`, restricted to counters
    /// active in *both* vectors (a counter must have been enabled for the
    /// whole interval to yield a meaningful delta).
    pub fn delta_since(&self, earlier: &CounterVector) -> CounterVector {
        let mut out = CounterVector::default();
        for id in CounterId::ALL {
            if self.set.contains(id) && earlier.set.contains(id) {
                out.put(id, self.values[id.index()] - earlier.values[id.index()]);
            }
        }
        out
    }

    /// Restrict to the intersection with `keep`, dropping other entries.
    pub fn project(&self, keep: CounterSet) -> CounterVector {
        let mut out = CounterVector::default();
        for id in self.set.iter() {
            if keep.contains(id) {
                out.put(id, self.values[id.index()]);
            }
        }
        out
    }

    /// Iterate over `(id, value)` pairs of active counters.
    pub fn entries(&self) -> impl Iterator<Item = (CounterId, f64)> + '_ {
        self.set.iter().map(move |id| (id, self.values[id.index()]))
    }
}

/// An absolute reading of the active counters at a point in virtual time.
pub type CounterSnapshot = CounterVector;

/// The change in counter values across a fragment.
pub type CounterDelta = CounterVector;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_insert_remove_contains() {
        let mut s = CounterSet::empty();
        assert!(s.is_empty());
        s.insert(CounterId::TotIns);
        s.insert(CounterId::Tsc);
        assert!(s.contains(CounterId::TotIns));
        assert!(s.contains(CounterId::Tsc));
        assert!(!s.contains(CounterId::StallsL2Miss));
        assert_eq!(s.len(), 2);
        s.remove(CounterId::Tsc);
        assert!(!s.contains(CounterId::Tsc));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn all_set_covers_every_counter() {
        let s = CounterSet::all();
        for id in CounterId::ALL {
            assert!(s.contains(id), "{id} missing from all()");
        }
        assert_eq!(s.len(), NUM_COUNTERS);
    }

    #[test]
    fn hardware_slots_excludes_software_and_tsc() {
        let s = CounterSet::from_ids(&[
            CounterId::Tsc,
            CounterId::TotIns,
            CounterId::PageFaultsSoft,
            CounterId::StallsL2Miss,
        ]);
        assert_eq!(s.hardware_slots(), 2);
    }

    #[test]
    fn vector_get_put_respects_set() {
        let mut v = CounterVector::default();
        assert_eq!(v.get(CounterId::TotIns), None);
        v.put(CounterId::TotIns, 1000.0);
        assert_eq!(v.get(CounterId::TotIns), Some(1000.0));
        assert_eq!(v.get_or_zero(CounterId::Tsc), 0.0);
    }

    #[test]
    fn delta_requires_both_active() {
        let mut a = CounterVector::default();
        a.put(CounterId::TotIns, 100.0);
        a.put(CounterId::Tsc, 50.0);
        let mut b = a.clone();
        b.put(CounterId::TotIns, 175.0);
        b.put(CounterId::StallsL2Miss, 9.0); // not in `a`
        let d = b.delta_since(&a);
        assert_eq!(d.get(CounterId::TotIns), Some(75.0));
        assert_eq!(d.get(CounterId::Tsc), Some(0.0));
        assert_eq!(d.get(CounterId::StallsL2Miss), None);
    }

    #[test]
    fn accumulate_unions_sets() {
        let mut a = CounterVector::default();
        a.put(CounterId::TotIns, 10.0);
        let mut b = CounterVector::default();
        b.put(CounterId::TotIns, 5.0);
        b.put(CounterId::Stores, 2.0);
        a.accumulate(&b);
        assert_eq!(a.get(CounterId::TotIns), Some(15.0));
        assert_eq!(a.get(CounterId::Stores), Some(2.0));
    }

    #[test]
    fn project_drops_entries() {
        let mut a = CounterVector::default();
        a.put(CounterId::TotIns, 10.0);
        a.put(CounterId::Stores, 3.0);
        let p = a.project(CounterSet::from_ids(&[CounterId::TotIns]));
        assert_eq!(p.get(CounterId::TotIns), Some(10.0));
        assert_eq!(p.get(CounterId::Stores), None);
    }

    #[test]
    fn display_names_are_intel_style() {
        assert_eq!(CounterId::StallsL2Miss.to_string(), "CYCLE_ACTIVITY.STALLS_L2_MISS");
        assert_eq!(
            CounterId::IdqUopsNotDelivered.to_string(),
            "IDQ_UOPS_NOT_DELIVERED.CORE"
        );
    }
}
