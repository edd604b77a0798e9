//! Abstract workload descriptions for computation fragments.
//!
//! A [`WorkloadSpec`] is what a mini-app "executes" between two external
//! invocations: an instruction count, a memory-reference count with a cache
//! [`Locality`] mix, and a branch profile. The [`crate::CpuModel`] turns a
//! spec into cycles and counters. Two fragments with equal specs are
//! *fixed-workload* in the paper's sense: their TOT_INS (and other
//! workload-proxy counters) agree up to PMU jitter, while their elapsed time
//! may differ under noise.


/// Fractions of memory references satisfied at each level of the hierarchy.
/// The four fields must sum to 1 (enforced by [`Locality::normalized`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Locality {
    /// Fraction of references that hit in L1D.
    pub l1: f64,
    /// Fraction that miss L1 but hit L2.
    pub l2: f64,
    /// Fraction that miss L2 but hit L3.
    pub l3: f64,
    /// Fraction served from DRAM.
    pub dram: f64,
}

impl Locality {
    /// Cache-resident working set: virtually everything hits L1/L2.
    pub const CACHE_HOT: Locality = Locality { l1: 0.96, l2: 0.03, l3: 0.008, dram: 0.002 };

    /// Typical mixed scientific kernel.
    pub const MIXED: Locality = Locality { l1: 0.85, l2: 0.08, l3: 0.045, dram: 0.025 };

    /// Streaming access with little reuse: many DRAM references.
    pub const STREAMING: Locality = Locality { l1: 0.70, l2: 0.10, l3: 0.08, dram: 0.12 };

    /// Pointer-chasing / irregular access (graph workloads).
    pub const IRREGULAR: Locality = Locality { l1: 0.60, l2: 0.12, l3: 0.13, dram: 0.15 };

    /// Rescale so the four fractions sum to exactly 1.
    pub fn normalized(self) -> Locality {
        let s = self.l1 + self.l2 + self.l3 + self.dram;
        if s <= 0.0 {
            return Locality::CACHE_HOT;
        }
        Locality { l1: self.l1 / s, l2: self.l2 / s, l3: self.l3 / s, dram: self.dram / s }
    }

    /// True when each fraction is finite, non-negative, and they sum to ~1.
    pub fn is_valid(self) -> bool {
        let parts = [self.l1, self.l2, self.l3, self.dram];
        parts.iter().all(|p| p.is_finite() && *p >= 0.0)
            && (parts.iter().sum::<f64>() - 1.0).abs() < 1e-9
    }
}

/// The abstract work of one computation fragment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Retired instructions.
    pub instructions: f64,
    /// Memory reference instructions (loads + stores) — a subset of
    /// `instructions`.
    pub mem_refs: f64,
    /// Fraction of `mem_refs` that are stores.
    pub store_fraction: f64,
    /// Where memory references are satisfied.
    pub locality: Locality,
    /// Branch instructions as a fraction of `instructions`.
    pub branch_fraction: f64,
    /// Branch misprediction rate.
    pub branch_miss_rate: f64,
    /// Extra frontend pressure in [0, 1): fraction of issue slots starved
    /// by instruction fetch/decode (large code footprints, virtual calls).
    pub frontend_pressure: f64,
    /// Bytes of fresh memory touched for the first time (drives soft page
    /// faults at 4 KiB granularity).
    pub fresh_bytes: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            instructions: 0.0,
            mem_refs: 0.0,
            store_fraction: 0.3,
            locality: Locality::MIXED,
            branch_fraction: 0.12,
            branch_miss_rate: 0.01,
            frontend_pressure: 0.02,
            fresh_bytes: 0.0,
        }
    }
}

impl WorkloadSpec {
    /// A compute-bound kernel: `ins` instructions, few memory references,
    /// cache-hot locality (DGEMM-like inner blocks, EP's random-number loop).
    pub fn compute_bound(ins: f64) -> Self {
        WorkloadSpec {
            instructions: ins,
            mem_refs: ins * 0.15,
            locality: Locality::CACHE_HOT,
            branch_fraction: 0.05,
            branch_miss_rate: 0.002,
            ..WorkloadSpec::default()
        }
    }

    /// A memory-bound streaming kernel over `bytes` of data (STREAM-like,
    /// sparse matrix-vector products, large vector updates).
    pub fn memory_bound(bytes: f64) -> Self {
        // ~1 memory reference per 8 bytes plus loop overhead.
        let refs = bytes / 8.0;
        WorkloadSpec {
            instructions: refs * 2.5,
            mem_refs: refs,
            locality: Locality::STREAMING,
            branch_fraction: 0.08,
            branch_miss_rate: 0.005,
            ..WorkloadSpec::default()
        }
    }

    /// An irregular, pointer-chasing kernel with `refs` references
    /// (graph traversal, hash probing).
    pub fn irregular(refs: f64) -> Self {
        WorkloadSpec {
            instructions: refs * 4.0,
            mem_refs: refs,
            locality: Locality::IRREGULAR,
            branch_fraction: 0.2,
            branch_miss_rate: 0.06,
            ..WorkloadSpec::default()
        }
    }

    /// A balanced kernel: `ins` instructions with a MIXED locality.
    pub fn mixed(ins: f64) -> Self {
        WorkloadSpec {
            instructions: ins,
            mem_refs: ins * 0.35,
            locality: Locality::MIXED,
            ..WorkloadSpec::default()
        }
    }

    /// Scale every extensive quantity (instructions, refs, fresh bytes)
    /// by `k`, keeping rates and fractions intact.
    pub fn scaled(mut self, k: f64) -> Self {
        self.instructions *= k;
        self.mem_refs *= k;
        self.fresh_bytes *= k;
        self
    }

    /// Set the locality mix (builder style).
    pub fn with_locality(mut self, locality: Locality) -> Self {
        self.locality = locality.normalized();
        self
    }

    /// Set the number of fresh bytes (builder style).
    pub fn with_fresh_bytes(mut self, bytes: f64) -> Self {
        self.fresh_bytes = bytes;
        self
    }

    /// Basic sanity: non-negative, finite, refs ≤ instructions, valid
    /// locality and rates in range.
    pub fn is_valid(&self) -> bool {
        self.instructions.is_finite()
            && self.instructions >= 0.0
            && self.mem_refs.is_finite()
            && self.mem_refs >= 0.0
            && self.mem_refs <= self.instructions + 1e-9
            && (0.0..=1.0).contains(&self.store_fraction)
            && (0.0..=1.0).contains(&self.branch_fraction)
            && (0.0..=1.0).contains(&self.branch_miss_rate)
            && (0.0..1.0).contains(&self.frontend_pressure)
            && self.fresh_bytes >= 0.0
            && self.locality.normalized().is_valid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_presets_are_normalized() {
        for loc in [
            Locality::CACHE_HOT,
            Locality::MIXED,
            Locality::STREAMING,
            Locality::IRREGULAR,
        ] {
            assert!(loc.is_valid(), "{loc:?} does not sum to 1");
        }
    }

    #[test]
    fn normalized_rescales() {
        let loc = Locality { l1: 2.0, l2: 1.0, l3: 1.0, dram: 0.0 }.normalized();
        assert!(loc.is_valid());
        assert!((loc.l1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalized_handles_degenerate_input() {
        let loc = Locality { l1: 0.0, l2: 0.0, l3: 0.0, dram: 0.0 }.normalized();
        assert!(loc.is_valid());
    }

    #[test]
    fn builders_produce_valid_specs() {
        assert!(WorkloadSpec::compute_bound(1e6).is_valid());
        assert!(WorkloadSpec::memory_bound(1e7).is_valid());
        assert!(WorkloadSpec::irregular(1e5).is_valid());
        assert!(WorkloadSpec::mixed(1e6).is_valid());
    }

    #[test]
    fn scaled_scales_extensive_quantities_only() {
        let w = WorkloadSpec::mixed(1000.0).with_fresh_bytes(4096.0);
        let s = w.scaled(3.0);
        assert_eq!(s.instructions, 3000.0);
        assert_eq!(s.fresh_bytes, 3.0 * 4096.0);
        assert_eq!(s.branch_fraction, w.branch_fraction);
        assert!(s.is_valid());
    }

    #[test]
    fn memory_bound_is_dram_heavy_compared_to_compute_bound() {
        let m = WorkloadSpec::memory_bound(1e6);
        let c = WorkloadSpec::compute_bound(1e6);
        assert!(m.locality.dram > c.locality.dram * 10.0);
    }
}
