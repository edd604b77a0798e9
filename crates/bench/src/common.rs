//! Shared experiment plumbing: options, noise presets, and report
//! formatting helpers.

use vapro_core::diagnose::{diagnose_cluster, DiagnosisReport};
use vapro_core::{ColumnarPool, FragmentBatch, LaneView, PoolView, VaproConfig};
use vapro_sim::{NoiseEvent, NoiseKind, NoiseSchedule, TargetSet, VirtualTime};

/// Options common to every experiment.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Override the rank/thread count (None = the experiment's scaled
    /// default; with `full` = the paper's scale).
    pub ranks: Option<usize>,
    /// Override the iteration count.
    pub iterations: Option<usize>,
    /// Override the repeated-run count (Fig. 1, Fig. 16).
    pub runs: Option<usize>,
    /// Use the paper's full scale (up to 2048 ranks — minutes, not
    /// seconds).
    pub full: bool,
    /// Master seed.
    pub seed: u64,
    /// Emit machine-readable JSON alongside the text report.
    pub json: bool,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            ranks: None,
            iterations: None,
            runs: None,
            full: false,
            seed: 0xC0FFEE,
            json: false,
        }
    }
}

impl ExpOpts {
    /// Resolve the rank count: explicit override, else full-scale value
    /// when `--full`, else the scaled default.
    pub fn resolve_ranks(&self, scaled: usize, full_scale: usize) -> usize {
        self.ranks.unwrap_or(if self.full { full_scale } else { scaled })
    }

    /// Resolve the iteration count.
    pub fn resolve_iters(&self, default: usize) -> usize {
        self.iterations.unwrap_or(default)
    }

    /// Resolve the run count.
    pub fn resolve_runs(&self, default: usize) -> usize {
        self.runs.unwrap_or(default)
    }
}

/// The `stress`-style computing noise of the paper's §6: a CPU hog
/// sharing the victim core, stealing half the cycles.
pub fn computing_noise(targets: TargetSet, start: VirtualTime, end: VirtualTime) -> NoiseEvent {
    NoiseEvent::during(NoiseKind::CpuContention { steal: 0.5 }, targets, start, end)
}

/// The STREAM-style memory noise: bandwidth contention from idle cores.
pub fn memory_noise(targets: TargetSet, start: VirtualTime, end: VirtualTime) -> NoiseEvent {
    NoiseEvent::during(NoiseKind::MemContention { intensity: 1.5 }, targets, start, end)
}

/// A schedule holding a single always-on event.
pub fn always(kind: NoiseKind, targets: TargetSet) -> NoiseSchedule {
    NoiseSchedule::quiet().with(NoiseEvent::always(kind, targets))
}

/// The default Vapro configuration used by the experiments (context-free
/// STG, per §6.2's conclusion).
pub fn vapro_cf() -> VaproConfig {
    VaproConfig::context_free()
}

/// Format a report header.
pub fn header(title: &str, detail: &str) -> String {
    format!("== {title} ==\n{detail}\n\n")
}

/// Format a `(label, value)` table with aligned columns.
pub fn kv_table(rows: &[(String, String)]) -> String {
    let w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    rows.iter()
        .map(|(k, v)| format!("  {k:<w$}  {v}\n"))
        .collect()
}

/// When `--json` is set, append a fenced machine-readable block to the
/// report (plot scripts grep for the `### json <name>` marker).
pub fn maybe_json(opts: &ExpOpts, name: &str, value: serde_json::Value) -> String {
    if !opts.json {
        return String::new();
    }
    format!(
        "\n### json {name}\n{}\n### end json\n",
        serde_json::to_string(&value).expect("serialisable")
    )
}

/// Every fragment a run's clients shipped (`shipped`, indexed by rank)
/// in one pool.
pub fn run_pool(shipped: &[Vec<FragmentBatch>]) -> ColumnarPool {
    ColumnarPool::from_batches(shipped.iter().flatten(), None)
}

/// The pooled edge lane with the most total time (the last one on a tie).
pub fn hottest_edge(pool: &ColumnarPool) -> Option<LaneView<'_>> {
    (0..pool.num_edges())
        .map(|i| pool.edge(i).2)
        .max_by_key(|l| (0..l.len()).map(|i| l.end(i).saturating_since(l.start(i)).ns()).sum::<u64>())
}

/// Progressive diagnosis over every fragment of the run's hottest edge,
/// pooled across ranks — the inter-process comparison of the case
/// studies (§6.5): slow ranks' fragments against healthy ranks' fragments
/// of the same state.
pub fn diagnose_hottest_edge(pool: &ColumnarPool) -> Option<DiagnosisReport> {
    let lane = hottest_edge(pool)?;
    let members: Vec<u32> = (0..lane.len() as u32).collect();
    diagnose_cluster(lane, &members, 1.2, 0.25, 0.05)
}

/// Mean bytes a rank of the run ships, per virtual second of
/// `makespan`: the encoded length of its frames, one per report period
/// (`shipped`, indexed by rank) — the §6.2 storage rate.
pub fn shipped_bytes_per_sec(shipped: &[Vec<FragmentBatch>], makespan: VirtualTime) -> f64 {
    let total: usize = shipped.iter().flatten().map(|frame| frame.encode().len()).sum();
    total as f64 / shipped.len().max(1) as f64 / makespan.as_secs_f64().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_resolution_order() {
        let mut o = ExpOpts::default();
        assert_eq!(o.resolve_ranks(64, 2048), 64);
        o.full = true;
        assert_eq!(o.resolve_ranks(64, 2048), 2048);
        o.ranks = Some(128);
        assert_eq!(o.resolve_ranks(64, 2048), 128);
    }

    #[test]
    fn kv_table_aligns() {
        let t = kv_table(&[
            ("a".into(), "1".into()),
            ("long-key".into(), "2".into()),
        ]);
        assert!(t.contains("a         1"));
        assert!(t.contains("long-key  2"));
    }
}
