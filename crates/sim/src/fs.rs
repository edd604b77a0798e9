//! A simulated shared (distributed) filesystem.
//!
//! IO latency on a shared parallel filesystem is heavy-tailed: most
//! operations complete near the base cost, but contention from other
//! tenants occasionally inflates an operation by large factors — the
//! behaviour behind the RAxML case study (paper §6.5.3), where one process
//! merging many small files suffered large execution-time variance.
//!
//! The model: every operation costs `base + bytes/bandwidth`, multiplied
//! by a Pareto-tailed contention draw whose ceiling comes from the active
//! `FsInterference` noise. An optional **client-side file buffer** caches
//! file contents after first access — the mitigation the paper implements,
//! which cut the standard deviation of RAxML's run time by 73.5 %.

use parking_lot::Mutex;
use rand::Rng;
use std::collections::HashMap;

/// Cost model for the shared filesystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsConfig {
    /// Fixed per-operation latency (metadata + RPC), ns. Small-file
    /// workloads are dominated by this term.
    pub base_ns: f64,
    /// Streaming bandwidth, bytes per ns.
    pub bytes_per_ns: f64,
    /// Open/close metadata operation cost, ns.
    pub meta_ns: f64,
    /// Pareto tail shape for contention draws (higher = lighter tail).
    pub tail_shape: f64,
    /// Probability that an operation hits contention at all.
    pub tail_prob: f64,
    /// Cost of serving one byte from the client-side buffer, ns
    /// (a memcpy, orders of magnitude below the network path).
    pub buffered_byte_ns: f64,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            base_ns: 80_000.0,      // 80 µs RPC round-trip
            bytes_per_ns: 1.0,      // ~1 GB/s per client
            meta_ns: 120_000.0,
            tail_shape: 1.8,
            tail_prob: 0.12,
            buffered_byte_ns: 0.02, // ~50 GB/s memcpy
        }
    }
}

/// Per-file metadata.
#[derive(Debug, Clone, Default)]
struct FileMeta {
    size: u64,
}

/// The shared filesystem, plus per-rank client buffers.
pub struct SimFs {
    cfg: FsConfig,
    files: Mutex<HashMap<u64, FileMeta>>,
    /// Whether ranks run with the client-side file buffer (the fix).
    buffered: bool,
}

/// A per-rank view of buffered file contents (bytes cached so far) and
/// metadata (files already opened once).
#[derive(Debug, Default, Clone)]
pub struct ClientBuffer {
    cached: HashMap<u64, u64>,
    opened: std::collections::HashSet<u64>,
}

impl ClientBuffer {
    /// Bytes of `fd` already cached.
    pub fn cached_bytes(&self, fd: u64) -> u64 {
        self.cached.get(&fd).copied().unwrap_or(0)
    }

    /// Has `fd` been opened before by this rank?
    pub fn is_opened(&self, fd: u64) -> bool {
        self.opened.contains(&fd)
    }

    fn note(&mut self, fd: u64, bytes: u64) {
        let e = self.cached.entry(fd).or_insert(0);
        *e = (*e).max(bytes);
    }

    fn note_open(&mut self, fd: u64) {
        self.opened.insert(fd);
    }
}

impl SimFs {
    /// A filesystem with the given cost model. `buffered` enables the
    /// client-side file buffer on every rank.
    pub fn new(cfg: FsConfig, buffered: bool) -> Self {
        SimFs { cfg, files: Mutex::new(HashMap::new()), buffered }
    }

    /// The cost model.
    pub fn config(&self) -> &FsConfig {
        &self.cfg
    }

    /// Cost of an `open` of `fd` (metadata RPC), under `fs_slowdown` ≥ 1.
    /// With the client buffer, re-opening a previously opened file costs
    /// only a lookup (the buffer caches the dentry/inode too).
    pub fn open_cost_ns<R: Rng + ?Sized>(
        &self,
        buffer: &mut ClientBuffer,
        fd: u64,
        fs_slowdown: f64,
        rng: &mut R,
    ) -> f64 {
        if self.buffered && buffer.is_opened(fd) {
            return 200.0; // hash lookup + permission recheck
        }
        if self.buffered {
            buffer.note_open(fd);
        }
        self.cfg.meta_ns * self.contention(fs_slowdown, rng)
    }

    /// Cost of reading `bytes` from `fd`. Buffered re-reads bypass the
    /// network path entirely.
    pub fn read_cost_ns<R: Rng + ?Sized>(
        &self,
        buffer: &mut ClientBuffer,
        fd: u64,
        bytes: u64,
        fs_slowdown: f64,
        rng: &mut R,
    ) -> f64 {
        if self.buffered && buffer.cached_bytes(fd) >= bytes {
            return bytes as f64 * self.cfg.buffered_byte_ns;
        }
        let cost = (self.cfg.base_ns + bytes as f64 / self.cfg.bytes_per_ns)
            * self.contention(fs_slowdown, rng);
        if self.buffered {
            buffer.note(fd, bytes);
        }
        cost
    }

    /// Cost of writing `bytes` to `fd` (tracks file size; writes always
    /// take the network path — the paper's buffer is a read cache).
    pub fn write_cost_ns<R: Rng + ?Sized>(
        &self,
        fd: u64,
        bytes: u64,
        fs_slowdown: f64,
        rng: &mut R,
    ) -> f64 {
        {
            let mut files = self.files.lock();
            let meta = files.entry(fd).or_default();
            meta.size = meta.size.max(bytes);
        }
        (self.cfg.base_ns + bytes as f64 / self.cfg.bytes_per_ns)
            * self.contention(fs_slowdown, rng)
    }

    /// Known size of `fd` (0 if never written).
    pub fn file_size(&self, fd: u64) -> u64 {
        self.files.lock().get(&fd).map_or(0, |m| m.size)
    }

    /// A multiplicative contention factor ≥ 1 with a Pareto tail capped at
    /// `fs_slowdown` (which is 1.0 when no `FsInterference` noise is
    /// active, collapsing the draw to exactly 1).
    fn contention<R: Rng + ?Sized>(&self, fs_slowdown: f64, rng: &mut R) -> f64 {
        if fs_slowdown <= 1.0 {
            return 1.0;
        }
        if rng.gen::<f64>() >= self.cfg.tail_prob {
            return 1.0;
        }
        // Pareto(shape) on [1, inf), truncated at fs_slowdown.
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let draw = u.powf(-1.0 / self.cfg.tail_shape);
        draw.min(fs_slowdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    #[test]
    fn quiet_fs_is_deterministic() {
        let fs = SimFs::new(FsConfig::default(), false);
        let mut buf = ClientBuffer::default();
        let mut r = rng();
        let a = fs.read_cost_ns(&mut buf, 1, 4096, 1.0, &mut r);
        let b = fs.read_cost_ns(&mut buf, 1, 4096, 1.0, &mut r);
        assert_eq!(a, b);
        assert!(a >= fs.config().base_ns);
    }

    #[test]
    fn small_files_are_latency_dominated() {
        let fs = SimFs::new(FsConfig::default(), false);
        let mut buf = ClientBuffer::default();
        let mut r = rng();
        let small = fs.read_cost_ns(&mut buf, 1, 64, 1.0, &mut r);
        let big = fs.read_cost_ns(&mut buf, 2, 1 << 20, 1.0, &mut r);
        // A 64-byte read costs almost the same as the base latency…
        assert!(small < fs.config().base_ns * 1.01);
        // …while a 1 MiB read is bandwidth-dominated.
        assert!(big > small * 5.0);
    }

    #[test]
    fn interference_produces_heavy_tail() {
        let fs = SimFs::new(FsConfig::default(), false);
        let mut buf = ClientBuffer::default();
        let mut r = rng();
        let costs: Vec<f64> = (0..2000)
            .map(|i| fs.read_cost_ns(&mut buf, i, 4096, 10.0, &mut r))
            .collect();
        let base = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = costs.iter().cloned().fold(0.0, f64::max);
        let slow = costs.iter().filter(|&&c| c > base * 1.5).count();
        assert!(max > base * 3.0, "no tail: max {max} base {base}");
        // Tail events are a minority.
        assert!(slow > 0 && slow < costs.len() / 3, "slow = {slow}");
    }

    #[test]
    fn buffer_eliminates_reread_cost() {
        let fs = SimFs::new(FsConfig::default(), true);
        let mut buf = ClientBuffer::default();
        let mut r = rng();
        let first = fs.read_cost_ns(&mut buf, 9, 4096, 10.0, &mut r);
        let second = fs.read_cost_ns(&mut buf, 9, 4096, 10.0, &mut r);
        assert!(second < first / 100.0, "buffered read {second} vs first {first}");
        // A larger read than what is cached goes back to the network.
        let bigger = fs.read_cost_ns(&mut buf, 9, 8192, 1.0, &mut r);
        assert!(bigger > second * 10.0);
    }

    #[test]
    fn writes_track_file_size() {
        let fs = SimFs::new(FsConfig::default(), false);
        let mut r = rng();
        assert_eq!(fs.file_size(3), 0);
        let _ = fs.write_cost_ns(3, 1000, 1.0, &mut r);
        assert_eq!(fs.file_size(3), 1000);
        let _ = fs.write_cost_ns(3, 500, 1.0, &mut r);
        assert_eq!(fs.file_size(3), 1000); // max, not last
    }
}
