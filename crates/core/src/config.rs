//! Runtime configuration.

use crate::compute::ExecutorKind;
use crate::fault::FaultPlan;
use crate::netfault::NetFaultPlan;
use crate::policy::PolicyKind;
use crate::storage::DiskModel;

/// Network model parameters (latency + bandwidth) for inter-node
/// messages: the fabric's own model.
pub type NetModel = armci_sim::NetworkModel;

/// The largest legal [`MrtsConfig::compute_scale`]: a handler would have
/// to run ~585 years before its scaled charge overflows a `Duration`.
const MAX_COMPUTE_SCALE: f64 = 1e9;

/// The slowest legal [`MrtsConfig::disk`] bandwidth in bytes/second: at
/// this rate a record of `isize::MAX` bytes, the largest a `Vec` holds,
/// still takes less than `Duration::MAX`.
const MIN_DISK_BANDWIDTH: f64 = 1.0;

/// Configuration of an MRTS instance.
#[derive(Clone, Debug)]
pub struct MrtsConfig {
    /// Number of (simulated) nodes.
    pub nodes: usize,
    /// Cores per node, used by the computing layer.
    pub cores_per_node: usize,
    /// Memory budget per node in bytes; `usize::MAX` disables the
    /// out-of-core layer entirely (pure in-core execution).
    pub mem_budget: usize,
    /// Hard swapping threshold: keep at least `hard_mult × largest spilled
    /// object` of headroom free when admitting new objects (paper default
    /// 2).
    pub hard_threshold_mult: f64,
    /// Soft swapping threshold: when free memory drops below this fraction
    /// of the budget, start swapping idle objects (paper default ½).
    pub soft_threshold_frac: f64,
    /// Swapping scheme.
    pub policy: PolicyKind,
    /// Computing-layer backend (TBB-like work stealing vs GCD-like FIFO).
    pub executor: ExecutorKind,
    /// Virtual-time scale applied to measured handler durations (DES mode).
    /// 1.0 charges measured wall time as-is; at most 1e9.
    pub compute_scale: f64,
    /// Network model.
    pub net: NetModel,
    /// Disk model (DES mode charging); its bandwidth is at least 1 B/s
    /// (infinite: an instant disk).
    pub disk: DiskModel,
    /// Spill directory for the threaded mode's segment log (`SegmentStore`:
    /// small writes coalesce into segment-sized batches, large ones get a
    /// segment each, dead records are reclaimed segment by segment);
    /// `None` spills to memory (still exercising serialization).
    pub spill_dir: Option<std::path::PathBuf>,
    /// Width of the storage pipeline: I/O worker threads per node in the
    /// threaded engine (pack/unpack run there, off the worker thread) and
    /// modeled parallel disk channels in the DES engine.
    pub io_threads: usize,
    /// Segment log: bytes buffered per segment before it is sealed with a
    /// single write syscall. A record of at least half this size is not
    /// buffered: it is written directly as a segment of its own.
    pub segment_bytes: usize,
    /// Segment log: once dead bytes (dead records, headers, tombstones)
    /// exceed this fraction of the log, a cleaning pass unlinks the
    /// segments that died whole and, if the log is still over, relocates
    /// the live records of the emptiest ones until garbage is down to
    /// half this fraction. Bounds the segment files to
    /// `live / (1 - frac)` plus about one segment; `1.0` never cleans.
    pub segment_garbage_frac: f64,
    /// Charge a synthetic, size-proportional compute cost instead of
    /// measured wall time on the virtual-time engine. The DES normally
    /// charges *measured* compute (the paper's methodology), which makes
    /// the event schedule — and, under memory pressure, eviction choices
    /// and message interleavings — depend on real machine timing. With
    /// this flag the schedule is a pure function of `(config, inputs)`:
    /// required for byte-identity checks across runs and machines
    /// (`tests/chaos.rs`'s fault-free-schedule sweep, where storage and
    /// fabric faults must cost no virtual time), wrong for performance
    /// regeneration (the paper's tables need measured compute).
    pub deterministic_compute: bool,
    /// Deterministic storage fault schedule; `None` runs fault-free. When
    /// set, every node's spill store is wrapped in a
    /// [`crate::fault::FaultyStore`] seeded with `plan.seed + node`.
    pub fault: Option<FaultPlan>,
    /// Deterministic network fault schedule; `None` runs over a reliable
    /// fabric. When set, the threaded engine activates its
    /// reliable-delivery layer (sequence numbers, acks, retransmits,
    /// receiver dedup) and injects the plan's faults into every physical
    /// transmission; the DES models the same faults on its virtual
    /// channels.
    pub net_fault: Option<NetFaultPlan>,
    /// Cross-node work stealing: an idle node asks a loaded peer for a
    /// ready task (an unpinned object with queued work), which migrates
    /// over the regular install path. Off by default — stealing pays off
    /// on imbalanced (graded/NUPDR) inputs at node counts where idle
    /// fraction dominates, and is deliberately opt-in elsewhere.
    pub work_stealing: bool,
}

impl Default for MrtsConfig {
    fn default() -> Self {
        MrtsConfig {
            nodes: 1,
            cores_per_node: 1,
            mem_budget: usize::MAX,
            hard_threshold_mult: 2.0,
            soft_threshold_frac: 0.5,
            policy: PolicyKind::Lru,
            executor: ExecutorKind::WorkStealing,
            compute_scale: 1.0,
            net: NetModel::cluster(),
            disk: DiskModel::cluster_disk(),
            spill_dir: None,
            io_threads: 2,
            segment_bytes: 1 << 20,
            segment_garbage_frac: 0.5,
            deterministic_compute: false,
            fault: None,
            net_fault: None,
            work_stealing: false,
        }
    }
}

impl MrtsConfig {
    /// In-core configuration on `nodes` nodes (no memory pressure).
    pub fn in_core(nodes: usize) -> Self {
        MrtsConfig {
            nodes,
            ..MrtsConfig::default()
        }
    }

    /// Out-of-core configuration: `nodes` nodes with `mem_budget` bytes
    /// each.
    pub fn out_of_core(nodes: usize, mem_budget: usize) -> Self {
        MrtsConfig {
            nodes,
            mem_budget,
            ..MrtsConfig::default()
        }
    }

    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores_per_node = cores;
        self
    }

    /// Set the storage-pipeline width (I/O threads / disk channels).
    pub fn with_io_threads(mut self, n: usize) -> Self {
        self.io_threads = n;
        self
    }

    /// Inject the faults of `plan` into every node's spill store.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Inject the message faults of `plan` into the fabric (and turn on
    /// the threaded engine's reliable-delivery layer).
    pub fn with_net_faults(mut self, plan: NetFaultPlan) -> Self {
        self.net_fault = Some(plan);
        self
    }

    /// Enable cross-node work stealing for idle nodes.
    pub fn with_work_stealing(mut self) -> Self {
        self.work_stealing = true;
        self
    }

    /// Sanity-check the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("nodes must be > 0".into());
        }
        if self.cores_per_node == 0 {
            return Err("cores_per_node must be > 0".into());
        }
        if !(0.0..=1.0).contains(&self.soft_threshold_frac) {
            return Err("soft_threshold_frac must be in [0, 1]".into());
        }
        // (NaN is not finite.)
        if !self.hard_threshold_mult.is_finite() || self.hard_threshold_mult < 0.0 {
            return Err("hard_threshold_mult must be finite and >= 0".into());
        }
        let scale = self.compute_scale;
        if scale.is_nan() || scale <= 0.0 || scale > MAX_COMPUTE_SCALE {
            return Err(format!(
                "compute_scale must be in (0, {MAX_COMPUTE_SCALE:e}]: a larger one \
                 overflows a Duration when it scales a measured charge"
            ));
        }
        // An infinite bandwidth is an instant disk.
        if self.disk.bandwidth.is_nan() || self.disk.bandwidth < MIN_DISK_BANDWIDTH {
            return Err(format!(
                "disk.bandwidth must be >= {MIN_DISK_BANDWIDTH} B/s: a slower disk's \
                 time to write the largest record overflows a Duration"
            ));
        }
        if self.io_threads == 0 {
            return Err("io_threads must be > 0".into());
        }
        if self.segment_bytes == 0 {
            return Err("segment_bytes must be > 0".into());
        }
        if !(0.0..=1.0).contains(&self.segment_garbage_frac) || self.segment_garbage_frac == 0.0 {
            return Err("segment_garbage_frac must be in (0, 1]".into());
        }
        if let Some(f) = &self.fault {
            for (name, rate) in [
                ("store_eio_permille", f.store_eio_permille),
                ("load_eio_permille", f.load_eio_permille),
                ("torn_write_permille", f.torn_write_permille),
                ("latency_permille", f.latency_permille),
            ] {
                if rate > 1000 {
                    return Err(format!("fault.{name} must be <= 1000"));
                }
            }
        }
        if let Some(n) = &self.net_fault {
            for (name, rate) in [
                ("drop_permille", n.drop_permille),
                ("dup_permille", n.dup_permille),
                ("delay_permille", n.delay_permille),
                ("reorder_permille", n.reorder_permille),
            ] {
                if rate > 1000 {
                    return Err(format!("net_fault.{name} must be <= 1000"));
                }
            }
            if let Some((node, _)) = n.kill_node {
                if node as usize >= self.nodes {
                    return Err(format!("net_fault.kill_node {node} out of range"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn defaults_are_valid() {
        let c = MrtsConfig::default();
        c.validate().unwrap();
        assert_eq!(c.mem_budget, usize::MAX);
        assert_eq!(c.hard_threshold_mult, 2.0);
        assert_eq!(c.soft_threshold_frac, 0.5);
        assert_eq!(c.policy, PolicyKind::Lru);
    }

    #[test]
    fn builders_compose() {
        let c = MrtsConfig::out_of_core(8, 1 << 20)
            .with_policy(PolicyKind::Lfu)
            .with_executor(ExecutorKind::Fifo)
            .with_cores(4);
        c.validate().unwrap();
        assert_eq!(c.nodes, 8);
        assert_eq!(c.mem_budget, 1 << 20);
        assert_eq!(c.cores_per_node, 4);
        assert_eq!(c.executor, ExecutorKind::Fifo);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(MrtsConfig {
            nodes: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MrtsConfig {
            cores_per_node: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MrtsConfig {
            soft_threshold_frac: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        for scale in [0.0, f64::NAN, f64::INFINITY, 1e300] {
            let c = MrtsConfig {
                compute_scale: scale,
                ..Default::default()
            };
            let err = c.validate().expect_err("an unchargeable compute_scale");
            assert!(
                err.contains("compute_scale") && err.contains("1e9"),
                "{err}"
            );
        }
        MrtsConfig {
            compute_scale: MAX_COMPUTE_SCALE,
            ..Default::default()
        }
        .validate()
        .expect("the largest legal compute_scale");
        for mult in [-1.0, f64::NAN, f64::INFINITY] {
            let c = MrtsConfig {
                hard_threshold_mult: mult,
                ..Default::default()
            };
            assert!(c.validate().is_err(), "hard_threshold_mult {mult}");
        }
        for bandwidth in [0.0, -1.0, f64::NAN, 1e-300, 0.5] {
            let mut c = MrtsConfig::default();
            c.disk.bandwidth = bandwidth;
            let err = c.validate().expect_err("an unchargeable disk.bandwidth");
            assert!(
                err.contains("disk.bandwidth") && err.contains(">= 1"),
                "{err}"
            );
        }
        let mut slowest = MrtsConfig::default();
        slowest.disk.bandwidth = MIN_DISK_BANDWIDTH;
        slowest.validate().expect("the slowest legal disk");
        assert!(slowest.disk.op_time(isize::MAX as usize) < Duration::MAX);
        let mut instant_disk = MrtsConfig::default();
        instant_disk.disk.bandwidth = f64::INFINITY;
        instant_disk.validate().expect("an instant disk is legal");
        assert_eq!(instant_disk.disk.op_time(1 << 20), instant_disk.disk.seek);
        assert!(MrtsConfig {
            io_threads: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MrtsConfig {
            segment_garbage_frac: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn overlap_knobs() {
        let c = MrtsConfig::default();
        assert_eq!(c.io_threads, 2);
        let w = MrtsConfig::default().with_io_threads(3);
        assert_eq!(w.io_threads, 3);
    }

    #[test]
    fn work_stealing_knobs() {
        assert!(!MrtsConfig::default().work_stealing);
        let s = MrtsConfig::in_core(4).with_work_stealing();
        s.validate().unwrap();
        assert!(s.work_stealing);
    }

    #[test]
    fn net_fault_plan_validates() {
        let ok = MrtsConfig::in_core(3).with_net_faults(NetFaultPlan::new(1).with_drops(100));
        ok.validate().unwrap();
        assert!(ok.net_fault.is_some());
        let bad_rate =
            MrtsConfig::in_core(3).with_net_faults(NetFaultPlan::new(1).with_drops(1001));
        assert!(bad_rate.validate().is_err());
        let bad_kill =
            MrtsConfig::in_core(3).with_net_faults(NetFaultPlan::new(1).with_kill_node(7, 10));
        assert!(bad_kill.validate().is_err());
    }
}
