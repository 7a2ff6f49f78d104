//! Shared infrastructure for the mesh generation methods: results, errors,
//! payload encodings, and the baseline cluster timing model.

use mrts::codec::{PayloadReader, PayloadWriter, Truncated};
use mrts::config::NetModel;
use mrts::stats::{NodeStats, RunStats};
use pumg_geometry::Point2;
use std::time::{Duration, Instant};

/// Why a method run could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MethodError {
    /// The in-core baseline exceeded the aggregate memory of the requested
    /// configuration — the paper's `n/a` table entries.
    OutOfMemory {
        required_bytes: u64,
        available_bytes: u64,
    },
    /// Bad workload parameters.
    BadWorkload(String),
}

impl std::fmt::Display for MethodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MethodError::OutOfMemory {
                required_bytes,
                available_bytes,
            } => write!(
                f,
                "out of memory: mesh needs {required_bytes} B, aggregate memory {available_bytes} B"
            ),
            MethodError::BadWorkload(s) => write!(f, "bad workload: {s}"),
        }
    }
}

impl std::error::Error for MethodError {}

/// Outcome of one method run.
#[derive(Clone, Debug)]
pub struct MethodResult {
    /// Mesh elements (triangles) produced.
    pub elements: u64,
    /// Mesh vertices produced.
    pub vertices: u64,
    /// Timing/resource statistics (virtual time for simulated runs).
    pub stats: RunStats,
}

impl MethodResult {
    /// The paper's per-PE speed metric.
    pub fn speed(&self) -> f64 {
        self.stats.speed(self.elements)
    }

    pub fn total_secs(&self) -> f64 {
        self.stats.total.as_secs_f64()
    }
}

// ----- point-set payloads ---------------------------------------------------

/// The body of a point batch, appended to `buf`: count, then coordinates,
/// written as 16-byte records into a buffer grown once.
fn write_points(buf: &mut Vec<u8>, pts: &[Point2]) {
    let start = buf.len();
    buf.resize(start + 4 + 16 * pts.len(), 0);
    let (count, recs) = buf[start..].split_at_mut(4);
    count.copy_from_slice(&(pts.len() as u32).to_le_bytes());
    for (rec, p) in recs.chunks_exact_mut(16).zip(pts) {
        rec[..8].copy_from_slice(&p.x.to_le_bytes());
        rec[8..].copy_from_slice(&p.y.to_le_bytes());
    }
}

/// Encode a point batch (the data unit UPDR/NUPDR ship between blocks).
pub fn encode_point_batch(pts: &[Point2]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_points(&mut buf, pts);
    buf
}

/// Append a point batch as a length-prefixed block — the same bytes as
/// `w.bytes(&encode_point_batch(pts))`, written in place.
pub fn put_point_batch(w: &mut PayloadWriter, pts: &[Point2]) {
    w.bytes_with(|buf| write_points(buf, pts));
}

/// Inverse of [`encode_point_batch`]. The count is checked against the
/// bytes present before the output is allocated, which then has exactly
/// that many points; trailing bytes are ignored.
pub fn decode_point_batch(buf: &[u8]) -> Result<Vec<Point2>, Truncated> {
    let (count, recs) = buf.split_first_chunk::<4>().ok_or(Truncated)?;
    let n = u32::from_le_bytes(*count) as usize;
    let recs = recs
        .get(..n.checked_mul(16).ok_or(Truncated)?)
        .ok_or(Truncated)?;
    let f64_at = |rec: &[u8], at: usize| {
        f64::from_le_bytes(rec[at..at + 8].try_into().expect("an 8-byte field"))
    };
    Ok(recs
        .chunks_exact(16)
        .map(|rec| Point2::new(f64_at(rec, 0), f64_at(rec, 8)))
        .collect())
}

/// Wire size of a point batch (for comm charging in the baselines).
pub fn point_batch_bytes(n: usize) -> usize {
    8 + 16 * n
}

/// FNV-1a over a byte slice: the digest primitive for mesh byte-identity
/// checks across scheduling modes and engines.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_iter(bytes.iter().copied())
}

/// [`fnv1a`] over bytes as they are produced, with no buffer to hold them.
pub fn fnv1a_iter(bytes: impl IntoIterator<Item = u8>) -> u64 {
    (bytes.into_iter()).fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

// ----- workload / geometry codecs ---------------------------------------------

use crate::domain::{DomainSpec, SizingSpec, Workload};
use pumg_geometry::BBox;

/// Append a bbox to a payload.
pub fn put_bbox(w: &mut PayloadWriter, b: &BBox) {
    w.f64(b.min.x).f64(b.min.y).f64(b.max.x).f64(b.max.y);
}

/// Read a bbox from a payload.
pub fn get_bbox(r: &mut PayloadReader) -> Result<BBox, Truncated> {
    let (x0, y0, x1, y1) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
    Ok(BBox::new(Point2::new(x0, y0), Point2::new(x1, y1)))
}

/// Append a workload description to a payload.
pub fn put_workload(w: &mut PayloadWriter, wl: &Workload) {
    match wl.domain {
        DomainSpec::Rect { w: dw, h } => {
            w.u8(0).f64(dw).f64(h);
        }
        DomainSpec::Pipe {
            outer_r,
            inner_r,
            segments,
        } => {
            w.u8(1).f64(outer_r).f64(inner_r).u32(segments as u32);
        }
    }
    match wl.sizing {
        SizingSpec::Uniform { h } => {
            w.u8(0).f64(h);
        }
        SizingSpec::Graded {
            focus,
            h_min,
            h_max,
            radius,
        } => {
            w.u8(1)
                .f64(focus.x)
                .f64(focus.y)
                .f64(h_min)
                .f64(h_max)
                .f64(radius);
        }
    }
}

/// Read a workload description from a payload.
pub fn get_workload(r: &mut PayloadReader) -> Result<Workload, Truncated> {
    let domain = match r.u8()? {
        0 => DomainSpec::Rect {
            w: r.f64()?,
            h: r.f64()?,
        },
        _ => DomainSpec::Pipe {
            outer_r: r.f64()?,
            inner_r: r.f64()?,
            segments: r.u32()? as usize,
        },
    };
    let sizing = match r.u8()? {
        0 => SizingSpec::Uniform { h: r.f64()? },
        _ => SizingSpec::Graded {
            focus: Point2::new(r.f64()?, r.f64()?),
            h_min: r.f64()?,
            h_max: r.f64()?,
            radius: r.f64()?,
        },
    };
    Ok(Workload { domain, sizing })
}

// ----- baseline cluster timing model ------------------------------------------

/// Lightweight per-PE timing model for the **in-core baselines**: the
/// method logic really runs (tasks are measured with `Instant`) while
/// completion times are tracked per PE, communication is charged from a
/// network model, and barriers synchronize everyone — the role the MPI
/// runtime plays for the paper's native codes.
pub struct ClusterSim {
    pe_free: Vec<Duration>,
    comm: Vec<Duration>,
    net: NetModel,
    compute: Vec<Duration>,
    /// Multiplier applied to measured task durations (models slower
    /// period-appropriate CPUs; see DESIGN.md §3).
    compute_scale: f64,
    /// Aggregate memory limit (bytes) across all PEs.
    pub mem_capacity: u64,
    pub mem_used: u64,
    peak_mem: u64,
}

impl ClusterSim {
    /// `pes` processing elements with `mem_per_pe` bytes each.
    pub fn new(pes: usize, mem_per_pe: u64, net: NetModel) -> Self {
        assert!(pes > 0);
        ClusterSim {
            pe_free: vec![Duration::ZERO; pes],
            comm: vec![Duration::ZERO; pes],
            compute: vec![Duration::ZERO; pes],
            compute_scale: 1.0,
            net,
            mem_capacity: mem_per_pe.saturating_mul(pes as u64),
            mem_used: 0,
            peak_mem: 0,
        }
    }

    pub fn pes(&self) -> usize {
        self.pe_free.len()
    }

    /// Set the virtual-time multiplier for measured task durations.
    pub fn set_compute_scale(&mut self, scale: f64) {
        assert!(scale > 0.0);
        self.compute_scale = scale;
    }

    /// The PE that becomes free first (master–worker dispatch target).
    pub fn earliest_pe(&self) -> usize {
        (0..self.pe_free.len())
            .min_by_key(|&i| self.pe_free[i])
            .expect("a cluster model has at least one PE")
    }

    /// Run `task` on `pe`, measuring it and charging its duration; returns
    /// the task's output.
    pub fn run_on<R>(&mut self, pe: usize, task: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = task();
        let d = t0.elapsed().mul_f64(self.compute_scale);
        self.pe_free[pe] += d;
        self.compute[pe] += d;
        out
    }

    /// Charge communication time to one PE without coupling clocks (used
    /// by master–worker dispatch, where the master streams inputs/results
    /// asynchronously and must not serialize the workers).
    pub fn charge_comm(&mut self, pe: usize, bytes: usize) {
        let t = self.net.transfer_time(bytes);
        self.comm[pe] += t;
        self.pe_free[pe] += t;
    }

    /// Charge a point-to-point message (both sides).
    pub fn send(&mut self, from: usize, to: usize, bytes: usize) {
        if from == to {
            return;
        }
        let t = self.net.transfer_time(bytes);
        self.comm[from] += t;
        self.comm[to] += t;
        self.pe_free[from] += t;
        // Receiver availability: the message lands no earlier than the
        // sender's current time.
        self.pe_free[to] = self.pe_free[to].max(self.pe_free[from]);
        self.pe_free[to] += t;
    }

    /// Global synchronization: everyone waits for the slowest PE.
    pub fn barrier(&mut self) {
        let max = *self
            .pe_free
            .iter()
            .max()
            .expect("a cluster model has at least one PE");
        for t in &mut self.pe_free {
            *t = max;
        }
    }

    /// Track allocated mesh memory; returns an error when the aggregate
    /// capacity is exceeded (the baseline cannot go out-of-core).
    pub fn alloc(&mut self, bytes: u64) -> Result<(), MethodError> {
        self.mem_used += bytes;
        self.peak_mem = self.peak_mem.max(self.mem_used);
        if self.mem_used > self.mem_capacity {
            return Err(MethodError::OutOfMemory {
                required_bytes: self.mem_used,
                available_bytes: self.mem_capacity,
            });
        }
        Ok(())
    }

    /// Release mesh memory (e.g. a worker's scratch).
    pub fn free(&mut self, bytes: u64) {
        self.mem_used = self.mem_used.saturating_sub(bytes);
    }

    /// Fold the model into a [`RunStats`] (total = slowest PE).
    pub fn into_stats(self) -> RunStats {
        let total = *self
            .pe_free
            .iter()
            .max()
            .expect("a cluster model has at least one PE");
        let nodes = self
            .pe_free
            .iter()
            .zip(&self.comm)
            .zip(&self.compute)
            .map(|((_, &comm), &comp)| NodeStats {
                comp,
                comm,
                peak_mem: (self.peak_mem / self.pe_free.len() as u64) as usize,
                ..NodeStats::default()
            })
            .collect();
        RunStats {
            total,
            nodes,
            // Analytic PE model, not a wall-clock run.
            measured_overlap: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_batch_roundtrip() {
        let pts = vec![Point2::new(1.0, -2.0), Point2::new(0.5, 1e-9)];
        let buf = encode_point_batch(&pts);
        assert_eq!(buf.len(), point_batch_bytes(2) - 4);
        assert_eq!(decode_point_batch(&buf).unwrap(), pts);
        for len in 0..buf.len() {
            assert_eq!(
                decode_point_batch(&buf[..len]),
                Err(Truncated),
                "prefix of {len}"
            );
        }
        // A count the bytes cannot hold is rejected up front.
        for n in [3, 1 << 28, u32::MAX] {
            let mut lying = buf.clone();
            lying[..4].copy_from_slice(&n.to_le_bytes());
            assert_eq!(decode_point_batch(&lying), Err(Truncated), "count {n}");
        }
        let (mut copied, mut in_place) = (PayloadWriter::new(), PayloadWriter::new());
        copied.bytes(&buf);
        put_point_batch(&mut in_place, &pts);
        assert_eq!(in_place.finish(), copied.finish());
    }

    /// The row-at-a-time writer the bulk one replaced, as the reference for
    /// its bytes.
    fn reference_point_batch(pts: &[Point2]) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.u32(pts.len() as u32);
        for p in pts {
            w.f64(p.x).f64(p.y);
        }
        w.finish()
    }

    fn sample_points(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| Point2::new(i as f64 * 0.25 - 3.0, 1.0 / (i as f64 + 0.5)))
            .collect()
    }

    #[test]
    fn point_batch_bytes_match_the_row_at_a_time_writer() {
        for n in [0, 1, 2, 17] {
            let pts = sample_points(n);
            let buf = encode_point_batch(&pts);
            assert_eq!(buf, reference_point_batch(&pts), "{n} points");
            let back = decode_point_batch(&buf).unwrap();
            assert_eq!((back.len(), back.capacity()), (n, n));
            // Trailing bytes are ignored.
            let mut longer = buf.clone();
            longer.extend_from_slice(&[9; 20]);
            assert_eq!(decode_point_batch(&longer).unwrap(), pts);
        }
    }

    #[test]
    fn cluster_sim_charges_and_barriers() {
        let mut cs = ClusterSim::new(2, 1 << 30, NetModel::instant());
        let x = cs.run_on(0, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(x, 42);
        cs.barrier();
        let stats = cs.into_stats();
        assert!(stats.total >= Duration::from_millis(5));
        assert!(stats.nodes[0].comp >= Duration::from_millis(5));
        assert_eq!(stats.nodes[1].comp, Duration::ZERO);
    }

    #[test]
    fn cluster_sim_comm_charging() {
        let net = NetModel {
            latency: Duration::from_millis(1),
            bandwidth: 1e6,
        };
        let mut cs = ClusterSim::new(2, 1 << 30, net);
        cs.send(0, 1, 1000);
        let stats = cs.into_stats();
        assert!(stats.nodes[0].comm >= Duration::from_millis(1));
        assert!(stats.nodes[1].comm >= Duration::from_millis(1));
        // Self-sends are free.
        let mut cs2 = ClusterSim::new(2, 1 << 30, net);
        cs2.send(1, 1, 1000);
        assert_eq!(cs2.into_stats().nodes[1].comm, Duration::ZERO);
    }

    #[test]
    fn cluster_sim_memory_limit() {
        let mut cs = ClusterSim::new(4, 100, NetModel::instant());
        assert!(cs.alloc(350).is_ok());
        let err = cs.alloc(100).unwrap_err();
        assert!(matches!(
            err,
            MethodError::OutOfMemory {
                required_bytes: 450,
                available_bytes: 400
            }
        ));
        cs.free(300);
        assert_eq!(cs.mem_used, 150);
    }

    #[test]
    fn method_error_display() {
        let e = MethodError::OutOfMemory {
            required_bytes: 10,
            available_bytes: 5,
        };
        assert!(e.to_string().contains("out of memory"));
        assert!(MethodError::BadWorkload("x".into())
            .to_string()
            .contains("x"));
    }
}
