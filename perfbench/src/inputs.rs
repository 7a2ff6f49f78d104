//! Inputs generated from the benchmark seed.
//!
//! The seed perturbs only what is generated here — target element counts,
//! the NUPDR focus point, the sweep's patch sizing and point streams — and
//! the product receives these inputs, never the seed. The same
//! `(workload, seed, divisor)` always yields byte-identical inputs
//! ([`fingerprint`], pinned by a unit test).
//!
//! Element targets move by at most ±0.2 %: wall time, CPU time and memory
//! are proportional to the element count, so a wider band would put the
//! seed's own variation into the run-to-run spread the bounds are sized
//! from (a ±2 % band alone has an inter-quartile range of 2 %), and
//! resident memory steps by several per cent whenever a block's vectors
//! cross a capacity doubling.

use crate::catalog::{self, WorkloadId};
use mrts::codec::PayloadWriter;
use pumg_geometry::Point2;
use pumg_methods::common::{fnv1a, put_workload};
use pumg_methods::domain::{h_for_elements, DomainSpec, SizingSpec, Workload};
use pumg_methods::nupdr::NupdrParams;
use pumg_methods::pcdm::PcdmParams;
use pumg_methods::updr::UpdrParams;

/// SplitMix64: small, seedable, and the stream is part of the benchmark's
/// definition (a library generator could change under it).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, label)`: distinct labels give independent
    /// streams of one seed.
    pub fn new(seed: u64, label: &str) -> Rng {
        Rng(seed ^ fnv1a(label.as_bytes()).rotate_left(17))
    }

    /// Continue a stream from a stored state (the sweep's patches carry
    /// theirs across spills).
    pub fn from_state(state: u64) -> Rng {
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// A point strictly inside the unit square, `margin` away from its
    /// boundary.
    pub fn interior_point(&mut self, margin: f64) -> Point2 {
        Point2::new(
            self.range(margin, 1.0 - margin),
            self.range(margin, 1.0 - margin),
        )
    }
}

/// Relative half-width of the element-target perturbation.
const ELEMENT_JITTER: f64 = 0.002;

fn jittered(base: u64, rng: &mut Rng) -> u64 {
    (base as f64 * (1.0 + rng.range(-ELEMENT_JITTER, ELEMENT_JITTER))).round() as u64
}

/// Inputs of the read-mostly sweep (see `sweep.rs`).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepInput {
    /// Patches per axis; the population is `grid²` patches.
    pub grid: usize,
    /// Uniform sizing of each base mesh; patch `i` clones base
    /// `i % base_h.len()`.
    pub base_h: Vec<f64>,
    /// Per-patch stream seed: personalises the clone and derives the
    /// query and refine points of every later visit.
    pub patch_seeds: Vec<u64>,
    /// Full row-major passes over the population.
    pub sweeps: u32,
    /// Concurrent fronts, evenly spaced along the row-major order.
    pub fronts: u32,
    /// Points located per `query` visit.
    pub query_points: u32,
    /// Points inserted per `refine` visit.
    pub refine_points: u32,
}

/// The generated input of one workload.
#[derive(Clone, Debug)]
pub enum Input {
    Updr(UpdrParams),
    Nupdr(NupdrParams),
    Pcdm(PcdmParams),
    Sweep(SweepInput),
}

/// Graded unit-square workload: the `SizingSpec::Graded` shape the paper
/// tables in `crates/bench` use for NUPDR, with the focus at `focus`.
pub fn graded_square(elements: u64, focus: Point2) -> Workload {
    let domain = DomainSpec::unit_square();
    let h_avg = h_for_elements(domain.area(), elements);
    let h_min = h_avg / 2.5;
    Workload {
        domain,
        sizing: SizingSpec::Graded {
            focus,
            h_min,
            h_max: h_min * 4.0,
            radius: 1.4,
        },
    }
}

/// Generate the input of `workload` for `seed`, with element counts
/// divided by `divisor` (1 = full scale, 16 = warm-up, 32 = smoke).
pub fn generate(workload: WorkloadId, seed: u64, divisor: u64) -> Input {
    let divisor = divisor.max(1);
    match workload {
        // Both UPDR workloads draw from one stream: the out-of-core run
        // must mesh exactly what its in-core baseline meshes.
        WorkloadId::UpdrIncore | WorkloadId::UpdrOoc => {
            let mut rng = Rng::new(seed, "updr");
            let elements = jittered(catalog::UPDR_ELEMENTS, &mut rng) / divisor;
            Input::Updr(UpdrParams::new(
                Workload::uniform_square(elements),
                catalog::UPDR_GRID,
            ))
        }
        WorkloadId::NupdrOoc => {
            let mut rng = Rng::new(seed, "nupdr");
            let elements = jittered(catalog::NUPDR_ELEMENTS, &mut rng) / divisor;
            // The focus stays within a hundredth of the corner: enough to
            // change every leaf's point set, too little to change the
            // quadtree's shape class.
            let focus = Point2::new(rng.range(0.0, 0.01), rng.range(0.0, 0.01));
            Input::Nupdr(NupdrParams::new(graded_square(elements, focus)))
        }
        WorkloadId::PcdmDes8 => {
            let mut rng = Rng::new(seed, "pcdm");
            let elements = jittered(catalog::PCDM_ELEMENTS, &mut rng) / divisor;
            Input::Pcdm(PcdmParams::new(
                Workload::uniform_pipe(elements),
                catalog::PCDM_GRID,
            ))
        }
        WorkloadId::SweepReadmostly => {
            let mut rng = Rng::new(seed, "sweep");
            let base_h = (0..catalog::SWEEP_BASE_MESHES)
                .map(|_| {
                    let elements = jittered(catalog::SWEEP_PATCH_ELEMENTS, &mut rng) / divisor;
                    h_for_elements(1.0, elements.max(64))
                })
                .collect();
            let grid = catalog::SWEEP_GRID;
            Input::Sweep(SweepInput {
                grid,
                base_h,
                patch_seeds: (0..grid * grid).map(|_| rng.next_u64()).collect(),
                sweeps: catalog::SWEEP_SWEEPS,
                fronts: catalog::SWEEP_FRONTS,
                query_points: catalog::SWEEP_QUERY_POINTS,
                refine_points: catalog::SWEEP_REFINE_POINTS,
            })
        }
    }
}

/// Canonical bytes of an input — what "byte-identical inputs" means.
pub fn fingerprint(input: &Input) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    match input {
        Input::Updr(p) => {
            put_workload(&mut w, &p.workload);
            w.u64(p.grid as u64).f64(p.buffer_factor);
        }
        Input::Nupdr(p) => {
            put_workload(&mut w, &p.workload);
            w.f64(p.split_factor).u8(p.max_depth);
        }
        Input::Pcdm(p) => {
            put_workload(&mut w, &p.workload);
            w.u64(p.grid as u64);
        }
        Input::Sweep(s) => {
            w.u64(s.grid as u64);
            for h in &s.base_h {
                w.f64(*h);
            }
            for p in &s.patch_seeds {
                w.u64(*p);
            }
            w.u32(s.sweeps)
                .u32(s.fronts)
                .u32(s.query_points)
                .u32(s.refine_points);
        }
    }
    w.finish()
}

/// Target element count of an input (the `h`-derived estimate the product
/// itself uses), for the expected-size check and the speed metric.
pub fn target_elements(input: &Input) -> u64 {
    match input {
        Input::Updr(p) => p.workload.estimate_elements(),
        Input::Nupdr(p) => p.workload.estimate_elements(),
        Input::Pcdm(p) => p.workload.estimate_elements(),
        Input::Sweep(s) => s
            .patch_seeds
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let h = s.base_h[i % s.base_h.len()];
                pumg_methods::domain::elements_for_h(1.0, h)
            })
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in WorkloadId::ALL {
            for divisor in [1, catalog::WARMUP_DIVISOR, catalog::SMOKE_DIVISOR] {
                let a = fingerprint(&generate(w, 41, divisor));
                let b = fingerprint(&generate(w, 41, divisor));
                assert_eq!(a, b, "{w:?} /{divisor}");
                assert!(!a.is_empty());
            }
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in WorkloadId::ALL {
            let a = fingerprint(&generate(w, 1, 1));
            let b = fingerprint(&generate(w, 2, 1));
            assert_ne!(a, b, "{w:?}");
        }
    }

    #[test]
    fn updr_twins_share_their_input() {
        for seed in [0, 7, u64::MAX] {
            assert_eq!(
                fingerprint(&generate(WorkloadId::UpdrIncore, seed, 1)),
                fingerprint(&generate(WorkloadId::UpdrOoc, seed, 1)),
            );
        }
    }

    #[test]
    fn element_targets_stay_within_the_jitter_band() {
        for seed in 0..200 {
            let Input::Updr(p) = generate(WorkloadId::UpdrOoc, seed, 1) else {
                unreachable!()
            };
            let e = p.workload.estimate_elements() as f64;
            let base = catalog::UPDR_ELEMENTS as f64;
            assert!(
                (e / base - 1.0).abs() < ELEMENT_JITTER + 1e-4,
                "seed {seed}: {e}"
            );
        }
    }

    #[test]
    fn rng_is_uniform_enough_and_in_range() {
        let mut r = Rng::new(3, "t");
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
        let p = r.interior_point(0.1);
        assert!(p.x >= 0.1 && p.x < 0.9 && p.y >= 0.1 && p.y < 0.9);
    }
}
