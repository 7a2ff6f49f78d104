//! Programming the runtime directly: a custom mobile-object application.
//!
//! A 1-D heat-diffusion stencil where every strip of the rod is a mobile
//! object; step-tagged `ghost` messages carry edge values to the neighbors
//! (the classic async stencil: a strip relaxes step *k* once it holds both
//! neighbors' step-*k* ghosts, so neighbors may run at most one step
//! apart). The same application code — one generic `run` — executes on
//! both engines:
//!
//!  * the deterministic virtual-time engine (used by the benchmarks), and
//!  * the threaded engine (one OS thread per node, real spill files,
//!    Safra termination detection),
//!
//! and both must compute bit-identical physics.
//!
//! ```sh
//! cargo run --release --example mobile_objects
//! ```

use pumg::mrts::codec::{PayloadReader, PayloadWriter};
use pumg::mrts::compute::ExecutorKind;
use pumg::mrts::config::MrtsConfig;
use pumg::mrts::ctx::Ctx;
use pumg::mrts::des::Des;
use pumg::mrts::ids::{HandlerId, MobilePtr, NodeId, ObjectId, TypeTag};
use pumg::mrts::object::{MobileObject, ObjectDecodeError};
use pumg::mrts::runtime::{Engine, Runtime};
use pumg::mrts::threaded::Threads;
use std::any::Any;
use std::collections::VecDeque;

const STRIP_TAG: TypeTag = TypeTag(1);
const H_START: HandlerId = HandlerId(1);
const H_GHOST: HandlerId = HandlerId(2);

/// A strip of the rod.
struct Strip {
    cells: Vec<f64>,
    left: Option<MobilePtr>,
    right: Option<MobilePtr>,
    /// Fixed boundary values used where a neighbor is missing.
    bc_left: f64,
    bc_right: f64,
    /// Step-tagged ghost values received per side (at most 2 queued: the
    /// async stencil keeps neighbors within one step of each other).
    ghosts_left: VecDeque<(u32, f64)>,
    ghosts_right: VecDeque<(u32, f64)>,
    /// Completed relaxation steps.
    step: u32,
    total_steps: u32,
    /// Has this strip already announced its current step's edge values?
    announced: bool,
}

impl Strip {
    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        let n = r.u32().unwrap() as usize;
        let mut cells = Vec::with_capacity(n);
        for _ in 0..n {
            cells.push(r.f64().unwrap());
        }
        let left = (r.u8().unwrap() == 1).then(|| r.ptr().unwrap());
        let right = (r.u8().unwrap() == 1).then(|| r.ptr().unwrap());
        let bc_left = r.f64().unwrap();
        let bc_right = r.f64().unwrap();
        let mut ghosts_left = VecDeque::new();
        for _ in 0..r.u32().unwrap() {
            ghosts_left.push_back((r.u32().unwrap(), r.f64().unwrap()));
        }
        let mut ghosts_right = VecDeque::new();
        for _ in 0..r.u32().unwrap() {
            ghosts_right.push_back((r.u32().unwrap(), r.f64().unwrap()));
        }
        let step = r.u32().unwrap();
        let total_steps = r.u32().unwrap();
        let announced = r.u8().unwrap() != 0;
        Ok(Box::new(Strip {
            cells,
            left,
            right,
            bc_left,
            bc_right,
            ghosts_left,
            ghosts_right,
            step,
            total_steps,
            announced,
        }))
    }
}

impl MobileObject for Strip {
    fn type_tag(&self) -> TypeTag {
        STRIP_TAG
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::with_capacity(64 + 8 * self.cells.len());
        w.u32(self.cells.len() as u32);
        for &c in &self.cells {
            w.f64(c);
        }
        for p in [self.left, self.right] {
            match p {
                Some(p) => {
                    w.u8(1).ptr(p);
                }
                None => {
                    w.u8(0);
                }
            }
        }
        w.f64(self.bc_left).f64(self.bc_right);
        w.u32(self.ghosts_left.len() as u32);
        for &(s, v) in &self.ghosts_left {
            w.u32(s).f64(v);
        }
        w.u32(self.ghosts_right.len() as u32);
        for &(s, v) in &self.ghosts_right {
            w.u32(s).f64(v);
        }
        w.u32(self.step)
            .u32(self.total_steps)
            .u8(self.announced as u8);
        buf.extend_from_slice(&w.finish());
    }

    fn footprint(&self) -> usize {
        96 + 8 * self.cells.len() + 16 * (self.ghosts_left.len() + self.ghosts_right.len())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn strip_mut(obj: &mut dyn MobileObject) -> &mut Strip {
    obj.as_any_mut().downcast_mut::<Strip>().unwrap()
}

/// Announce this step's edge values to the neighbors, then relax as far as
/// the buffered ghosts allow.
fn advance(s: &mut Strip, ctx: &mut Ctx) {
    loop {
        if s.step >= s.total_steps {
            return;
        }
        if !s.announced {
            let first = *s.cells.first().unwrap();
            let last = *s.cells.last().unwrap();
            for (p, from_right, v) in [(s.left, 1u8, first), (s.right, 0u8, last)] {
                if let Some(p) = p {
                    let mut w = PayloadWriter::new();
                    w.u8(from_right).u32(s.step).f64(v);
                    ctx.send(p, H_GHOST, w.finish());
                }
            }
            s.announced = true;
        }
        // Ready when both sides have this step's ghost (or are fixed BCs).
        let step = s.step;
        let left_val = match (s.left, s.ghosts_left.front()) {
            (None, _) => Some(s.bc_left),
            (Some(_), Some(&(gs, v))) if gs == step => Some(v),
            _ => None,
        };
        let right_val = match (s.right, s.ghosts_right.front()) {
            (None, _) => Some(s.bc_right),
            (Some(_), Some(&(gs, v))) if gs == step => Some(v),
            _ => None,
        };
        let (Some(gl), Some(gr)) = (left_val, right_val) else {
            return; // wait for ghosts
        };
        if s.left.is_some() {
            s.ghosts_left.pop_front();
        }
        if s.right.is_some() {
            s.ghosts_right.pop_front();
        }
        // Jacobi relaxation with the step's ghosts as boundary.
        let n = s.cells.len();
        let mut next = s.cells.clone();
        for (i, nx) in next.iter_mut().enumerate() {
            let l = if i == 0 { gl } else { s.cells[i - 1] };
            let r = if i + 1 == n { gr } else { s.cells[i + 1] };
            *nx = 0.5 * (l + r);
        }
        s.cells = next;
        s.step += 1;
        s.announced = false;
    }
}

fn h_start(obj: &mut dyn MobileObject, ctx: &mut Ctx, _payload: &[u8]) {
    advance(strip_mut(obj), ctx);
}

fn h_ghost(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let from_right = r.u8().unwrap() == 1;
    let step = r.u32().unwrap();
    let v = r.f64().unwrap();
    let s = strip_mut(obj);
    if from_right {
        s.ghosts_right.push_back((step, v));
    } else {
        s.ghosts_left.push_back((step, v));
    }
    advance(s, ctx);
}

fn build_strips(strips: usize, cells_per_strip: usize, steps: u32) -> Vec<Strip> {
    // Hot left end (1.0), cold right end (0.0).
    (0..strips)
        .map(|i| Strip {
            cells: vec![0.0; cells_per_strip],
            left: None,
            right: None,
            bc_left: if i == 0 { 1.0 } else { 0.0 },
            bc_right: 0.0,
            ghosts_left: VecDeque::new(),
            ghosts_right: VecDeque::new(),
            step: 0,
            total_steps: steps,
            announced: false,
        })
        .collect()
}

/// Run the stencil on engine `E` with `cfg`; returns the run summary,
/// the leftmost cell's temperature and the steps it completed.
fn run<E: Engine>(cfg: MrtsConfig, strips: usize, cells: usize, steps: u32) -> (String, f64, u32) {
    let nodes = cfg.nodes;
    let ptrs: Vec<MobilePtr> = (0..strips)
        .map(|i| MobilePtr::new(ObjectId::new((i % nodes) as NodeId, (i / nodes) as u64)))
        .collect();
    let mut rt = Runtime::<E>::new(cfg);
    rt.register_type(STRIP_TAG, Strip::decode);
    rt.register_handler(H_START, "start", h_start);
    rt.register_handler(H_GHOST, "ghost", h_ghost);
    for (i, mut s) in build_strips(strips, cells, steps).into_iter().enumerate() {
        s.left = (i > 0).then(|| ptrs[i - 1]);
        s.right = (i + 1 < strips).then(|| ptrs[i + 1]);
        let created = rt.create_object((i % nodes) as NodeId, Box::new(s), 128);
        assert_eq!(created, ptrs[i]);
    }
    for &p in &ptrs {
        rt.post(p, H_START, Vec::new());
    }
    let stats = rt.run();
    let (temp, done_steps) = rt.with_object(ptrs[0], |o| {
        let s = o.as_any().downcast_ref::<Strip>().unwrap();
        (s.cells[0], s.step)
    });
    (stats.summary(), temp, done_steps)
}

fn main() {
    let (nodes, strips, cells, steps) = (4usize, 16usize, 64usize, 200u32);

    let cfg = MrtsConfig::out_of_core(nodes, 2048);
    let (summary, temp, done) = run::<Des>(cfg, strips, cells, steps);
    println!("virtual-time engine ({nodes} nodes, 2 KiB budget each):");
    println!("  {summary}");
    println!("  leftmost cell after {done}/{steps} steps: {temp:.6}");
    assert_eq!(done, steps);

    let mut cfg = MrtsConfig::out_of_core(nodes, 2048).with_executor(ExecutorKind::Fifo);
    let spill = std::env::temp_dir().join(format!("mrts-example-{}", std::process::id()));
    cfg.spill_dir = Some(spill.clone());
    let (summary2, temp2, done2) = run::<Threads>(cfg, strips, cells, steps);
    let _ = std::fs::remove_dir_all(spill);
    println!("\nthreaded engine ({nodes} OS threads, real spill files):");
    println!("  {summary2}");
    println!("  leftmost cell after {done2}/{steps} steps: {temp2:.6}");
    assert_eq!(done2, steps);
    assert!(
        (temp - temp2).abs() < 1e-15,
        "both engines must compute identical physics ({temp} vs {temp2})"
    );
    println!("\nboth engines agree bit-for-bit.");
}
