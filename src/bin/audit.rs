//! The repository's audit gate.
//!
//! `cargo run -p pumg --bin audit` runs, in order:
//!
//! 1. `cargo fmt --check` — formatting;
//! 2. `cargo clippy --workspace --all-targets` with the curated deny
//!    list — lints;
//! 3. `cargo build --release` — the instrumentation must compile out;
//! 4. `cargo test -q` — the full workspace test suite;
//! 5. an in-process sweep of the MRTS invariant checker and race
//!    detector over both engines, including seeded schedule
//!    permutations of the DES engine.
//!
//! The process exits non-zero on the first failing step, so the binary
//! doubles as the CI gate.
//!
//! `--chaos` runs the storage-fault chaos sweep instead: ≥20 seeded
//! fault schedules (transient EIO, torn writes, latency spikes, ENOSPC
//! windows) driven through both engines on a real mesh workload, with
//! the invariant checker attached and the final mesh compared against
//! the fault-free run. `--quick` shrinks the sweep for smoke jobs. The
//! sweep writes its per-schedule report to `target/chaos-report.txt`.
//!
//! `--chaos-net` runs the fabric-fault sweep: ≥20 seeded message
//! drop/duplicate/delay/reorder schedules per engine (plus partition
//! windows and a duplicate storm), each required to produce the
//! fault-free mesh with zero invariant violations — the
//! reliable-delivery layer absorbs every fault. Report in
//! `target/chaos-net-report.txt`.
//!
//! `--chaos-service` runs the supervised multi-job service sweep: a
//! ≥16-node pool multiplexing ≥8 concurrent mesh jobs (each its own
//! fault domain with an independent storage/network fault stream),
//! plus poison jobs, an ENOSPC degraded-mode scenario with load
//! shedding, and a mid-run node kill. Every non-quarantined job must
//! reproduce its fault-free bytes; quarantined jobs must persist
//! decodable replay artifacts. Report in
//! `target/chaos-service-report.txt`.
//!
//! `--nodes <n>` overrides the simulated node count of the chaos
//! sweeps (default 2; the service sweep floors its pool at 16). Runs
//! at non-default widths skip replay-artifact persistence, since an
//! artifact must be reproducible from its harness id + seed alone.
//!
//! Source-level rules ride on steps 2 and 4: the runtime crates deny
//! `clippy::unwrap_used` outside tests, and unit tests pin that every
//! `NetMsg` arm is audited, every counter reported, and every replay
//! `Decision` and `JobState` reached (DESIGN.md §12).
//!
//! Record/replay: both chaos sweeps record every threaded schedule's
//! nondeterministic decisions and, on failure, persist a self-describing
//! artifact under `target/replay/`; `--seed <n>` re-runs a single
//! schedule, `--replay <path>` re-executes a persisted artifact under
//! its decision log and reports the first divergence between recorded
//! and live audit streams, and `--replay-smoke` proves byte-identical
//! replay (plus perturbation probes) over a batch of chaos-net seeds.
//! The default gate ends with the quick (3-seed) replay smoke.

use std::process::{Command, ExitCode};

/// Lints denied beyond rustc's warning set. Curated: every entry has
/// bitten a runtime like this one (silent zeroing, debris left in,
/// panics shipped to production paths).
const CLIPPY_DENY: &[&str] = &[
    "warnings",
    "clippy::erasing_op",
    "clippy::dbg_macro",
    "clippy::todo",
    "clippy::unimplemented",
];

fn cargo(args: &[&str]) -> bool {
    println!("==> cargo {}", args.join(" "));
    match Command::new(env!("CARGO")).args(args).status() {
        Ok(st) if st.success() => true,
        Ok(st) => {
            eprintln!("audit: `cargo {}` failed ({st})", args.join(" "));
            false
        }
        Err(e) => {
            eprintln!("audit: could not spawn cargo: {e}");
            false
        }
    }
}

fn lint_and_test() -> bool {
    let mut clippy = vec!["clippy", "--workspace", "--all-targets", "--"];
    let denies: Vec<String> = CLIPPY_DENY.iter().map(|l| format!("-D{l}")).collect();
    clippy.extend(denies.iter().map(String::as_str));
    cargo(&["fmt", "--check"])
        && cargo(&clippy)
        && cargo(&["build", "--release"])
        && cargo(&["test", "-q"])
}

#[cfg(any(feature = "audit", debug_assertions))]
mod invariant_sweep {
    //! A self-contained MRTS workload (ring of growing cells under memory
    //! pressure, a migration) run with the fail-fast invariant checker
    //! attached, across several schedule seeds, on both engines.

    use mrts::audit::{FailMode, InvariantChecker, RaceDetector};
    use mrts::codec::{PayloadReader, PayloadWriter};
    use mrts::prelude::*;
    use std::any::Any;
    use std::sync::Arc;

    const CELL_TAG: TypeTag = TypeTag(1);
    const H_RING: HandlerId = HandlerId(1);
    const H_MOVE: HandlerId = HandlerId(2);

    struct Cell {
        value: u64,
        neighbors: Vec<MobilePtr>,
        pad: Vec<u8>,
    }

    impl Cell {
        fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
            let mut r = PayloadReader::new(buf);
            let value = r.u64().unwrap();
            let neighbors = r.ptrs().unwrap();
            let pad = r.bytes().unwrap().to_vec();
            Ok(Box::new(Cell {
                value,
                neighbors,
                pad,
            }))
        }
    }

    impl MobileObject for Cell {
        fn type_tag(&self) -> TypeTag {
            CELL_TAG
        }

        fn encode(&self, buf: &mut Vec<u8>) {
            let mut w = PayloadWriter::new();
            w.u64(self.value).ptrs(&self.neighbors).bytes(&self.pad);
            buf.extend_from_slice(&w.finish());
        }

        fn footprint(&self) -> usize {
            8 + 8 * self.neighbors.len() + self.pad.len() + 48
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn h_ring(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
        let mut r = PayloadReader::new(payload);
        let hops = r.u64().unwrap();
        let cell = obj.as_any_mut().downcast_mut::<Cell>().unwrap();
        cell.value += 1;
        // Grow a little on every visit so the out-of-core layer has to
        // re-balance (exercises Resize + Budget events).
        cell.pad.extend_from_slice(&[0u8; 16]);
        if hops > 0 {
            let next = cell.neighbors[0];
            let mut w = PayloadWriter::new();
            w.u64(hops - 1);
            ctx.send(next, H_RING, w.finish());
        }
    }

    fn h_move(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
        let mut r = PayloadReader::new(payload);
        let dest = r.u64().unwrap() as NodeId;
        ctx.migrate(ctx.self_ptr(), dest);
    }

    fn u64_payload(v: u64) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.u64(v);
        w.finish()
    }

    fn des_sweep() -> Result<(), String> {
        let mut reference: Option<u64> = None;
        for seed in [None, Some(7u64), Some(1234), Some(0x5EED)] {
            let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
            let mut cfg = MrtsConfig::out_of_core(3, 600);
            cfg.soft_threshold_frac = 0.25;
            let nodes = cfg.nodes;
            let mut rt = DesRuntime::new(cfg);
            rt.register_type(CELL_TAG, Cell::decode);
            rt.register_handler(H_RING, "ring", h_ring);
            rt.register_handler(H_MOVE, "move", h_move);
            rt.set_schedule_seed(seed);
            rt.attach_audit(chk.clone());
            let cells: Vec<MobilePtr> = (0..nodes)
                .map(|n| MobilePtr::new(ObjectId::new(n as NodeId, 0)))
                .collect();
            for (i, &p) in cells.iter().enumerate() {
                let cell = Box::new(Cell {
                    value: 0,
                    neighbors: vec![cells[(i + 1) % nodes]],
                    pad: vec![0x5A; 256],
                });
                rt.create_object(i as NodeId, cell, 128);
                rt.post(p, H_RING, u64_payload(15));
            }
            rt.post(cells[0], H_MOVE, u64_payload(2));
            rt.run();
            if !chk.violations().is_empty() {
                return Err(format!(
                    "DES run (seed {seed:?}) violated invariants: {:?}",
                    chk.violations()
                ));
            }
            let total: u64 = cells
                .iter()
                .map(|&p| rt.with_object(p, |o| o.as_any().downcast_ref::<Cell>().unwrap().value))
                .sum();
            match reference {
                None => reference = Some(total),
                Some(want) if want != total => {
                    return Err(format!(
                        "seed {seed:?} changed application results: {total} != {want}"
                    ));
                }
                Some(_) => {}
            }
            println!(
                "    DES seed {:>10}: {} events checked, results stable",
                format!("{seed:?}"),
                chk.events_seen()
            );
        }
        Ok(())
    }

    fn threaded_sweep() -> Result<(), String> {
        let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
        let det = Arc::new(RaceDetector::new(3));
        let mut rt = ThreadedRuntime::new(MrtsConfig::in_core(3));
        rt.register_type(CELL_TAG, Cell::decode);
        rt.register_handler(H_RING, "ring", h_ring);
        rt.register_handler(H_MOVE, "move", h_move);
        rt.attach_audit(chk.clone());
        rt.attach_race_detector(det.clone());
        let cells: Vec<MobilePtr> = (0..3)
            .map(|n| MobilePtr::new(ObjectId::new(n, 0)))
            .collect();
        for (i, &p) in cells.iter().enumerate() {
            let cell = Box::new(Cell {
                value: 0,
                neighbors: vec![cells[(i + 1) % 3]],
                pad: vec![0x5A; 64],
            });
            rt.create_object(i as NodeId, cell, 128);
            rt.post(p, H_RING, u64_payload(10));
        }
        rt.post(cells[1], H_MOVE, u64_payload(2));
        rt.run();
        if !chk.violations().is_empty() {
            return Err(format!(
                "threaded run violated invariants: {:?}",
                chk.violations()
            ));
        }
        if !det.races().is_empty() {
            return Err(format!("threaded run raced: {:?}", det.races()));
        }
        println!(
            "    threaded: {} events checked, {} races",
            chk.events_seen(),
            det.races().len()
        );
        Ok(())
    }

    /// Out-of-core threaded run over real spill files: tiny budget and
    /// tiny segments so the segmented spill log rolls and compacts while
    /// the prefetch window streams reloads — the checker validates the
    /// Prefetch (window bound, on-disk state) and Compaction (no live
    /// object lost) invariants against a live run.
    fn threaded_ooc_sweep() -> Result<(), String> {
        let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
        let det = Arc::new(RaceDetector::new(3));
        let mut cfg = MrtsConfig::out_of_core(3, 600);
        cfg.soft_threshold_frac = 0.25;
        cfg.segment_bytes = 512;
        cfg.segment_garbage_frac = 0.3;
        cfg.spill_dir =
            Some(std::env::temp_dir().join(format!("mrts-audit-ooc-{}", std::process::id())));
        let spill = cfg.spill_dir.clone().unwrap();
        let mut rt = ThreadedRuntime::new(cfg);
        rt.register_type(CELL_TAG, Cell::decode);
        rt.register_handler(H_RING, "ring", h_ring);
        rt.register_handler(H_MOVE, "move", h_move);
        rt.attach_audit(chk.clone());
        rt.attach_race_detector(det.clone());
        let cells: Vec<MobilePtr> = (0..3)
            .map(|n| MobilePtr::new(ObjectId::new(n, 0)))
            .collect();
        for (i, &p) in cells.iter().enumerate() {
            let cell = Box::new(Cell {
                value: 0,
                neighbors: vec![cells[(i + 1) % 3]],
                pad: vec![0x5A; 256],
            });
            rt.create_object(i as NodeId, cell, 128);
            rt.post(p, H_RING, u64_payload(15));
        }
        rt.post(cells[0], H_MOVE, u64_payload(2));
        let stats = rt.run();
        let _ = std::fs::remove_dir_all(spill);
        if !chk.violations().is_empty() {
            return Err(format!(
                "threaded OOC run violated invariants: {:?}",
                chk.violations()
            ));
        }
        if !det.races().is_empty() {
            return Err(format!("threaded OOC run raced: {:?}", det.races()));
        }
        if stats.total_of(|n| n.stores) == 0 {
            return Err("threaded OOC run never spilled — sweep is vacuous".into());
        }
        println!(
            "    threaded-ooc: {} events checked ({} stores, {} loads, hit rate {:.0}%, \
             {} elided, {} batches, {} pool hits)",
            chk.events_seen(),
            stats.total_of(|n| n.stores),
            stats.total_of(|n| n.loads),
            100.0 * stats.prefetch_hit_rate(),
            stats.total_of(|n| n.evictions_elided),
            stats.total_of(|n| n.spill_batches),
            stats.total_of(|n| n.buffer_pool_hits),
        );
        Ok(())
    }

    pub fn run() -> bool {
        println!("==> invariant sweep (DES schedule permutations + threaded race check)");
        for (name, res) in [
            ("des", des_sweep()),
            ("threaded", threaded_sweep()),
            ("threaded-ooc", threaded_ooc_sweep()),
        ] {
            if let Err(e) = res {
                eprintln!("audit: {name} sweep failed: {e}");
                return false;
            }
        }
        true
    }
}

#[cfg(not(any(feature = "audit", debug_assertions)))]
mod invariant_sweep {
    pub fn run() -> bool {
        // Release build without the `audit` feature: the instrumentation
        // is compiled out, so there is nothing to sweep in-process. The
        // subprocess steps above already ran the (debug) test suite,
        // which carries the checker.
        println!("==> invariant sweep skipped (instrumentation compiled out)");
        true
    }
}

#[cfg(any(feature = "audit", debug_assertions))]
mod chaos_sweep {
    //! Seeded storage-fault schedules through both engines on OPCDM:
    //! every schedule must finish with zero invariant violations and the
    //! fault-free mesh (transient faults cost time, never correctness);
    //! ENOSPC schedules must degrade and recover.

    use crate::replay_harness;
    use pumg::methods::ooc_pcdm::{opcdm_run, opcdm_run_threaded, opcdm_run_with};
    use pumg::mrts::audit::{EventSink, FailMode, InvariantChecker, RaceDetector};
    use pumg::mrts::config::MrtsConfig;
    use pumg::mrts::fault::FaultPlan;
    use pumg::mrts::stats::RunStats;
    use std::io::Write;
    use std::sync::Arc;
    use std::time::Duration;

    fn mixed_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(0xC0FF_EE00 ^ seed)
            .with_eio(60)
            .with_torn_writes(40)
            .with_latency(80, Duration::from_micros(300))
    }

    fn counters(stats: &RunStats) -> String {
        format!(
            "faults={} retries={} gave_up={} degraded={} elided={} batches={}",
            stats.total_of(|n| n.faults_injected),
            stats.total_of(|n| n.io_retries),
            stats.total_of(|n| n.io_gave_up),
            stats.total_of(|n| n.degraded_entries),
            stats.total_of(|n| n.evictions_elided),
            stats.total_of(|n| n.spill_batches),
        )
    }

    pub fn run(quick: bool, only: Option<u64>, nodes: usize) -> bool {
        let params = replay_harness::params(nodes);
        let (des_seeds, thr_seeds) = if quick { (4u64, 2u64) } else { (14, 6) };
        let des_seeds: Vec<u64> = match only {
            Some(s) => vec![s],
            None => (0..des_seeds).collect(),
        };
        let thr_seeds: Vec<u64> = match only {
            Some(s) => vec![s],
            None => (0..thr_seeds).collect(),
        };
        // `--seed` re-runs one schedule; the fixed-seed extras are skipped.
        let enospc_seeds: &[u64] = match (only, quick) {
            (Some(_), _) => &[],
            (None, true) => &[1],
            (None, false) => &[1, 2, 3],
        };
        let mut report = Vec::<String>::new();
        let mut ok = true;
        let mut say = |line: String| {
            println!("    {line}");
            report.push(line);
        };

        let budget = 70_000usize;
        println!("==> chaos sweep (seeded storage-fault schedules, both engines, {nodes} nodes)");
        let reference = opcdm_run(&params, MrtsConfig::out_of_core(nodes, budget));

        for &seed in &des_seeds {
            let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
            let sink = chk.clone();
            let r = opcdm_run_with(
                &params,
                MrtsConfig::out_of_core(nodes, budget).with_faults(mixed_plan(seed)),
                move |rt| rt.attach_audit(sink),
            );
            let clean = chk.violations().is_empty()
                && (r.elements, r.vertices) == (reference.elements, reference.vertices);
            ok &= clean;
            say(format!(
                "des seed {seed:>2}: {} [{}] mesh {}",
                if clean { "ok" } else { "FAIL" },
                counters(&r.stats),
                r.elements
            ));
            if !chk.violations().is_empty() {
                say(format!("  violations: {:?}", chk.violations()));
            }
        }

        let thr_reference = {
            let mut cfg = MrtsConfig::out_of_core(nodes, budget);
            cfg.spill_dir = Some(spill_dir("chaos-ref"));
            let r = opcdm_run_threaded(&params, cfg);
            let _ = std::fs::remove_dir_all(spill_dir("chaos-ref"));
            r
        };
        for &seed in &thr_seeds {
            let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
            let det = Arc::new(RaceDetector::new(nodes));
            let label = format!("chaos-t{seed}");
            let cfg =
                replay_harness::harness_config(replay_harness::CHAOS_THREADED, seed, &label, nodes)
                    .expect("known harness id");
            let sink: Arc<dyn EventSink> = chk.clone();
            let r = replay_harness::record_run(cfg, std::slice::from_ref(&sink), Some(det.clone()));
            let _ = std::fs::remove_dir_all(replay_harness::spill_dir(&label));
            let clean = chk.violations().is_empty()
                && det.races().is_empty()
                && (r.elements, r.vertices) == (thr_reference.elements, thr_reference.vertices);
            ok &= clean;
            say(format!(
                "threaded seed {seed:>2}: {} [{}] mesh {}",
                if clean { "ok" } else { "FAIL" },
                counters(&r.stats),
                r.elements
            ));
            if !chk.violations().is_empty() {
                say(format!("  violations: {:?}", chk.violations()));
            }
            if !clean && nodes == replay_harness::DEFAULT_NODES {
                let path = replay_harness::persist_artifact(
                    replay_harness::CHAOS_THREADED,
                    seed,
                    r.decisions,
                    r.recorded,
                );
                say(format!(
                    "  failing schedule persisted: {path} (re-run: audit -- --replay {path})"
                ));
            }
        }

        for &seed in enospc_seeds {
            // Window from store-op 0: per-node store-op counters may only
            // reach low single digits at wide `--nodes`, and a window
            // nobody enters makes the degraded-entry requirement fail
            // (by design — vacuity).
            let plan = FaultPlan::new(seed).with_enospc_window(0, 8);
            let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
            let sink = chk.clone();
            let r = opcdm_run_with(
                &params,
                MrtsConfig::out_of_core(nodes, budget).with_faults(plan),
                move |rt| rt.attach_audit(sink),
            );
            let ratio = r.elements as f64 / reference.elements as f64;
            let clean = chk.violations().is_empty()
                && r.stats.total_of(|n| n.degraded_entries) > 0
                && (0.97..1.03).contains(&ratio);
            ok &= clean;
            say(format!(
                "enospc seed {seed:>2}: {} [{}] mesh {}",
                if clean { "ok" } else { "FAIL" },
                counters(&r.stats),
                r.elements
            ));
        }

        let _ = std::fs::create_dir_all("target");
        if let Ok(mut f) = std::fs::File::create("target/chaos-report.txt") {
            for line in &report {
                let _ = writeln!(f, "{line}");
            }
        }
        println!(
            "    {} schedules swept — report in target/chaos-report.txt",
            des_seeds.len() + thr_seeds.len() + enospc_seeds.len()
        );
        ok
    }

    fn spill_dir(label: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mrts-audit-{label}-{}", std::process::id()))
    }
}

#[cfg(not(any(feature = "audit", debug_assertions)))]
mod chaos_sweep {
    pub fn run(_quick: bool, _only: Option<u64>, _nodes: usize) -> bool {
        println!("==> chaos sweep skipped (instrumentation compiled out)");
        true
    }
}

#[cfg(any(feature = "audit", debug_assertions))]
mod chaos_net_sweep {
    //! Seeded fabric-fault schedules (message drops, duplicates, delays,
    //! reorders, partition windows) through both engines on OPCDM. The
    //! reliable-delivery layer — sequence numbers, positive acks,
    //! bounded-exponential retransmit, receiver dedup — must finish every
    //! schedule with zero invariant violations and the byte-identical
    //! fault-free mesh; a duplicate storm must never re-execute a handler.

    use crate::replay_harness;
    use pumg::methods::ooc_pcdm::{
        opcdm_run, opcdm_run_threaded, opcdm_run_threaded_with, opcdm_run_with,
    };
    use pumg::mrts::audit::{EventSink, FailMode, InvariantChecker, RaceDetector};
    use pumg::mrts::config::MrtsConfig;
    use pumg::mrts::netfault::NetFaultPlan;
    use pumg::mrts::stats::RunStats;
    use std::io::Write;
    use std::sync::Arc;

    // Rates run hotter than the `tests/chaos.rs` schedules: the mesh
    // workload exchanges only a handful of remote messages per run, so a
    // sweep at realistic rates could pass without injecting anything.
    // (The plan itself lives in `replay_harness` so a persisted seed maps
    // back to the exact schedule.)
    fn net_plan(seed: u64) -> NetFaultPlan {
        replay_harness::chaos_net_plan(seed)
    }

    fn counters(stats: &RunStats) -> String {
        format!(
            "dropped={} retransmits={} dups={} hints={} acks={}",
            stats.total_of(|n| n.messages_dropped),
            stats.total_of(|n| n.retransmits),
            stats.total_of(|n| n.dup_suppressed),
            stats.total_of(|n| n.hints_invalidated),
            stats.total_of(|n| n.acks_sent),
        )
    }

    pub fn run(quick: bool, only: Option<u64>, nodes: usize) -> bool {
        let params = replay_harness::params(nodes);
        let (des_seeds, thr_seeds) = if quick { (4u64, 2u64) } else { (20, 20) };
        let des_seeds: Vec<u64> = match only {
            Some(s) => vec![s],
            None => (0..des_seeds).collect(),
        };
        let thr_seeds: Vec<u64> = match only {
            Some(s) => vec![s],
            None => (0..thr_seeds).collect(),
        };
        // `--seed` re-runs one schedule; the fixed-seed extras are skipped.
        let partition_seeds: &[u64] = match (only, quick) {
            (Some(_), _) => &[],
            (None, true) => &[1],
            (None, false) => &[1, 2, 3],
        };
        let run_dup_storm = only.is_none();
        let mut report = Vec::<String>::new();
        let mut ok = true;
        let mut say = |line: String| {
            println!("    {line}");
            report.push(line);
        };

        let budget = 70_000usize;
        println!(
            "==> chaos-net sweep (seeded fabric-fault schedules, both engines, {nodes} nodes)"
        );
        let reference = opcdm_run(&params, MrtsConfig::out_of_core(nodes, budget));

        let mut injected = 0usize;
        for &seed in &des_seeds {
            let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
            let sink = chk.clone();
            let r = opcdm_run_with(
                &params,
                MrtsConfig::out_of_core(nodes, budget).with_net_faults(net_plan(seed)),
                move |rt| rt.attach_audit(sink),
            );
            let clean = chk.violations().is_empty()
                && (r.elements, r.vertices) == (reference.elements, reference.vertices);
            ok &= clean;
            injected +=
                r.stats.total_of(|n| n.messages_dropped) + r.stats.total_of(|n| n.dup_suppressed);
            say(format!(
                "des seed {seed:>2}: {} [{}] mesh {}",
                if clean { "ok" } else { "FAIL" },
                counters(&r.stats),
                r.elements
            ));
            if !chk.violations().is_empty() {
                say(format!("  violations: {:?}", chk.violations()));
            }
        }

        // Partition windows: a contiguous range of sequence numbers per
        // edge is dropped on every attempt the bounded-drop guarantee
        // allows, then the fabric heals. The window sits at low sequence
        // numbers because the mesh workload exchanges only a handful of
        // remote messages per edge.
        for &seed in partition_seeds {
            let plan = NetFaultPlan::new(0x9A27 ^ seed).with_partition(1, 6);
            let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
            let sink = chk.clone();
            let r = opcdm_run_with(
                &params,
                MrtsConfig::out_of_core(nodes, budget).with_net_faults(plan),
                move |rt| rt.attach_audit(sink),
            );
            let clean = chk.violations().is_empty()
                && (r.elements, r.vertices) == (reference.elements, reference.vertices);
            ok &= clean;
            say(format!(
                "partition seed {seed:>2}: {} [{}] mesh {}",
                if clean { "ok" } else { "FAIL" },
                counters(&r.stats),
                r.elements
            ));
        }

        let thr_reference = {
            let mut cfg = MrtsConfig::out_of_core(nodes, budget);
            cfg.spill_dir = Some(spill_dir("chaos-net-ref"));
            let r = opcdm_run_threaded(&params, cfg);
            let _ = std::fs::remove_dir_all(spill_dir("chaos-net-ref"));
            r
        };
        for &seed in &thr_seeds {
            let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
            let det = Arc::new(RaceDetector::new(nodes));
            let label = format!("chaos-net-t{seed}");
            let cfg = replay_harness::harness_config(
                replay_harness::CHAOS_NET_THREADED,
                seed,
                &label,
                nodes,
            )
            .expect("known harness id");
            let sink: Arc<dyn EventSink> = chk.clone();
            let r = replay_harness::record_run(cfg, std::slice::from_ref(&sink), Some(det.clone()));
            let _ = std::fs::remove_dir_all(replay_harness::spill_dir(&label));
            let clean = chk.violations().is_empty()
                && det.races().is_empty()
                && (r.elements, r.vertices) == (thr_reference.elements, thr_reference.vertices);
            ok &= clean;
            injected +=
                r.stats.total_of(|n| n.messages_dropped) + r.stats.total_of(|n| n.dup_suppressed);
            say(format!(
                "threaded seed {seed:>2}: {} [{}] mesh {}",
                if clean { "ok" } else { "FAIL" },
                counters(&r.stats),
                r.elements
            ));
            if !chk.violations().is_empty() {
                say(format!("  violations: {:?}", chk.violations()));
            }
            if !clean && nodes == replay_harness::DEFAULT_NODES {
                let path = replay_harness::persist_artifact(
                    replay_harness::CHAOS_NET_THREADED,
                    seed,
                    r.decisions,
                    r.recorded,
                );
                say(format!(
                    "  failing schedule persisted: {path} (re-run: audit -- --replay {path})"
                ));
            }
        }

        // Duplicate storm: half of all transmissions duplicated; a handler
        // executed twice drives the checker's outstanding-delivery count
        // negative (DuplicateDelivery) and would mutate the mesh.
        if run_dup_storm {
            let plan = NetFaultPlan::new(0xD0D0).with_dups(500);
            let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
            let dir = spill_dir("chaos-net-dup");
            let mut cfg = MrtsConfig::out_of_core(nodes, budget).with_net_faults(plan);
            cfg.spill_dir = Some(dir.clone());
            let sink = chk.clone();
            let r = opcdm_run_threaded_with(&params, cfg, move |rt| rt.attach_audit(sink));
            let _ = std::fs::remove_dir_all(dir);
            let clean = chk.violations().is_empty()
                && r.stats.total_of(|n| n.dup_suppressed) > 0
                && (r.elements, r.vertices) == (thr_reference.elements, thr_reference.vertices);
            ok &= clean;
            say(format!(
                "dup storm:       {} [{}] mesh {}",
                if clean { "ok" } else { "FAIL" },
                counters(&r.stats),
                r.elements
            ));
        }

        if injected == 0 {
            say("FAIL: sweep injected no fabric faults — vacuous".into());
            ok = false;
        }

        let _ = std::fs::create_dir_all("target");
        if let Ok(mut f) = std::fs::File::create("target/chaos-net-report.txt") {
            for line in &report {
                let _ = writeln!(f, "{line}");
            }
        }
        println!(
            "    {} schedules swept — report in target/chaos-net-report.txt",
            des_seeds.len() + thr_seeds.len() + partition_seeds.len() + run_dup_storm as usize
        );
        ok
    }

    fn spill_dir(label: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mrts-audit-{label}-{}", std::process::id()))
    }
}

#[cfg(not(any(feature = "audit", debug_assertions)))]
mod chaos_net_sweep {
    pub fn run(_quick: bool, _only: Option<u64>, _nodes: usize) -> bool {
        println!("==> chaos-net sweep skipped (instrumentation compiled out)");
        true
    }
}

#[cfg(any(feature = "audit", debug_assertions))]
mod chaos_service_sweep {
    //! The supervised multi-job service under sustained chaos: a ≥16-node
    //! pool multiplexing ≥8 concurrent mesh jobs, each job a fault domain
    //! with an independent storage/network fault stream derived from one
    //! base seed. Every non-quarantined job must reproduce its fault-free
    //! bytes; poison jobs must quarantine with decodable replay
    //! artifacts; a mid-run node kill must recover exactly the jobs homed
    //! there; an ENOSPC job must drive the service degraded (shedding
    //! load) and fault-free completions must bring it back. A fault-free
    //! reference pass doubles as the no-quarantine-on-clean-seed guard.

    use pumg::methods::domain::Workload;
    use pumg::methods::mesh_job::MeshJob;
    use pumg::methods::pcdm::PcdmParams;
    use pumg::mrts::audit::{FailMode, InvariantChecker, ServiceEvent, ServiceLog};
    use pumg::mrts::fault::FaultPlan;
    use pumg::mrts::netfault::NetFaultPlan;
    use pumg::mrts::service::{
        AdmissionError, JobService, JobSpec, JobState, QuarantineArtifact, ServiceConfig,
    };
    use std::io::Write;
    use std::sync::Arc;

    /// Base seed every per-job fault stream derives from.
    const BASE_SEED: u64 = 0x5E21_11CE;
    /// Fault-domain width of every mesh job (16 nodes / 2 = 8 concurrent).
    const WIDTH: usize = 2;
    /// Per-pool-node memory budget: low enough that every job spills — a
    /// storage-chaos sweep with no storage traffic would be vacuous.
    const NODE_BUDGET: usize = 60_000;
    /// Supervisor step at which pool node 0 is killed.
    const KILL_STEP: u64 = 6;
    /// Drive-loop backstop against a wedged supervisor.
    const MAX_STEPS: u64 = 1_000_000;

    /// Job shapes cycled across the fleet: (elements, grid, phases).
    const SHAPES: [(u64, usize, u32); 3] = [(1_500, 2, 2), (2_000, 2, 3), (1_200, 3, 2)];

    fn shape_job(shape: usize) -> MeshJob {
        let (elements, grid, phases) = SHAPES[shape % SHAPES.len()];
        MeshJob::new(
            PcdmParams::new(Workload::uniform_square(elements), grid),
            phases,
        )
    }

    /// The ENOSPC job's shape: single-phase, so its degraded-mode entry
    /// lands in the outcome stats the service health machine reads, and
    /// heavy enough that the store-op counter reaches the ENOSPC window.
    fn single_phase_job() -> MeshJob {
        MeshJob::new(PcdmParams::new(Workload::uniform_square(2_500), 2), 1)
    }

    fn spec(name: impl Into<String>) -> JobSpec {
        JobSpec::new(name, WIDTH, WIDTH * NODE_BUDGET)
    }

    fn storage_chaos(job: u64) -> FaultPlan {
        FaultPlan::for_job(BASE_SEED, job)
            .with_eio(60)
            .with_torn_writes(40)
    }

    fn net_chaos(job: u64) -> NetFaultPlan {
        NetFaultPlan::for_job(BASE_SEED, job)
            .with_drops(150)
            .with_dups(100)
            .with_reorder(60)
    }

    pub fn run(quick: bool, nodes: Option<usize>) -> bool {
        let pool = nodes.unwrap_or(16).max(16);
        let n_chaos = if quick { 8usize } else { 24 };
        println!(
            "==> chaos-service sweep ({pool} pool nodes, {n_chaos} chaos jobs + probes, \
             width {WIDTH})"
        );
        let mut report = Vec::<String>::new();
        let mut ok = true;
        let mut say = |line: String| {
            println!("    {line}");
            report.push(line);
        };

        // Fault-free references: one job per shape (plus the ENOSPC
        // job's single-phase shape) through a clean service, drained by
        // a multi-worker pool. Doubles as the fault-free-seed guard:
        // any quarantine or retry here fails the sweep.
        let ref_svc = JobService::new(ServiceConfig {
            pool_nodes: pool,
            node_budget: NODE_BUDGET,
            ..ServiceConfig::default()
        });
        let ref_chk = Arc::new(InvariantChecker::new(FailMode::Collect));
        ref_svc.attach_service_audit(ref_chk.clone());
        let ref_ids: Vec<u64> = (0..SHAPES.len())
            .map(|s| {
                ref_svc
                    .submit(spec(format!("ref-{s}")), Box::new(shape_job(s)))
                    .expect("reference job admitted")
            })
            .collect();
        let ref_1p = ref_svc
            .submit(spec("ref-1p"), Box::new(single_phase_job()))
            .expect("reference job admitted");
        ref_svc.run_until_drained(4);
        let rst = ref_svc.stats();
        let refs_clean = rst.jobs_completed == SHAPES.len() as u64 + 1
            && rst.jobs_quarantined == 0
            && rst.jobs_retried == 0
            && ref_chk.violations().is_empty();
        ok &= refs_clean;
        say(format!(
            "fault-free references: {} [{}]",
            if refs_clean {
                "ok"
            } else {
                "FAIL — quarantine/retry/violation on a fault-free seed"
            },
            rst.summary()
        ));
        let refs: Vec<(u64, u64)> = ref_ids
            .iter()
            .map(|&id| {
                let o = ref_svc.outcome(id).expect("reference outcome");
                (o.digest, o.elements)
            })
            .collect();
        let ref_1p_elements = ref_svc.outcome(ref_1p).expect("reference outcome").elements;

        // The chaos service. Artifacts land in a dedicated directory so
        // the quarantine assertions below see only this run's files.
        let replay_dir = std::path::PathBuf::from("target/replay/service");
        let _ = std::fs::remove_dir_all(&replay_dir);
        let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
        let slog = Arc::new(ServiceLog::new());
        let svc = JobService::new(ServiceConfig {
            pool_nodes: pool,
            node_budget: NODE_BUDGET,
            replay_dir: replay_dir.clone(),
            ..ServiceConfig::default()
        });
        svc.attach_service_audit(chk.clone());
        svc.attach_service_audit(slog.clone());

        let enospc = svc
            .submit(
                spec("enospc"),
                Box::new(
                    single_phase_job()
                        .with_fault(FaultPlan::for_job(BASE_SEED, 1).with_enospc_window(1, 10)),
                ),
            )
            .expect("enospc job admitted");
        let mut chaos_jobs: Vec<(u64, usize)> = Vec::new();
        for i in 0..n_chaos {
            let shape = i % SHAPES.len();
            // Fault streams are keyed by the fleet index: distinct per
            // job, reproducible from (BASE_SEED, i) alone.
            let mut job = shape_job(shape).with_fault(storage_chaos(100 + i as u64));
            if i % 2 == 1 {
                job = job.with_net_fault(net_chaos(100 + i as u64));
            }
            let id = svc
                .submit(spec(format!("chaos-{i}")), Box::new(job))
                .expect("chaos job admitted");
            chaos_jobs.push((id, shape));
        }
        let flaky = svc
            .submit(spec("flaky"), Box::new(shape_job(0).failing_attempts(1)))
            .expect("flaky job admitted");
        let poison_inv = svc
            .submit(spec("poison-inv"), Box::new(shape_job(0).poisoned()))
            .expect("poison job admitted");
        let poison_rt = svc
            .submit(
                spec("poison-rt"),
                Box::new(shape_job(0).failing_attempts(99)),
            )
            .expect("poison job admitted");
        // Admission control: a domain wider than the pool can never be
        // granted and must bounce at submission.
        let infeasible = svc.submit(
            JobSpec::new("too-wide", pool + 1, NODE_BUDGET),
            Box::new(shape_job(0)),
        );
        let infeasible_ok = matches!(infeasible, Err(AdmissionError::Infeasible(_)));
        ok &= infeasible_ok;
        say(format!(
            "admission (too-wide domain): {}",
            if infeasible_ok {
                "rejected ok"
            } else {
                "FAIL — admitted"
            }
        ));

        // Serial drive: deterministic interleaving of job phases with the
        // chaos script (node kill at a fixed step, shed probe at the
        // first degraded observation).
        let mut steps: u64 = 0;
        let mut shed: Option<Result<u64, AdmissionError>> = None;
        let mut drained = true;
        while svc.step_serial() {
            steps += 1;
            if steps == KILL_STEP {
                svc.kill_node(0);
            }
            if shed.is_none() && svc.is_degraded() {
                shed = Some(svc.submit(spec("shed-probe"), Box::new(shape_job(0))));
            }
            if steps > MAX_STEPS {
                drained = false;
                break;
            }
        }
        if !drained {
            say(format!(
                "FAIL: supervisor not drained after {MAX_STEPS} steps"
            ));
            ok = false;
        }

        // Byte-identity: every chaos job must have completed with its
        // shape's fault-free digest — across retries, recoveries, and
        // its private fault stream.
        let mut bad = 0usize;
        let mut faults_seen = 0usize;
        for &(id, shape) in &chaos_jobs {
            let good = match svc.outcome(id) {
                Some(o) => {
                    faults_seen += o.stats.total_of(|n| n.faults_injected)
                        + o.stats.total_of(|n| n.messages_dropped)
                        + o.stats.total_of(|n| n.dup_suppressed);
                    (o.digest, o.elements) == refs[shape]
                }
                None => false,
            };
            if !good {
                bad += 1;
                say(format!(
                    "job {id} (shape {shape}): FAIL — state {:?}, diverged from fault-free \
                     reference",
                    svc.job_state(id)
                ));
            }
        }
        say(format!(
            "byte-identity: {}/{} chaos jobs reproduced their fault-free mesh",
            n_chaos - bad,
            n_chaos
        ));
        ok &= bad == 0;
        if faults_seen == 0 {
            say("FAIL: no faults observed across the fleet — vacuous".into());
            ok = false;
        }

        let flaky_ok = svc
            .outcome(flaky)
            .is_some_and(|o| (o.digest, o.elements) == refs[0]);
        ok &= flaky_ok;
        say(format!(
            "flaky job (1 failed attempt): {}",
            if flaky_ok {
                "retried, bytes ok"
            } else {
                "FAIL — diverged or not completed"
            }
        ));

        // The ENOSPC job runs degraded: the mesh survives (ratio check —
        // degraded eviction legitimately changes the schedule, so bytes
        // may differ) and its completion drives the service health
        // machine.
        let enospc_out = svc.outcome(enospc);
        let enospc_ok = enospc_out.as_ref().is_some_and(|o| {
            let ratio = o.elements as f64 / ref_1p_elements as f64;
            o.stats.total_of(|n| n.degraded_entries) > 0 && (0.97..1.03).contains(&ratio)
        });
        ok &= enospc_ok;
        say(format!(
            "enospc job: {} (elements {} vs fault-free {})",
            if enospc_ok {
                "degraded + recovered ok"
            } else {
                "FAIL — no degraded entry or mesh ratio off"
            },
            enospc_out.map_or(0, |o| o.elements),
            ref_1p_elements
        ));
        let shed_ok = matches!(shed, Some(Err(AdmissionError::Shedding)));
        ok &= shed_ok;
        say(format!(
            "degraded-mode shedding: {}",
            if shed_ok {
                "probe shed ok"
            } else {
                "FAIL — degraded window not observed or probe admitted"
            }
        ));

        // Poison jobs: quarantined, never resubmitted, replay artifact
        // persisted and decodable.
        for (id, name, want_attempts) in [
            (poison_inv, "poison-inv", 1u32),
            (poison_rt, "poison-rt", 3u32),
        ] {
            let state_ok = svc.job_state(id) == Some(JobState::Quarantined);
            let path = replay_dir.join(format!("job-{id:04}-{name}.mjob"));
            let art = QuarantineArtifact::load(&path);
            let art_ok = art
                .as_ref()
                .is_ok_and(|a| a.job == id && a.attempts == want_attempts);
            ok &= state_ok && art_ok;
            say(format!(
                "{name}: {} (artifact {})",
                if state_ok {
                    "quarantined ok"
                } else {
                    "FAIL — not quarantined"
                },
                if art_ok {
                    format!("{} ok", path.display())
                } else {
                    format!("FAIL — {} missing or wrong", path.display())
                }
            ));
        }

        let st = svc.stats();
        let recovered_events = slog
            .snapshot()
            .iter()
            .filter(|e| matches!(e, ServiceEvent::JobRecovered { .. }))
            .count() as u64;
        let counters_ok = st.jobs_quarantined == 2
            && st.jobs_recovered >= 1
            && recovered_events == st.jobs_recovered
            && st.jobs_retried >= 3
            && st.shed_events == 1
            && st.jobs_rejected == 2
            && st.degraded_mode_transitions == 2
            && !svc.is_degraded();
        ok &= counters_ok;
        say(format!(
            "service counters: {} [{}]",
            if counters_ok { "ok" } else { "FAIL" },
            st.summary()
        ));
        if !chk.violations().is_empty() {
            say(format!("FAIL: violations {:?}", chk.violations()));
            ok = false;
        }

        let _ = std::fs::create_dir_all("target");
        if let Ok(mut f) = std::fs::File::create("target/chaos-service-report.txt") {
            for line in &report {
                let _ = writeln!(f, "{line}");
            }
        }
        println!(
            "    {} jobs supervised over {steps} steps — report in \
             target/chaos-service-report.txt",
            n_chaos + 6
        );
        ok
    }
}

#[cfg(not(any(feature = "audit", debug_assertions)))]
mod chaos_service_sweep {
    pub fn run(_quick: bool, _nodes: Option<usize>) -> bool {
        println!("==> chaos-service sweep skipped (instrumentation compiled out)");
        true
    }
}

#[cfg(any(feature = "audit", debug_assertions))]
mod replay_harness {
    //! Record/replay plumbing shared by the chaos sweeps and the
    //! `--replay` / `--replay-smoke` commands. A harness id + fault seed
    //! fully determines a schedule's configuration, so a persisted
    //! [`ReplayArtifact`] is self-describing: `--replay <path>` rebuilds
    //! the workload, re-executes under the recorded decision log, and
    //! diffs the live canonical audit stream against the recorded one.

    use pumg::methods::domain::Workload;
    use pumg::methods::ooc_pcdm::{opcdm_collect_threaded, opcdm_setup_threaded};
    use pumg::methods::pcdm::PcdmParams;
    use pumg::mrts::audit::{EventLog, EventSink, FanOut, RaceDetector};
    use pumg::mrts::config::MrtsConfig;
    use pumg::mrts::fault::FaultPlan;
    use pumg::mrts::netfault::NetFaultPlan;
    use pumg::mrts::replay::{
        canonicalize, compare, CanonicalStream, Decision, DecisionLog, ReplayArtifact,
        DEFAULT_LOG_BYTE_CAP,
    };
    use pumg::mrts::stats::RunStats;
    use std::io::Write;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;
    use std::time::Duration;

    pub const CHAOS_THREADED: &str = "chaos-threaded";
    pub const CHAOS_NET_THREADED: &str = "chaos-net-threaded";
    pub const REPLAY_SMOKE: &str = "replay-smoke";

    /// The node count persisted artifacts replay at. Sweeps run at other
    /// widths (`--nodes`) skip artifact persistence, because an artifact
    /// names only `(harness, seed)` and must rebuild its exact config.
    pub const DEFAULT_NODES: usize = 2;
    const BUDGET: usize = 70_000;

    /// The sweep workload, scaled so a `--nodes` override keeps the
    /// *per-node* memory pressure of the default 2-node sweep: the mesh
    /// grows with the pool and the grid keeps at least one subdomain per
    /// node. Without the scaling a 16-node sweep fits in-core and the
    /// storage chaos never touches a disk — vacuously green.
    pub fn params(nodes: usize) -> PcdmParams {
        PcdmParams::new(
            Workload::uniform_square(3_000 * nodes as u64),
            grid_for(nodes),
        )
    }

    /// Smallest grid with at least one subdomain per node.
    pub fn grid_for(nodes: usize) -> usize {
        let mut g = 2usize;
        while g * g < nodes {
            g += 1;
        }
        g
    }

    /// The chaos sweep's threaded storage-fault schedule for `seed`.
    fn chaos_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(0xBAD_D15C ^ seed)
            .with_eio(120)
            .with_torn_writes(80)
            .with_latency(60, Duration::from_micros(200))
    }

    /// The chaos-net sweep's fabric-fault schedule for `seed`.
    pub fn chaos_net_plan(seed: u64) -> NetFaultPlan {
        NetFaultPlan::new(0x6E7F_A017 ^ seed)
            .with_drops(200)
            .with_dups(150)
            .with_delay(80, Duration::from_micros(300))
            .with_reorder(60)
    }

    /// Map a harness id + seed back to the exact configuration that
    /// produced a persisted artifact. `replay-smoke` pins `io_threads`
    /// to 1: with a single pool thread both lanes of the canonical
    /// stream are fully deterministic, so byte-identity is provable.
    pub fn harness_config(
        harness: &str,
        seed: u64,
        label: &str,
        nodes: usize,
    ) -> Option<MrtsConfig> {
        let mut cfg = match harness {
            CHAOS_THREADED => MrtsConfig::out_of_core(nodes, BUDGET).with_faults(chaos_plan(seed)),
            CHAOS_NET_THREADED => {
                MrtsConfig::out_of_core(nodes, BUDGET).with_net_faults(chaos_net_plan(seed))
            }
            // Work stealing stays on here so the smoke proves steals
            // replay without log entries: they derive from the inputs.
            REPLAY_SMOKE => MrtsConfig::out_of_core(nodes, BUDGET)
                .with_net_faults(chaos_net_plan(seed))
                .with_io_threads(1)
                .with_work_stealing(),
            _ => return None,
        };
        cfg.spill_dir = Some(spill_dir(label));
        Some(cfg)
    }

    pub fn spill_dir(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mrts-audit-{label}-{}", std::process::id()))
    }

    fn artifact_path(harness: &str, seed: u64) -> PathBuf {
        PathBuf::from("target/replay").join(format!("{harness}-seed{seed}.replay"))
    }

    /// Persist a failing schedule for offline replay; returns the path
    /// (or an error marker) for the sweep report.
    pub fn persist_artifact(
        harness: &str,
        seed: u64,
        decisions: DecisionLog,
        recorded: CanonicalStream,
    ) -> String {
        let art = ReplayArtifact {
            harness: harness.to_string(),
            seed,
            decisions,
            recorded,
        };
        let path = artifact_path(harness, seed);
        match art.save(&path, DEFAULT_LOG_BYTE_CAP) {
            Ok(()) => path.display().to_string(),
            Err(e) => format!("<persist failed: {e}>"),
        }
    }

    /// One recorded (or replayed) schedule's outcome.
    pub struct RunOutcome {
        pub elements: u64,
        pub vertices: u64,
        pub stats: RunStats,
        pub decisions: DecisionLog,
        pub recorded: CanonicalStream,
    }

    fn execute(
        cfg: MrtsConfig,
        sinks: &[Arc<dyn EventSink>],
        det: Option<Arc<RaceDetector>>,
        mode: Option<DecisionLog>,
    ) -> RunOutcome {
        let nodes = cfg.nodes;
        let log = Arc::new(EventLog::new());
        let mut all: Vec<Arc<dyn EventSink>> = vec![log.clone()];
        all.extend(sinks.iter().cloned());
        let mut rt = opcdm_setup_threaded(&params(nodes), cfg);
        rt.attach_audit(Arc::new(FanOut::new(all)));
        if let Some(d) = det {
            rt.attach_race_detector(d);
        }
        match mode {
            Some(decisions) => rt.replay_decisions(decisions),
            None => rt.record_decisions(),
        }
        let stats = rt.run();
        let (elements, vertices) = opcdm_collect_threaded(&rt);
        let decisions = rt
            .take_decision_log()
            .unwrap_or_else(|| DecisionLog::new(nodes));
        RunOutcome {
            elements,
            vertices,
            stats,
            decisions,
            recorded: canonicalize(&log.snapshot(), nodes),
        }
    }

    /// Run a schedule with decision recording on; `sinks` ride alongside
    /// the internal [`EventLog`] via a [`FanOut`].
    pub fn record_run(
        cfg: MrtsConfig,
        sinks: &[Arc<dyn EventSink>],
        det: Option<Arc<RaceDetector>>,
    ) -> RunOutcome {
        execute(cfg, sinks, det, None)
    }

    /// Re-run a schedule under a recorded decision log. The returned
    /// `recorded` field holds the *live* canonical stream; `decisions`
    /// is empty (the sequencer consumes the log).
    pub fn replay_run(cfg: MrtsConfig, decisions: DecisionLog) -> RunOutcome {
        execute(cfg, &[], None, Some(decisions))
    }

    fn write_divergence_report(text: &str) {
        let _ = std::fs::create_dir_all("target/replay");
        if let Ok(mut f) = std::fs::File::create("target/replay/divergence-report.txt") {
            let _ = f.write_all(text.as_bytes());
        }
    }

    /// `--replay <path>`: load an artifact, re-execute its schedule under
    /// the recorded decision log, and report the first divergence (if
    /// any) between the recorded and live canonical audit streams.
    pub fn replay_artifact_cmd(path: &Path) -> bool {
        println!("==> replay ({})", path.display());
        let art = match ReplayArtifact::load(path) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("audit: cannot load replay artifact: {e}");
                return false;
            }
        };
        let label = format!("replay-{}", art.seed);
        let Some(cfg) = harness_config(&art.harness, art.seed, &label, DEFAULT_NODES) else {
            eprintln!(
                "audit: artifact names unknown harness {:?} (known: {CHAOS_THREADED}, \
                 {CHAOS_NET_THREADED}, {REPLAY_SMOKE})",
                art.harness
            );
            return false;
        };
        println!(
            "    harness {} seed {} ({} recorded decisions, {} recorded events)",
            art.harness,
            art.seed,
            art.decisions.len(),
            art.recorded.total_events()
        );
        let r = replay_run(cfg, art.decisions.clone());
        let _ = std::fs::remove_dir_all(spill_dir(&label));
        let report = compare(&art.recorded, &r.recorded);
        let seq_div = r.stats.total_of(|n| n.replay_divergences);
        print!("    {report}");
        println!("    sequencer divergences: {seq_div}");
        let text = format!("{report}sequencer divergences: {seq_div}\n");
        write_divergence_report(&text);
        println!("    report in target/replay/divergence-report.txt");
        report.is_clean() && seq_div == 0
    }

    /// The default run's leg: the quick smoke.
    pub fn gate_smoke() -> bool {
        smoke(true)
    }

    /// `--replay-smoke`: record chaos-net schedules (single pool thread),
    /// replay each, and require byte-identical canonical streams with
    /// zero sequencer divergences — plus two perturbation probes proving
    /// the detector is not vacuous.
    pub fn smoke(quick: bool) -> bool {
        let seeds: u64 = if quick { 3 } else { 10 };
        println!("==> replay smoke ({seeds} record/replay pairs + perturbation probes)");
        let mut ok = true;
        let mut kept: Option<(DecisionLog, CanonicalStream)> = None;
        let mut divergence_text = String::new();
        let mut steal_requests = 0;
        for seed in 0..seeds {
            let rec_label = format!("rsmoke-rec{seed}");
            let cfg = harness_config(REPLAY_SMOKE, seed, &rec_label, DEFAULT_NODES)
                .expect("known harness id");
            let rec = record_run(cfg, &[], None);
            let _ = std::fs::remove_dir_all(spill_dir(&rec_label));
            let n_decisions = rec.stats.total_of(|n| n.decisions_recorded);
            if n_decisions == 0 {
                println!("    seed {seed}: FAIL — recorded no decisions (vacuous)");
                ok = false;
                continue;
            }
            let rep_label = format!("rsmoke-rep{seed}");
            let cfg = harness_config(REPLAY_SMOKE, seed, &rep_label, DEFAULT_NODES)
                .expect("known harness id");
            let rep = replay_run(cfg, rec.decisions.clone());
            let _ = std::fs::remove_dir_all(spill_dir(&rep_label));
            let report = compare(&rec.recorded, &rep.recorded);
            let seq_div = rep.stats.total_of(|n| n.replay_divergences);
            let clean = report.is_clean()
                && seq_div == 0
                && report.events_compared > 0
                && (rep.elements, rep.vertices) == (rec.elements, rec.vertices);
            ok &= clean;
            let requests = rec.stats.total_of(|n| n.steal_requests as usize);
            steal_requests += requests;
            println!(
                "    seed {seed}: {} ({} decisions, {} events byte-compared, {} sequencer \
                 divergences, mesh {}, steals {}/{} requested/stolen)",
                if clean { "ok" } else { "FAIL" },
                n_decisions,
                report.events_compared,
                seq_div,
                rep.elements,
                requests,
                rec.stats.total_of(|n| n.tasks_stolen as usize)
            );
            if !clean {
                divergence_text.push_str(&format!("seed {seed}:\n{report}"));
                let path = persist_artifact(
                    REPLAY_SMOKE,
                    seed,
                    rec.decisions.clone(),
                    rec.recorded.clone(),
                );
                println!("      artifact persisted: {path}");
            }
            if kept.is_none() {
                kept = Some((rec.decisions, rec.recorded));
            }
        }

        // Vacuity guard: the steal path must have run somewhere.
        if steal_requests == 0 {
            println!("    FAIL: no seed issued a steal request (vacuous)");
            ok = false;
        }
        let Some((decisions, recorded)) = kept else {
            println!("    FAIL: no schedule recorded — probes skipped");
            write_divergence_report(&divergence_text);
            return false;
        };
        // Keep one good artifact around: it documents the on-disk format
        // and gives `--replay` a known-clean input.
        let path = persist_artifact(REPLAY_SMOKE, 0, decisions.clone(), recorded.clone());
        println!("    seed 0 artifact kept: {path}");

        // Probe 1: corrupt one fabric decision; the sequencer must notice
        // (tag mismatch → divergence counter) even if the run then
        // converges back to the recorded stream.
        let mut bad = decisions.clone();
        let flipped = bad.nodes.iter_mut().flatten().find_map(|d| {
            if let Decision::FabricRecv { tag, .. } = d {
                *tag ^= 0x5A5A;
                Some(())
            } else {
                None
            }
        });
        if flipped.is_none() {
            println!("    FAIL: recorded log holds no FabricRecv to perturb (vacuous)");
            ok = false;
        } else {
            let label = "rsmoke-perturb";
            let cfg =
                harness_config(REPLAY_SMOKE, 0, label, DEFAULT_NODES).expect("known harness id");
            let rep = replay_run(cfg, bad);
            let _ = std::fs::remove_dir_all(spill_dir(label));
            let report = compare(&recorded, &rep.recorded);
            let seq_div = rep.stats.total_of(|n| n.replay_divergences);
            let caught = seq_div > 0 || !report.is_clean();
            ok &= caught;
            println!(
                "    perturbed log: {} ({} sequencer divergences, stream {})",
                if caught {
                    "caught"
                } else {
                    "FAIL — undetected"
                },
                seq_div,
                if report.is_clean() {
                    "clean"
                } else {
                    "diverged"
                }
            );
            if !report.is_clean() {
                divergence_text.push_str(&format!("perturbed log:\n{report}"));
            }
        }

        // Probe 2: corrupt the recorded stream itself; the detector must
        // report the first divergence at exactly the cut index.
        let mut cut = recorded.clone();
        let probe = cut
            .nodes
            .iter()
            .position(|n| n.control.len() >= 2)
            .map(|node| {
                let idx = cut.nodes[node].control.len() / 2;
                cut.nodes[node].control.truncate(idx);
                (node, idx)
            });
        match probe {
            None => {
                println!("    FAIL: recorded stream too small to perturb (vacuous)");
                ok = false;
            }
            Some((node, idx)) => {
                let report = compare(&cut, &recorded);
                let hit = report
                    .divergences
                    .iter()
                    .any(|d| d.node as usize == node && d.index == idx);
                ok &= hit;
                println!(
                    "    perturbed stream: {} (expected first divergence node {node} index {idx})",
                    if hit {
                        "located"
                    } else {
                        "FAIL — misreported"
                    },
                );
                divergence_text.push_str(&format!("perturbed stream probe:\n{report}"));
            }
        }

        write_divergence_report(&divergence_text);
        println!("    report in target/replay/divergence-report.txt");
        ok
    }
}

#[cfg(not(any(feature = "audit", debug_assertions)))]
mod replay_harness {
    use std::path::Path;

    pub fn replay_artifact_cmd(_path: &Path) -> bool {
        eprintln!(
            "audit: --replay needs the audit stream; build with debug assertions or \
             `--features audit`"
        );
        false
    }

    pub fn smoke(_quick: bool) -> bool {
        eprintln!(
            "audit: --replay-smoke needs the audit stream; build with debug assertions or \
             `--features audit`"
        );
        false
    }

    /// The default run's leg: skipped like the other sweeps.
    pub fn gate_smoke() -> bool {
        println!("==> replay smoke skipped (instrumentation compiled out)");
        true
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut chaos = false;
    let mut chaos_net = false;
    let mut chaos_service = false;
    let mut quick = false;
    let mut replay_smoke = false;
    let mut seed: Option<u64> = None;
    let mut nodes: Option<usize> = None;
    let mut replay_path: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--chaos" => chaos = true,
            "--chaos-net" => chaos_net = true,
            "--chaos-service" => chaos_service = true,
            "--quick" => quick = true,
            "--replay-smoke" => replay_smoke = true,
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = Some(v),
                None => {
                    eprintln!("audit: --seed requires an integer schedule seed");
                    return ExitCode::FAILURE;
                }
            },
            "--nodes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => nodes = Some(v),
                _ => {
                    eprintln!("audit: --nodes requires a positive node count");
                    return ExitCode::FAILURE;
                }
            },
            "--replay" => match it.next() {
                Some(v) => replay_path = Some(std::path::PathBuf::from(v)),
                None => {
                    eprintln!("audit: --replay requires a path to a .replay artifact");
                    return ExitCode::FAILURE;
                }
            },
            bad => {
                eprintln!(
                    "audit: unknown flag {bad} (expected --chaos, --chaos-net, \
                     --chaos-service, --replay-smoke, --replay <path>, \
                     --seed <n>, --nodes <n> and/or --quick)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if seed.is_some() && !(chaos || chaos_net) {
        eprintln!("audit: --seed only applies to --chaos / --chaos-net");
        return ExitCode::FAILURE;
    }
    if nodes.is_some() && !(chaos || chaos_net || chaos_service) {
        eprintln!("audit: --nodes only applies to --chaos / --chaos-net / --chaos-service");
        return ExitCode::FAILURE;
    }
    let ok = if let Some(path) = replay_path {
        replay_harness::replay_artifact_cmd(&path)
    } else if replay_smoke {
        replay_harness::smoke(quick)
    } else if chaos_service {
        chaos_service_sweep::run(quick, nodes)
    } else if chaos_net {
        chaos_net_sweep::run(quick, seed, nodes.unwrap_or(2))
    } else if chaos {
        chaos_sweep::run(quick, seed, nodes.unwrap_or(2))
    } else {
        lint_and_test()
            && invariant_sweep::run()
            && chaos_sweep::run(true, None, 2)
            && chaos_net_sweep::run(true, None, 2)
            && chaos_service_sweep::run(true, None)
            && replay_harness::gate_smoke()
    };
    if ok {
        println!("audit: all gates passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
