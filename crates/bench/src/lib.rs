//! The benchmark harness: one runner per table/figure of the paper.
//!
//! Every experiment of the evaluation section (Figures 1, 5–10; Tables
//! I–VII) plus the design-choice ablations has a runner here returning a
//! printable [`Table`]; the `src/bin/*` binaries print them
//! (`cargo run --release -p pumg-bench --bin fig5`), and the Criterion
//! benches in `benches/` time trimmed versions of the same code paths.
//!
//! Problem sizes are scaled down from the paper's multi-hundred-million
//! element meshes to laptop scale, with per-node memory budgets scaled
//! proportionally so that the in-core/out-of-core crossover — the variable
//! every figure sweeps — is preserved (see DESIGN.md §3). Set `PUMG_SCALE`
//! (default 1.0) to grow or shrink every sweep.

use mrts::compute::ExecutorKind;
use mrts::config::MrtsConfig;
use mrts::des::Des;
use mrts::policy::PolicyKind;
use pumg_geometry::Point2;
use pumg_methods::common::{MethodError, MethodResult};
use pumg_methods::domain::{h_for_elements, DomainSpec, SizingSpec, Workload};
use pumg_methods::nupdr::{nupdr_incore_scaled, NupdrParams};
use pumg_methods::ooc_nupdr::{onupdr_run, OnupdrOpts};
use pumg_methods::ooc_pcdm::opcdm_run;
use pumg_methods::ooc_updr::oupdr_run;
use pumg_methods::pcdm::{pcdm_incore_scaled, PcdmParams};
use pumg_methods::updr::{updr_incore_scaled, UpdrParams};

/// Bytes of in-core footprint per mesh element (measured: ~37 B/element
/// for the triangulation arena, rounded up for per-object overhead; used
/// to scale memory budgets to target element counts).
pub const BYTES_PER_ELEMENT: u64 = 45;

/// Virtual-time multiplier applied to measured compute. The paper's nodes
/// are 650 MHz–1.62 GHz machines from the 2000s; this host computes the
/// same kernels roughly 30× faster while the modeled disk and network are
/// period-realistic. Scaling compute restores the paper's
/// compute-to-I/O ratio — the quantity behind the overlap and overhead
/// results. See DESIGN.md §3.
pub const COMPUTE_SCALE: f64 = 32.0;

/// Bytes per element *resident* in the NUPDR in-core baseline: each leaf
/// keeps its materialized region mesh (leaf + buffer ≈ 8× the leaf's own
/// area), so the baseline's working set is ~8× the raw mesh arena.
pub const NUPDR_BYTES_PER_ELEMENT: u64 = 360;

/// Per-PE memory for NUPDR baselines fitting `fit_elements` in-core.
pub fn nupdr_mem_per_pe(fit_elements: u64, pes: usize) -> u64 {
    fit_elements * NUPDR_BYTES_PER_ELEMENT / pes as u64
}

/// In-core MRTS config with period-appropriate compute scaling.
pub fn cfg_in_core(nodes: usize) -> MrtsConfig {
    let mut c = MrtsConfig::in_core(nodes);
    c.compute_scale = COMPUTE_SCALE;
    c
}

/// Out-of-core MRTS config with period-appropriate compute scaling.
pub fn cfg_ooc(nodes: usize, budget: usize) -> MrtsConfig {
    let mut c = MrtsConfig::out_of_core(nodes, budget);
    c.compute_scale = COMPUTE_SCALE;
    c
}

/// Global sweep scale (env `PUMG_SCALE`, default 1.0).
#[derive(Clone, Copy, Debug)]
pub struct Scale(pub f64);

impl Scale {
    pub fn from_env() -> Self {
        Scale(
            std::env::var("PUMG_SCALE")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(1.0),
        )
    }

    pub fn sz(&self, base: u64) -> u64 {
        ((base as f64 * self.0) as u64).max(500)
    }
}

/// A printable result table.
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub notes: Vec<String>,
}

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as a markdown table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = format!("## {}\n\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:>w$} |", w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}:|", "-".repeat(w + 1)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        for n in &self.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
        out
    }

    pub fn print(&self) {
        println!("{}", self.render());
    }
}

fn secs(r: &MethodResult) -> String {
    format!("{:.3}", r.total_secs())
}

fn maybe_secs(r: &Result<MethodResult, MethodError>) -> String {
    match r {
        Ok(r) => secs(r),
        Err(MethodError::OutOfMemory { .. }) => "n/a".to_string(),
        Err(e) => format!("err({e})"),
    }
}

fn speed_k(r: &MethodResult) -> String {
    format!("{:.0}", r.speed() / 1000.0)
}

fn maybe_speed_k(r: &Result<MethodResult, MethodError>) -> String {
    match r {
        Ok(r) => speed_k(r),
        Err(_) => "n/a".to_string(),
    }
}

/// Graded unit-square workload used by the NUPDR experiments.
pub fn graded_workload(elements: u64) -> Workload {
    let domain = DomainSpec::unit_square();
    let h_avg = h_for_elements(domain.area(), elements);
    let h_min = h_avg / 2.5;
    Workload {
        domain,
        sizing: SizingSpec::Graded {
            focus: Point2::new(0.0, 0.0),
            h_min,
            h_max: h_min * 4.0,
            radius: 1.4,
        },
    }
}

/// Per-PE memory (bytes) sized so that problems up to `fit_elements`
/// (total) fit in-core on `pes` PEs.
pub fn mem_per_pe(fit_elements: u64, pes: usize) -> u64 {
    fit_elements * BYTES_PER_ELEMENT / pes as u64
}

// =====================================================================
// Figure 1 — job wait time vs requested nodes
// =====================================================================

pub fn fig1(_scale: Scale) -> Table {
    use pumg_schedsim::*;
    let trace = generate_trace(
        128,
        &TraceConfig {
            n_jobs: 4000,
            mean_interarrival: 100.0,
            mean_runtime: 3600.0,
            seed: 11,
        },
    );
    let records = simulate(&SchedConfig::default(), &trace);
    let mut t = Table::new(
        "Figure 1 — average queue wait vs requested nodes (128-node cluster, FCFS + EASY backfilling)",
        &["nodes requested", "avg wait (min)", "jobs"],
    );
    for (w, wait, n) in wait_by_width(&records) {
        t.row(vec![
            w.to_string(),
            format!("{:.1}", wait / 60.0),
            n.to_string(),
        ]);
    }
    let by = wait_by_width(&records);
    let wait_of = |w: usize| {
        by.iter()
            .min_by_key(|(x, _, _)| x.abs_diff(w))
            .map(|&(_, m, _)| m)
            .unwrap_or(0.0)
    };
    t.note(format!(
        "intro example: in-core 32 nodes = {:.1} min turnaround; out-of-core 16 nodes = {:.1} min",
        (wait_of(32) + 310.0) / 60.0,
        (wait_of(16) + 731.0) / 60.0,
    ));
    t
}

// =====================================================================
// Figure 5 / Table I — UPDR vs OUPDR
// =====================================================================

pub struct UpdrSweep {
    pub sizes: Vec<u64>,
    pub fit: u64,
    pub grid: usize,
}

impl UpdrSweep {
    pub fn new(scale: Scale) -> Self {
        UpdrSweep {
            sizes: [10_000u64, 20_000, 40_000, 80_000, 160_000]
                .iter()
                .map(|&s| scale.sz(s))
                .collect(),
            fit: scale.sz(60_000),
            grid: 8,
        }
    }
}

pub fn fig5(scale: Scale) -> Table {
    let sweep = UpdrSweep::new(scale);
    let mut t = Table::new(
        "Figure 5 — execution time of UPDR (16, 25 PEs) and OUPDR (16 PEs)",
        &[
            "size (target)",
            "elements",
            "UPDR-16 (s)",
            "UPDR-25 (s)",
            "OUPDR-16 (s)",
        ],
    );
    let m16 = mem_per_pe(sweep.fit, 16);
    let m25 = mem_per_pe(sweep.fit, 16); // same per-PE memory, more PEs
    for &s in &sweep.sizes {
        let p = UpdrParams::new(Workload::uniform_square(s), sweep.grid);
        let b16 = updr_incore_scaled(&p, 16, m16, COMPUTE_SCALE);
        let b25 = updr_incore_scaled(&p, 25, m25, COMPUTE_SCALE);
        let port = oupdr_run::<Des>(&p, cfg_ooc(16, m16 as usize));
        t.row(vec![
            s.to_string(),
            port.elements.to_string(),
            maybe_secs(&b16),
            maybe_secs(&b25),
            secs(&port),
        ]);
    }
    t.note(format!(
        "per-PE memory {} KiB; in-core fits ≈{} elements on 16 PEs ('n/a' = out of memory)",
        m16 >> 10,
        sweep.fit
    ));
    t
}

pub fn table1(scale: Scale) -> Table {
    let sweep = UpdrSweep::new(scale);
    let mut sizes = sweep.sizes.clone();
    sizes.push(scale.sz(320_000)); // out-of-core-only size
    let m16 = mem_per_pe(sweep.fit, 16);
    let mut t = Table::new(
        "Table I — single-PE speed of UPDR and OUPDR (16 PEs), Speed = S/(T·N) in 10³ elements/s",
        &[
            "elements",
            "UPDR time (s)",
            "OUPDR time (s)",
            "UPDR speed",
            "OUPDR speed",
        ],
    );
    for &s in &sizes {
        let p = UpdrParams::new(Workload::uniform_square(s), sweep.grid);
        let base = updr_incore_scaled(&p, 16, m16, COMPUTE_SCALE);
        let port = oupdr_run::<Des>(&p, cfg_ooc(16, m16 as usize));
        t.row(vec![
            port.elements.to_string(),
            maybe_secs(&base),
            secs(&port),
            maybe_speed_k(&base),
            speed_k(&port),
        ]);
    }
    t
}

pub fn fig8(scale: Scale) -> Table {
    let grid = 8;
    let fit = scale.sz(30_000);
    let mut t = Table::new(
        "Figure 8 — OUPDR on very large problems (8 and 16 PEs)",
        &[
            "elements",
            "OUPDR-8 (s)",
            "OUPDR-16 (s)",
            "disk-8 (%)",
            "overlap-8 (%)",
        ],
    );
    for &s in &[40_000u64, 80_000, 160_000, 320_000] {
        let s = scale.sz(s);
        let p = UpdrParams::new(Workload::uniform_square(s), grid);
        let r8 = oupdr_run::<Des>(&p, cfg_ooc(8, mem_per_pe(fit, 8) as usize));
        let r16 = oupdr_run::<Des>(&p, cfg_ooc(16, mem_per_pe(fit, 16) as usize));
        t.row(vec![
            r8.elements.to_string(),
            secs(&r8),
            secs(&r16),
            format!("{:.1}", r8.stats.disk_pct()),
            format!("{:.1}", r8.stats.overlap_pct()),
        ]);
    }
    t.note("in-core would require the full aggregate footprint; budgets hold ≈fit/PEs each");
    t
}

pub fn table4(scale: Scale) -> Table {
    let grid = 8;
    let fit = scale.sz(30_000);
    let mut t = Table::new(
        "Table IV — OUPDR computation/communication/disk and overlap",
        &["elements", "PEs", "comp %", "comm %", "disk %", "overlap %"],
    );
    for &s in &[80_000u64, 160_000, 320_000] {
        let s = scale.sz(s);
        for pes in [8usize, 16] {
            let p = UpdrParams::new(Workload::uniform_square(s), grid);
            let r = oupdr_run::<Des>(&p, cfg_ooc(pes, mem_per_pe(fit, pes) as usize));
            t.row(vec![
                r.elements.to_string(),
                pes.to_string(),
                format!("{:.1}", r.stats.comp_pct()),
                format!("{:.1}", r.stats.comm_pct()),
                format!("{:.1}", r.stats.disk_pct()),
                format!("{:.1}", r.stats.overlap_pct()),
            ]);
        }
    }
    t
}

// =====================================================================
// Figure 6 / Table II — NUPDR vs ONUPDR
// =====================================================================

pub fn fig6(scale: Scale) -> Table {
    let fit = scale.sz(40_000);
    let mut t = Table::new(
        "Figure 6 — execution time of NUPDR and ONUPDR (2, 4, 8 PEs)",
        &[
            "size (target)",
            "elements",
            "NUPDR-2 (s)",
            "NUPDR-4 (s)",
            "NUPDR-8 (s)",
            "ONUPDR-2 (s)",
            "ONUPDR-4 (s)",
            "ONUPDR-8 (s)",
        ],
    );
    for &s in &[5_000u64, 10_000, 20_000, 40_000, 80_000] {
        let s = scale.sz(s);
        let p = NupdrParams::new(graded_workload(s));
        let mut cells = vec![s.to_string(), String::new()];
        let mut elements = 0;
        for pes in [2usize, 4, 8] {
            let r = nupdr_incore_scaled(&p, pes, nupdr_mem_per_pe(fit, pes), COMPUTE_SCALE);
            cells.push(maybe_secs(&r));
        }
        for pes in [2usize, 4, 8] {
            let opts = OnupdrOpts {
                max_active: pes as u32,
                ..Default::default()
            };
            let r = onupdr_run::<Des>(&p, cfg_ooc(pes, mem_per_pe(fit, pes) as usize), opts);
            elements = r.elements;
            cells.push(secs(&r));
        }
        cells[1] = elements.to_string();
        t.row(cells);
    }
    t
}

pub fn table2(scale: Scale) -> Table {
    let fit = scale.sz(40_000);
    let pes = 4usize;
    let mut t = Table::new(
        "Table II — single-PE speed of NUPDR and ONUPDR (4 PEs), 10³ elements/s",
        &[
            "elements",
            "NUPDR time (s)",
            "ONUPDR time (s)",
            "NUPDR speed",
            "ONUPDR speed",
        ],
    );
    for &s in &[5_000u64, 10_000, 20_000, 40_000, 80_000, 160_000] {
        let s = scale.sz(s);
        let p = NupdrParams::new(graded_workload(s));
        let base = nupdr_incore_scaled(&p, pes, nupdr_mem_per_pe(fit, pes), COMPUTE_SCALE);
        let opts = OnupdrOpts {
            max_active: pes as u32,
            ..Default::default()
        };
        let port = onupdr_run::<Des>(&p, cfg_ooc(pes, mem_per_pe(fit, pes) as usize), opts);
        t.row(vec![
            port.elements.to_string(),
            maybe_secs(&base),
            secs(&port),
            maybe_speed_k(&base),
            speed_k(&port),
        ]);
    }
    t
}

pub fn fig9(scale: Scale) -> Table {
    let fit = scale.sz(40_000);
    let mut t = Table::new(
        "Figure 9 — ONUPDR on very large problems (2, 4, 8 PEs)",
        &["elements", "ONUPDR-2 (s)", "ONUPDR-4 (s)", "ONUPDR-8 (s)"],
    );
    for &s in &[20_000u64, 40_000, 80_000, 160_000] {
        let s = scale.sz(s);
        let p = NupdrParams::new(graded_workload(s));
        let mut cells = vec![String::new()];
        let mut elements = 0;
        for pes in [2usize, 4, 8] {
            let opts = OnupdrOpts {
                max_active: pes as u32,
                ..Default::default()
            };
            let r = onupdr_run::<Des>(&p, cfg_ooc(pes, mem_per_pe(fit, pes) as usize), opts);
            elements = r.elements;
            cells.push(secs(&r));
        }
        cells[0] = elements.to_string();
        t.row(cells);
    }
    t
}

pub fn table5(scale: Scale) -> Table {
    let fit = scale.sz(40_000);
    let mut t = Table::new(
        "Table V — ONUPDR computation/synchronization/disk and overlap",
        &["elements", "PEs", "comp %", "sync %", "disk %", "overlap %"],
    );
    for &s in &[40_000u64, 80_000, 160_000] {
        let s = scale.sz(s);
        for pes in [2usize, 4, 8] {
            let p = NupdrParams::new(graded_workload(s));
            let opts = OnupdrOpts {
                max_active: pes as u32,
                ..Default::default()
            };
            let r = onupdr_run::<Des>(&p, cfg_ooc(pes, mem_per_pe(fit, pes) as usize), opts);
            t.row(vec![
                r.elements.to_string(),
                pes.to_string(),
                format!("{:.1}", r.stats.comp_pct()),
                format!("{:.1}", r.stats.comm_pct()),
                format!("{:.1}", r.stats.disk_pct()),
                format!("{:.1}", r.stats.overlap_pct()),
            ]);
        }
    }
    t
}

// =====================================================================
// Figure 7 / Table III — PCDM vs OPCDM
// =====================================================================

pub fn fig7(scale: Scale) -> Table {
    let fit = scale.sz(60_000);
    let grid = 7;
    let mut t = Table::new(
        "Figure 7 — execution time of PCDM (16, 25 PEs) and OPCDM (8, 16 PEs)",
        &[
            "size (target)",
            "elements",
            "PCDM-16 (s)",
            "PCDM-25 (s)",
            "OPCDM-8 (s)",
            "OPCDM-16 (s)",
        ],
    );
    for &s in &[10_000u64, 20_000, 40_000, 80_000, 160_000] {
        let s = scale.sz(s);
        let p = PcdmParams::new(Workload::uniform_pipe(s), grid);
        let b16 = pcdm_incore_scaled(&p, 16, mem_per_pe(fit, 16), COMPUTE_SCALE);
        let b25 = pcdm_incore_scaled(&p, 25, mem_per_pe(fit, 16), COMPUTE_SCALE);
        let o8 = opcdm_run::<Des>(&p, cfg_ooc(8, mem_per_pe(fit, 8) as usize));
        let o16 = opcdm_run::<Des>(&p, cfg_ooc(16, mem_per_pe(fit, 16) as usize));
        t.row(vec![
            s.to_string(),
            o16.elements.to_string(),
            maybe_secs(&b16),
            maybe_secs(&b25),
            secs(&o8),
            secs(&o16),
        ]);
    }
    t
}

pub fn table3(scale: Scale) -> Table {
    let fit = scale.sz(60_000);
    let grid = 7;
    let pes = 16usize;
    let mut t = Table::new(
        "Table III — single-PE speed of PCDM and OPCDM (16 PEs), 10³ elements/s",
        &[
            "elements",
            "PCDM time (s)",
            "OPCDM time (s)",
            "PCDM speed",
            "OPCDM speed",
        ],
    );
    for &s in &[10_000u64, 20_000, 40_000, 80_000, 160_000, 320_000] {
        let s = scale.sz(s);
        let p = PcdmParams::new(Workload::uniform_pipe(s), grid);
        let base = pcdm_incore_scaled(&p, pes, mem_per_pe(fit, pes), COMPUTE_SCALE);
        let port = opcdm_run::<Des>(&p, cfg_ooc(pes, mem_per_pe(fit, pes) as usize));
        t.row(vec![
            port.elements.to_string(),
            maybe_secs(&base),
            secs(&port),
            maybe_speed_k(&base),
            speed_k(&port),
        ]);
    }
    t
}

pub fn fig10(scale: Scale) -> Table {
    let fit = scale.sz(30_000);
    let grid = 7;
    let mut t = Table::new(
        "Figure 10 — OPCDM on very large problems (8 and 16 PEs)",
        &[
            "elements",
            "OPCDM-8 (s)",
            "OPCDM-16 (s)",
            "disk-8 (%)",
            "overlap-8 (%)",
        ],
    );
    for &s in &[40_000u64, 80_000, 160_000, 320_000] {
        let s = scale.sz(s);
        let p = PcdmParams::new(Workload::uniform_pipe(s), grid);
        let r8 = opcdm_run::<Des>(&p, cfg_ooc(8, mem_per_pe(fit, 8) as usize));
        let r16 = opcdm_run::<Des>(&p, cfg_ooc(16, mem_per_pe(fit, 16) as usize));
        t.row(vec![
            r8.elements.to_string(),
            secs(&r8),
            secs(&r16),
            format!("{:.1}", r8.stats.disk_pct()),
            format!("{:.1}", r8.stats.overlap_pct()),
        ]);
    }
    t
}

pub fn table6(scale: Scale) -> Table {
    let fit = scale.sz(30_000);
    let grid = 7;
    let mut t = Table::new(
        "Table VI — OPCDM computation/communication/disk and overlap",
        &["elements", "PEs", "comp %", "comm %", "disk %", "overlap %"],
    );
    for &s in &[80_000u64, 160_000, 320_000] {
        let s = scale.sz(s);
        for pes in [8usize, 16] {
            let p = PcdmParams::new(Workload::uniform_pipe(s), grid);
            let r = opcdm_run::<Des>(&p, cfg_ooc(pes, mem_per_pe(fit, pes) as usize));
            t.row(vec![
                r.elements.to_string(),
                pes.to_string(),
                format!("{:.1}", r.stats.comp_pct()),
                format!("{:.1}", r.stats.comm_pct()),
                format!("{:.1}", r.stats.disk_pct()),
                format!("{:.1}", r.stats.overlap_pct()),
            ]);
        }
    }
    t
}

// =====================================================================
// Table VII — ONUPDR with TBB-like vs GCD-like computing layers
// =====================================================================

pub fn table7(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table VII — ONUPDR with work-stealing (TBB-like) vs FIFO (GCD-like) computing layers: T1, T4, speedup (pipe cross-section)",
        &["elements", "backend", "T1 (s)", "T4 (s)", "speedup"],
    );
    for &s in &[10_000u64, 20_000, 40_000] {
        let s = scale.sz(s);
        let p = NupdrParams::new(Workload::graded_pipe(s));
        for (name, kind) in [
            ("TBB-like WS", ExecutorKind::WorkStealing),
            ("GCD-like FIFO", ExecutorKind::Fifo),
        ] {
            let run = |cores: usize| {
                // max_active 1 isolates intra-handler parallelism.
                let opts = OnupdrOpts {
                    max_active: 1,
                    intra_tasks: 4,
                    ..Default::default()
                };
                let mut cfg = MrtsConfig::in_core(1).with_cores(cores).with_executor(kind);
                cfg.compute_scale = COMPUTE_SCALE;
                onupdr_run::<Des>(&p, cfg, opts)
            };
            let r1 = run(1);
            let r4 = run(4);
            t.row(vec![
                r1.elements.to_string(),
                name.to_string(),
                secs(&r1),
                secs(&r4),
                format!("{:.2}", r1.total_secs() / r4.total_secs()),
            ]);
        }
    }
    t
}

// =====================================================================
// Ablations
// =====================================================================

/// Swap-scheme ablation: the five policies across the three OOC methods
/// (paper text: LRU usually fastest; LFU up to ~7% faster for PCDM).
pub fn ablation_swap(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation — swapping schemes (time in s; same workload and budget per method)",
        &["policy", "OUPDR (s)", "ONUPDR (s)", "OPCDM (s)"],
    );
    let updr_p = UpdrParams::new(Workload::uniform_square(scale.sz(60_000)), 8);
    let nupdr_p = NupdrParams::new(graded_workload(scale.sz(40_000)));
    let pcdm_p = PcdmParams::new(Workload::uniform_pipe(scale.sz(60_000)), 7);
    let budget_u = mem_per_pe(scale.sz(15_000), 8) as usize;
    let budget_n = mem_per_pe(scale.sz(10_000), 4) as usize;
    let budget_p = mem_per_pe(scale.sz(15_000), 8) as usize;
    for policy in PolicyKind::ALL {
        let u = oupdr_run::<Des>(&updr_p, cfg_ooc(8, budget_u).with_policy(policy));
        let opts = OnupdrOpts {
            max_active: 4,
            ..Default::default()
        };
        let n = onupdr_run::<Des>(&nupdr_p, cfg_ooc(4, budget_n).with_policy(policy), opts);
        let c = opcdm_run::<Des>(&pcdm_p, cfg_ooc(8, budget_p).with_policy(policy));
        t.row(vec![
            policy.name().to_string(),
            secs(&u),
            secs(&n),
            secs(&c),
        ]);
    }
    t
}

/// Threshold ablation: hard multiplier and soft fraction sweeps (OUPDR).
pub fn ablation_thresholds(scale: Scale) -> Table {
    let p = UpdrParams::new(Workload::uniform_square(scale.sz(80_000)), 8);
    let budget = mem_per_pe(scale.sz(20_000), 8) as usize;
    let mut t = Table::new(
        "Ablation — swapping thresholds (OUPDR, 8 PEs)",
        &[
            "hard mult",
            "soft frac",
            "time (s)",
            "stores",
            "loads",
            "peak mem (KiB)",
        ],
    );
    for hard in [1.0f64, 2.0, 4.0] {
        for soft in [0.25f64, 0.5, 0.75] {
            let mut cfg = cfg_ooc(8, budget);
            cfg.hard_threshold_mult = hard;
            cfg.soft_threshold_frac = soft;
            let r = oupdr_run::<Des>(&p, cfg);
            t.row(vec![
                format!("{hard}"),
                format!("{soft}"),
                secs(&r),
                r.stats.total_of(|n| n.stores).to_string(),
                r.stats.total_of(|n| n.loads).to_string(),
                (r.stats.peak_mem() >> 10).to_string(),
            ]);
        }
    }
    t
}

/// Optimization ablation: ONUPDR variants (paper Section III "Findings").
pub fn ablation_onupdr(scale: Scale) -> Table {
    let p = NupdrParams::new(graded_workload(scale.sz(40_000)));
    let budget = mem_per_pe(scale.sz(10_000), 4) as usize;
    let mut t = Table::new(
        "Ablation — ONUPDR optimizations (4 PEs, out-of-core)",
        &["variant", "time (s)", "loads", "stores", "comm %"],
    );
    let variants: Vec<(&str, OnupdrOpts)> = vec![
        (
            "all optimizations",
            OnupdrOpts {
                max_active: 4,
                ..Default::default()
            },
        ),
        ("unoptimized", {
            let mut o = OnupdrOpts::unoptimized();
            o.max_active = 4;
            o
        }),
        (
            "no buffer locking",
            OnupdrOpts {
                max_active: 4,
                lock_buffers: false,
                ..Default::default()
            },
        ),
    ];
    for (name, opts) in variants {
        let r = onupdr_run::<Des>(&p, cfg_ooc(4, budget), opts);
        t.row(vec![
            name.to_string(),
            secs(&r),
            r.stats.total_of(|n| n.loads).to_string(),
            r.stats.total_of(|n| n.stores).to_string(),
            format!("{:.1}", r.stats.comm_pct()),
        ]);
    }
    t
}
