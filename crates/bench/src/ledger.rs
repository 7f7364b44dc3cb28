//! The benchmark ledger: machine-readable simulator-throughput records.
//!
//! The ROADMAP's north star is a simulator that runs "as fast as the
//! hardware allows" — this module turns that from a vibe into a gated
//! invariant. [`run_grid`] measures wall-clock cycles/second and
//! instructions/second of a full [`Perf::run`] measurement session over
//! a fixed workload × core × counter-architecture grid (warmup runs
//! discarded, best-of-repeats reported), [`Ledger::to_json`] emits the
//! result as canonical JSON (`BENCH_icicle.json` at the repo root), and
//! [`compare`] gates CI: it exits nonzero when a cell's cycles/second
//! regresses beyond a tolerance. The committed ledger is a
//! conservative floor (per-cell worst of repeated runs on the
//! reference machine, less a grace margin) so tight tolerances trip
//! on real regressions, not on run-to-run machine noise.
//!
//! Everything except the timing fields (`wall_ms`, `cycles_per_sec`,
//! `insts_per_sec`, and the optional baseline annotations) is
//! deterministic: two runs of the same binary produce byte-identical
//! non-timing content, which `tests/bench_ledger.rs` asserts and a
//! golden snapshot under `tests/golden/` guards.

use std::time::Instant;

use icicle::campaign::json::Json;
use icicle::campaign::CoreSelect;
use icicle::prelude::*;

/// Schema identifier embedded in every ledger document.
pub const SCHEMA: &str = "icicle-bench-ledger/v1";

/// Progress callback for grid runs: `(done, total, cell key)`.
pub type ProgressFn = Box<dyn Fn(usize, usize, &str)>;

/// How a grid run measures each cell.
pub struct LedgerOptions {
    /// Untimed runs per cell before measurement starts.
    pub warmup: u32,
    /// Timed runs per cell; the reported wall time is their minimum.
    pub repeats: u32,
    /// Per-run cycle budget handed to [`Perf`].
    pub max_cycles: u64,
    /// Progress callback: (done, total, cell key).
    pub progress: Option<ProgressFn>,
    /// Metrics registry for this run's counters (`bench.cells`,
    /// `bench.runs`, a wall-ms histogram). `None` records nothing.
    pub metrics: Option<std::sync::Arc<icicle_obs::MetricsRegistry>>,
    /// Cycle-skipping policy for every measured run; `None` (the
    /// default) defers to the ambient [`SkipPolicy::resolve`]. The
    /// simulated counters are identical either way — only the wall
    /// clock moves — so skip-on and skip-off ledgers are comparable
    /// cell for cell.
    pub skip: Option<SkipPolicy>,
    /// Multi-core SoC engine for the mix cells; `None` (the default)
    /// defers to the ambient [`SocJobs::resolve`]. Simulated counters
    /// are byte-identical at any thread count — only the wall clock
    /// moves — so ledgers from different engines stay comparable.
    pub soc_jobs: Option<SocJobs>,
}

impl Default for LedgerOptions {
    fn default() -> LedgerOptions {
        LedgerOptions {
            warmup: 1,
            repeats: 3,
            max_cycles: 100_000_000,
            progress: None,
            metrics: None,
            skip: None,
            soc_jobs: None,
        }
    }
}

/// One measured grid cell.
#[derive(Clone, PartialEq, Debug)]
pub struct LedgerCell {
    pub workload: String,
    pub core: String,
    pub arch: String,
    /// Simulated cycles of one run (identical across repeats — the
    /// simulator is deterministic; the runner asserts this).
    pub cycles: u64,
    /// Retired instructions of one run.
    pub instret: u64,
    /// Timed repeats behind the reported minimum.
    pub repeats: u32,
    /// Best (minimum) wall time of one run, in milliseconds.
    pub wall_ms: f64,
    /// Simulated cycles per wall-clock second (the headline metric).
    pub cycles_per_sec: f64,
    /// Retired instructions per wall-clock second.
    pub insts_per_sec: f64,
    /// The same cell's cycles/sec in the baseline ledger, when one was
    /// embedded with [`Ledger::with_baseline`].
    pub baseline_cycles_per_sec: Option<f64>,
}

impl LedgerCell {
    /// The `workload/core/arch` key that identifies a cell across runs.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.workload, self.core, self.arch)
    }

    /// New-over-baseline throughput ratio, when a baseline is embedded.
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_cycles_per_sec
            .map(|base| self.cycles_per_sec / base.max(f64::MIN_POSITIVE))
    }
}

/// A complete throughput ledger: metadata plus one entry per grid cell.
#[derive(Clone, PartialEq, Debug)]
pub struct Ledger {
    /// Crate version of the generator.
    pub package: String,
    /// `release` or `debug` (timings from debug builds gate nothing).
    pub profile: String,
    /// Whether the binary carried debug assertions.
    pub debug_assertions: bool,
    /// Host OS (`std::env::consts::OS`).
    pub host_os: String,
    /// Host CPU architecture (`std::env::consts::ARCH`).
    pub host_arch: String,
    /// Warmup runs per cell.
    pub warmup: u32,
    /// Timed repeats per cell.
    pub repeats: u32,
    pub cells: Vec<LedgerCell>,
}

impl Ledger {
    /// A ledger with this build's metadata and no cells yet.
    pub fn for_this_build(warmup: u32, repeats: u32) -> Ledger {
        Ledger {
            package: env!("CARGO_PKG_VERSION").to_string(),
            profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
            debug_assertions: cfg!(debug_assertions),
            host_os: std::env::consts::OS.to_string(),
            host_arch: std::env::consts::ARCH.to_string(),
            warmup,
            repeats,
            cells: Vec::new(),
        }
    }

    /// Annotates every cell with the matching cell of `baseline`, so the
    /// emitted JSON carries before/after numbers side by side.
    pub fn with_baseline(mut self, baseline: &Ledger) -> Ledger {
        for cell in &mut self.cells {
            cell.baseline_cycles_per_sec = baseline
                .cells
                .iter()
                .find(|b| b.key() == cell.key())
                .map(|b| b.cycles_per_sec);
        }
        self
    }

    /// Serializes to canonical JSON (stable key order, fixed float
    /// precision) with a trailing newline.
    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut pairs = vec![
                    ("workload", Json::Str(c.workload.clone())),
                    ("core", Json::Str(c.core.clone())),
                    ("arch", Json::Str(c.arch.clone())),
                    ("cycles", Json::Int(c.cycles)),
                    ("instret", Json::Int(c.instret)),
                    ("repeats", Json::Int(c.repeats as u64)),
                    ("wall_ms", Json::Num(c.wall_ms)),
                    ("cycles_per_sec", Json::Num(c.cycles_per_sec)),
                    ("insts_per_sec", Json::Num(c.insts_per_sec)),
                ];
                if let Some(base) = c.baseline_cycles_per_sec {
                    pairs.push(("baseline_cycles_per_sec", Json::Num(base)));
                    pairs.push(("speedup", Json::Num(c.speedup().unwrap_or(0.0))));
                }
                Json::object(pairs)
            })
            .collect();
        let doc = Json::object(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            (
                "generator",
                Json::object(vec![
                    ("package", Json::Str(self.package.clone())),
                    ("profile", Json::Str(self.profile.clone())),
                    ("debug_assertions", Json::Bool(self.debug_assertions)),
                ]),
            ),
            (
                "host",
                Json::object(vec![
                    ("os", Json::Str(self.host_os.clone())),
                    ("arch", Json::Str(self.host_arch.clone())),
                ]),
            ),
            (
                "options",
                Json::object(vec![
                    ("warmup", Json::Int(self.warmup as u64)),
                    ("repeats", Json::Int(self.repeats as u64)),
                ]),
            ),
            ("cells", Json::Array(cells)),
        ]);
        let mut text = doc.render();
        text.push('\n');
        text
    }

    /// Parses a ledger back from [`Ledger::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntactic or schema problem.
    pub fn parse(text: &str) -> Result<Ledger, String> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing `schema`")?;
        if schema != SCHEMA {
            return Err(format!("unsupported ledger schema `{schema}`"));
        }
        let str_at = |node: &Json, key: &str| -> Result<String, String> {
            node.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string `{key}`"))
        };
        let num_at = |node: &Json, key: &str| -> Result<f64, String> {
            node.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("missing number `{key}`"))
        };
        let int_at = |node: &Json, key: &str| -> Result<u64, String> {
            node.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("missing integer `{key}`"))
        };
        let generator = doc.get("generator").ok_or("missing `generator`")?;
        let host = doc.get("host").ok_or("missing `host`")?;
        let options = doc.get("options").ok_or("missing `options`")?;
        let mut cells = Vec::new();
        for node in doc
            .get("cells")
            .and_then(Json::as_array)
            .ok_or("missing `cells`")?
        {
            cells.push(LedgerCell {
                workload: str_at(node, "workload")?,
                core: str_at(node, "core")?,
                arch: str_at(node, "arch")?,
                cycles: int_at(node, "cycles")?,
                instret: int_at(node, "instret")?,
                repeats: int_at(node, "repeats")? as u32,
                wall_ms: num_at(node, "wall_ms")?,
                cycles_per_sec: num_at(node, "cycles_per_sec")?,
                insts_per_sec: num_at(node, "insts_per_sec")?,
                baseline_cycles_per_sec: node.get("baseline_cycles_per_sec").and_then(Json::as_f64),
            });
        }
        Ok(Ledger {
            package: str_at(generator, "package")?,
            profile: str_at(generator, "profile")?,
            debug_assertions: generator
                .get("debug_assertions")
                .and_then(|j| match j {
                    Json::Bool(b) => Some(*b),
                    _ => None,
                })
                .ok_or("missing `debug_assertions`")?,
            host_os: str_at(host, "os")?,
            host_arch: str_at(host, "arch")?,
            warmup: int_at(options, "warmup")? as u32,
            repeats: int_at(options, "repeats")? as u32,
            cells,
        })
    }
}

impl std::fmt::Display for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<12} {:<12} {:<12} {:>11} {:>9} {:>12} {:>12}",
            "workload", "core", "arch", "cycles", "wall-ms", "Mcycles/s", "Minsts/s"
        )?;
        for c in &self.cells {
            write!(
                f,
                "{:<12} {:<12} {:<12} {:>11} {:>9.2} {:>12.2} {:>12.2}",
                c.workload,
                c.core,
                c.arch,
                c.cycles,
                c.wall_ms,
                c.cycles_per_sec / 1e6,
                c.insts_per_sec / 1e6,
            )?;
            if let Some(speedup) = c.speedup() {
                write!(f, "  ({speedup:>5.2}x vs baseline)")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The fixed grid the committed `BENCH_icicle.json` covers: three
/// workloads of distinct character (streaming, branchy sorting, and a
/// CoreMark-like composite) plus the stall-heavy pair (`ptrchase`
/// pointer-chasing D$ misses, `muldiv` long-latency execution stalls)
/// that exercises event-driven cycle skipping, both pipeline models
/// (the BOOM at the paper's medium size, per the throughput target),
/// and the two counter implementations at the cost extremes
/// (add-wires and distributed). Two multi-core cells (the homogeneous
/// dual Rocket and the heterogeneous Rocket + medium BOOM) track the
/// PDES engine's throughput under shared-L2 contention.
pub fn default_grid() -> Vec<(String, CoreSelect, CounterArch)> {
    let workloads = ["vvadd", "qsort", "coremark", "ptrchase", "muldiv"];
    let cores = [CoreSelect::Rocket, CoreSelect::Boom(BoomSize::Medium)];
    let archs = [CounterArch::AddWires, CounterArch::Distributed];
    let mut grid = Vec::new();
    for w in workloads {
        for core in cores {
            for arch in archs {
                grid.push((w.to_string(), core, arch));
            }
        }
    }
    // SoC cores always measure with add-wires counters, so the mixes
    // appear at that arch only.
    for mix in [SocMix::DualRocket, SocMix::RocketMediumBoom] {
        grid.push((
            "qsort".to_string(),
            CoreSelect::Soc(mix),
            CounterArch::AddWires,
        ));
    }
    grid
}

fn run_once(
    workload: &Workload,
    stream: &icicle::isa::DynStream,
    core: CoreSelect,
    arch: CounterArch,
    options: &LedgerOptions,
) -> Result<(PerfReport, f64), String> {
    let perf = Perf::with_options(PerfOptions {
        arch,
        max_cycles: options.max_cycles,
        skip: options.skip.unwrap_or_else(SkipPolicy::resolve),
        ..PerfOptions::default()
    });
    // Core construction (stream copy, cache arrays) happens before the
    // clock starts: the metric is the measurement loop itself.
    let mut c = core
        .build_core(workload, stream.clone())
        .expect("soc cells measure through run_soc_once");
    let start = Instant::now();
    let report = perf.run(c.as_mut()).map_err(|e| e.to_string())?;
    Ok((report, start.elapsed().as_secs_f64()))
}

/// One timed SoC run: build the system (workload execution and cache
/// arrays land before the clock starts), run it under the requested
/// [`SocJobs`] engine, and report summed per-core cycles and instret.
fn run_soc_once(
    mix: SocMix,
    per_core: &[Workload],
    options: &LedgerOptions,
) -> Result<((u64, u64), f64), String> {
    let mut soc = mix.build(per_core).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let reports = soc
        .run_with(options.max_cycles, SocJobs::resolve(options.soc_jobs))
        .map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    let cycles = reports.iter().map(|r| r.report.cycles).sum();
    let instret = reports.iter().map(|r| r.report.instret).sum();
    Ok(((cycles, instret), wall))
}

/// [`measure_cell`] for a multi-core mix: core 0 runs the canonical
/// dataset, core `k` the same workload reseeded with `k`, so the cell
/// exercises genuine shared-L2 interleaving rather than `n` identical
/// replays.
fn measure_soc_cell(
    name: &str,
    mix: SocMix,
    arch: CounterArch,
    options: &LedgerOptions,
) -> Result<LedgerCell, String> {
    let per_core: Vec<Workload> = (0..mix.num_cores() as u64)
        .map(|k| {
            icicle::workloads::by_name_seeded(name, k)
                .ok_or_else(|| format!("unknown workload `{name}`"))
        })
        .collect::<Result<_, _>>()?;
    for _ in 0..options.warmup {
        run_soc_once(mix, &per_core, options)?;
    }
    let repeats = options.repeats.max(1);
    let mut walls = Vec::with_capacity(repeats as usize);
    let mut counters: Option<(u64, u64)> = None;
    for _ in 0..repeats {
        let (this, wall_s) = run_soc_once(mix, &per_core, options)?;
        if let Some(previous) = counters {
            if previous != this {
                return Err(format!(
                    "{name}/{} nondeterministic: {previous:?} vs {this:?}",
                    mix.name()
                ));
            }
        }
        counters = Some(this);
        walls.push(wall_s);
    }
    walls.sort_by(f64::total_cmp);
    let best = walls[0];
    let (cycles, instret) = counters.expect("at least one repeat ran");
    if let Some(metrics) = options.metrics.as_deref() {
        metrics.counter("bench.cells").inc();
        metrics
            .counter("bench.runs")
            .add(u64::from(options.warmup) + u64::from(repeats));
        metrics
            .histogram("bench.cell_wall_ms", &[10, 100, 1_000, 10_000])
            .observe((best * 1e3) as u64);
    }
    Ok(LedgerCell {
        workload: name.to_string(),
        core: mix.name().to_string(),
        arch: arch.name().to_string(),
        cycles,
        instret,
        repeats,
        wall_ms: best * 1e3,
        cycles_per_sec: cycles as f64 / best.max(f64::MIN_POSITIVE),
        insts_per_sec: instret as f64 / best.max(f64::MIN_POSITIVE),
        baseline_cycles_per_sec: None,
    })
}

/// Measures one cell: `warmup` untimed runs, then `repeats` timed runs,
/// reporting the best (minimum) wall time. Interference on a shared
/// machine only ever *adds* time, so the minimum is the most robust
/// estimator of the code's actual speed — a median still drifts by
/// several percent under load, which would swamp a 1% tolerance gate.
///
/// # Errors
///
/// Returns a message if the workload is unknown, fails to execute, or a
/// measurement session errors.
pub fn measure_cell(
    name: &str,
    core: CoreSelect,
    arch: CounterArch,
    options: &LedgerOptions,
) -> Result<LedgerCell, String> {
    let _cell_span = icicle_obs::span_with(icicle_obs::Level::Info, "bench.cell", || {
        vec![
            ("workload", name.into()),
            ("core", core.name().into()),
            ("arch", arch.name().into()),
        ]
    });
    if let CoreSelect::Soc(mix) = core {
        return measure_soc_cell(name, mix, arch, options);
    }
    let workload =
        icicle::workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let stream = workload
        .execute()
        .map_err(|e| format!("{name} failed to execute: {e}"))?;
    for _ in 0..options.warmup {
        run_once(&workload, &stream, core, arch, options)?;
    }
    let repeats = options.repeats.max(1);
    let mut walls = Vec::with_capacity(repeats as usize);
    let mut counters: Option<(u64, u64)> = None;
    for _ in 0..repeats {
        let (report, wall_s) = run_once(&workload, &stream, core, arch, options)?;
        let this = (report.cycles, report.instret);
        if let Some(previous) = counters {
            // The simulator is deterministic; nondeterministic counter
            // values would make every throughput number meaningless.
            if previous != this {
                return Err(format!(
                    "{name}/{core}/{} nondeterministic: {previous:?} vs {this:?}",
                    arch.name()
                ));
            }
        }
        counters = Some(this);
        walls.push(wall_s);
    }
    walls.sort_by(f64::total_cmp);
    let best = walls[0];
    let (cycles, instret) = counters.expect("at least one repeat ran");
    if let Some(metrics) = options.metrics.as_deref() {
        metrics.counter("bench.cells").inc();
        metrics
            .counter("bench.runs")
            .add(u64::from(options.warmup) + u64::from(repeats));
        metrics
            .histogram("bench.cell_wall_ms", &[10, 100, 1_000, 10_000])
            .observe((best * 1e3) as u64);
    }
    Ok(LedgerCell {
        workload: name.to_string(),
        core: core.name(),
        arch: arch.name().to_string(),
        cycles,
        instret,
        repeats,
        wall_ms: best * 1e3,
        cycles_per_sec: cycles as f64 / best.max(f64::MIN_POSITIVE),
        insts_per_sec: instret as f64 / best.max(f64::MIN_POSITIVE),
        baseline_cycles_per_sec: None,
    })
}

/// Runs the full grid and assembles the ledger.
///
/// # Errors
///
/// Propagates the first cell failure.
pub fn run_grid(
    grid: &[(String, CoreSelect, CounterArch)],
    options: &LedgerOptions,
) -> Result<Ledger, String> {
    let mut ledger = Ledger::for_this_build(options.warmup, options.repeats.max(1));
    for (done, (name, core, arch)) in grid.iter().enumerate() {
        if let Some(progress) = &options.progress {
            progress(
                done,
                grid.len(),
                &format!("{name}/{}/{}", core.name(), arch.name()),
            );
        }
        ledger
            .cells
            .push(measure_cell(name, *core, *arch, options)?);
    }
    if let Some(progress) = &options.progress {
        progress(grid.len(), grid.len(), "done");
    }
    Ok(ledger)
}

/// One cell's comparison outcome.
#[derive(Clone, PartialEq, Debug)]
pub struct CompareRow {
    pub key: String,
    pub old_cycles_per_sec: f64,
    pub new_cycles_per_sec: f64,
    /// `new/old`; below `1 - tolerance` is a regression.
    pub ratio: f64,
    pub regressed: bool,
    /// The simulated counters changed between the ledgers — not a perf
    /// gate (modeling changes are legitimate), but worth surfacing.
    pub counters_drifted: bool,
}

/// The result of gating a new ledger against an old one.
#[derive(Clone, PartialEq, Debug)]
pub struct CompareReport {
    pub tolerance: f64,
    pub rows: Vec<CompareRow>,
    /// Cell keys present in the old ledger but absent from the new one
    /// (each counts as a failure: a silently dropped cell must not pass
    /// the gate).
    pub missing: Vec<String>,
}

impl CompareReport {
    /// Whether the new ledger passes the gate.
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.rows.iter().all(|r| !r.regressed)
    }

    /// Number of regressed cells.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }
}

impl std::fmt::Display for CompareReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<40} {:>12} {:>12} {:>8}  verdict",
            "cell", "old Mcyc/s", "new Mcyc/s", "ratio"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<40} {:>12.2} {:>12.2} {:>7.2}x  {}{}",
                r.key,
                r.old_cycles_per_sec / 1e6,
                r.new_cycles_per_sec / 1e6,
                r.ratio,
                if r.regressed { "REGRESSED" } else { "ok" },
                if r.counters_drifted {
                    " (counters drifted)"
                } else {
                    ""
                },
            )?;
        }
        for key in &self.missing {
            writeln!(f, "{key:<40} MISSING from the new ledger")?;
        }
        writeln!(
            f,
            "{} cells, {} regressed beyond {:.0}% tolerance, {} missing",
            self.rows.len(),
            self.regressions(),
            self.tolerance * 100.0,
            self.missing.len()
        )
    }
}

/// Gates `new` against `old`: a cell regresses when its cycles/sec falls
/// below `old * (1 - tolerance)`. Cells only present in `new` are
/// ignored (the grid may grow); cells only present in `old` fail.
pub fn compare(old: &Ledger, new: &Ledger, tolerance: f64) -> CompareReport {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for old_cell in &old.cells {
        let Some(new_cell) = new.cells.iter().find(|c| c.key() == old_cell.key()) else {
            missing.push(old_cell.key());
            continue;
        };
        let ratio = new_cell.cycles_per_sec / old_cell.cycles_per_sec.max(f64::MIN_POSITIVE);
        rows.push(CompareRow {
            key: old_cell.key(),
            old_cycles_per_sec: old_cell.cycles_per_sec,
            new_cycles_per_sec: new_cell.cycles_per_sec,
            ratio,
            regressed: ratio < 1.0 - tolerance,
            counters_drifted: (old_cell.cycles, old_cell.instret)
                != (new_cell.cycles, new_cell.instret),
        });
    }
    CompareReport {
        tolerance,
        rows,
        missing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(key: (&str, &str, &str), cps: f64) -> LedgerCell {
        LedgerCell {
            workload: key.0.to_string(),
            core: key.1.to_string(),
            arch: key.2.to_string(),
            cycles: 1000,
            instret: 400,
            repeats: 3,
            wall_ms: 1.0,
            cycles_per_sec: cps,
            insts_per_sec: cps * 0.4,
            baseline_cycles_per_sec: None,
        }
    }

    fn ledger_with(cells: Vec<LedgerCell>) -> Ledger {
        Ledger {
            cells,
            ..Ledger::for_this_build(1, 3)
        }
    }

    #[test]
    fn json_round_trips() {
        let mut l = ledger_with(vec![cell(("vvadd", "rocket", "add-wires"), 2e6)]);
        l.cells[0].baseline_cycles_per_sec = Some(1e6);
        let text = l.to_json();
        let back = Ledger::parse(&text).unwrap();
        assert_eq!(back.cells[0].key(), "vvadd/rocket/add-wires");
        assert!((back.cells[0].speedup().unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn parse_rejects_foreign_schemas() {
        assert!(Ledger::parse("{\"schema\": \"nope/v9\"}").is_err());
        assert!(Ledger::parse("not json").is_err());
    }

    #[test]
    fn compare_flags_regressions_and_missing_cells() {
        let old = ledger_with(vec![
            cell(("a", "rocket", "stock"), 1e6),
            cell(("b", "rocket", "stock"), 1e6),
            cell(("c", "rocket", "stock"), 1e6),
        ]);
        let mut new = ledger_with(vec![
            cell(("a", "rocket", "stock"), 0.95e6), // within 10%
            cell(("b", "rocket", "stock"), 0.5e6),  // regressed
        ]);
        new.cells[1].cycles = 999; // drift
        let report = compare(&old, &new, 0.10);
        assert!(!report.passed());
        assert_eq!(report.regressions(), 1);
        assert_eq!(report.missing, vec!["c/rocket/stock".to_string()]);
        assert!(!report.rows[0].regressed);
        assert!(report.rows[1].regressed);
        assert!(report.rows[1].counters_drifted);
        let ok = compare(
            &old,
            &ledger_with(vec![cell(("a", "rocket", "stock"), 1.2e6)]),
            0.10,
        );
        assert!(!ok.passed(), "two old cells are missing");
    }

    #[test]
    fn compare_passes_identical_ledgers() {
        let l = ledger_with(vec![cell(("a", "rocket", "stock"), 1e6)]);
        let report = compare(&l, &l, 0.05);
        assert!(report.passed());
        assert_eq!(report.regressions(), 0);
        assert!(report.to_string().contains("ok"));
    }

    #[test]
    fn baseline_embedding_matches_by_key() {
        let old = ledger_with(vec![
            cell(("a", "rocket", "stock"), 1e6),
            cell(("b", "rocket", "stock"), 3e6),
        ]);
        let new = ledger_with(vec![
            cell(("b", "rocket", "stock"), 6e6),
            cell(("z", "rocket", "stock"), 1e6),
        ])
        .with_baseline(&old);
        assert_eq!(new.cells[0].baseline_cycles_per_sec, Some(3e6));
        assert!((new.cells[0].speedup().unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(new.cells[1].baseline_cycles_per_sec, None);
    }

    #[test]
    fn default_grid_covers_medium_boom_and_the_stall_pair() {
        let grid = default_grid();
        assert_eq!(grid.len(), 22);
        assert!(grid.iter().any(|(_, core, _)| core.name() == "medium-boom"));
        for stall in ["ptrchase", "muldiv"] {
            assert!(grid.iter().any(|(w, _, _)| w == stall), "{stall} missing");
        }
        for mix in ["soc-2xrocket", "soc-rocket+medium-boom"] {
            assert!(
                grid.iter().any(|(_, c, _)| c.name() == mix),
                "{mix} missing"
            );
        }
    }

    #[test]
    fn measure_soc_cell_smoke() {
        let options = LedgerOptions {
            warmup: 0,
            repeats: 2,
            ..LedgerOptions::default()
        };
        let cell = measure_cell(
            "vvadd",
            CoreSelect::Soc(SocMix::DualRocket),
            CounterArch::AddWires,
            &options,
        )
        .unwrap();
        assert!(cell.cycles > 0);
        assert!(cell.instret > 0);
        assert_eq!(cell.key(), "vvadd/soc-2xrocket/add-wires");
    }

    #[test]
    fn measure_cell_smoke() {
        let options = LedgerOptions {
            warmup: 0,
            repeats: 1,
            ..LedgerOptions::default()
        };
        let cell =
            measure_cell("vvadd", CoreSelect::Rocket, CounterArch::AddWires, &options).unwrap();
        assert!(cell.cycles > 0);
        assert!(cell.cycles_per_sec > 0.0);
        assert_eq!(cell.key(), "vvadd/rocket/add-wires");
        assert!(measure_cell("no-such", CoreSelect::Rocket, CounterArch::Stock, &options).is_err());
    }
}
