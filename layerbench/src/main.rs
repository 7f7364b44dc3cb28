//! Layer-split benchmark of the Icicle simulator and analysis service.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload campaign-busy|campaign-stall|serve-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` re-drives
//! the same work serially through each layer's public functions under
//! in-memory spans and reports the per-layer split. Every output is
//! checked; the last stdout line is one JSON object. See README.md.

mod campaign;
mod layers;
mod serve;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use icicle_campaign::{SkipPolicy, SocJobs};

use crate::layers::Counts;

#[global_allocator]
static ALLOCATOR: stats::CountingAlloc = stats::CountingAlloc;
use crate::spans::{Analysis, Span, Tracer};

/// Engine knobs read from the environment. They are removed before
/// anything resolves them, so every run measures the default engines
/// (skip off, lockstep SoC) and emits no structured logs.
const SCRUBBED_ENV: [&str; 3] = ["ICICLE_SKIP", "ICICLE_SOC_JOBS", "ICICLE_LOG"];

const WORKLOADS: [&str; 3] = ["campaign-busy", "campaign-stall", "serve-mixed"];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Cells or jobs attempted.
    pub attempted: u64,
    /// Cells or jobs that failed, were shed, or produced wrong output.
    pub failed: u64,
    /// Every failed check, one line each.
    pub problems: Vec<String>,
    /// Extra `key=value` facts for the human-readable header.
    pub notes: Vec<String>,
}

/// The run's parameters and its scratch locations inside the checkout.
pub struct Env {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch state (caches, service data dirs); removed at exit.
    pub work: PathBuf,
    /// Kept artifacts: span dumps and recorded exact counts.
    pub out: PathBuf,
}

impl Env {
    pub fn deadline(&self, start: Instant) -> Instant {
        start + std::time::Duration::from_secs(self.seconds)
    }
}

fn parse_args() -> Result<Env, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad value `{value}` for `{flag}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let work = PathBuf::from(".layerbench-work")
        .join(format!("{workload}-s{seed}-{}", std::process::id()));
    Ok(Env {
        workload,
        seed,
        seconds,
        trace,
        work,
        out: PathBuf::from(".layerbench-out"),
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("layerbench: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let env = match parse_args() {
        Ok(env) => env,
        Err(error) => {
            eprintln!("layerbench: {error}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# layerbench workload={} seed={} seconds={} trace={} profile=release nproc={nproc} skip={} soc={}",
        env.workload,
        env.seed,
        env.seconds,
        u8::from(env.trace),
        SkipPolicy::resolve().name(),
        SocJobs::resolve(None).name(),
    );
    let outcome = match (env.workload.as_str(), env.trace) {
        ("campaign-busy", false) => campaign::run(campaign::Grid::Busy, &env),
        ("campaign-stall", false) => campaign::run(campaign::Grid::Stall, &env),
        ("campaign-busy", true) => campaign::traced(campaign::Grid::Busy, &env),
        ("campaign-stall", true) => campaign::traced(campaign::Grid::Stall, &env),
        (_, false) => serve::run(&env),
        (_, true) => serve::traced(&env),
    };
    let _ = std::fs::remove_dir_all(&env.work);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("layerbench: {error}");
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# FAILED CHECK: {problem}");
    }
    for m in &outcome.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<28} {:>16.6} share (failed {} of {} attempted)",
        "failed_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}

/// A finite number in JSON with every digit Rust's shortest round-trip
/// formatting produces.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

fn result_json(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (index, m) in outcome.metrics.iter().enumerate() {
        if index > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.problems.is_empty() && outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// One pass of a traced run: called with a root scope and fresh counts.
pub type PassFn<'a> =
    dyn FnMut(spans::Scope<'_>, &mut Counts, &mut Vec<String>) -> Result<(), String> + 'a;

/// Spans that stand for a layer's own work (the self-time accounting
/// reports how much of each pass they cover).
pub const LAYER_SPANS: [&str; 18] = [
    "workloads.build",
    "workloads.execute",
    "rocket.step",
    "boom.step",
    "perf.run",
    "tma.analyze",
    "soc.build",
    "soc.run",
    "campaign.rerun",
    "campaign.cache_put",
    "campaign.cache_get",
    "campaign.render",
    "serve.setup",
    "serve.submit",
    "serve.exec_warm",
    "serve.exec_cold",
    "serve.result",
    "serve.stop",
];

/// The traced run shared by every workload: at least four passes, each
/// over identical fresh state, half of them traced, until `--seconds`
/// have passed. Every pass must produce the same exact counts,
/// and so must every earlier traced run of this binary and seed.
pub fn traced_run(env: &Env, pass: &mut PassFn<'_>) -> Result<Outcome, String> {
    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let start = Instant::now();
    let deadline = env.deadline(start);
    let mut outcome = Outcome::default();
    let mut first: Option<Counts> = None;
    let mut walls = [Vec::new(), Vec::new()];
    let mut traced_passes = Vec::new();
    let mut index = 0u32;
    // Passes run in the order untraced, traced, traced, untraced, … so
    // drift over the run (a cold first pass, a neighbour's load) falls
    // on both kinds alike.
    while index < 4 || Instant::now() < deadline {
        let traced = matches!(index % 4, 1 | 2);
        let tracer = if traced { &on } else { &off };
        let mut counts = Counts::default();
        let began = Instant::now();
        tracer
            .root(index)
            .nest("pass", Some(tracer.fresh_id()), |scope| {
                pass(scope, &mut counts, &mut outcome.problems)
            })?;
        walls[usize::from(traced)].push(began.elapsed().as_secs_f64() * 1e3);
        if traced {
            traced_passes.push(index);
        }
        match &first {
            None => first = Some(counts),
            Some(expected) if *expected != counts => outcome.problems.push(format!(
                "pass {index} work counts differ from pass 0:\n{}--- vs ---\n{}",
                counts.render(),
                expected.render()
            )),
            Some(_) => {}
        }
        index += 1;
    }
    let counts = first.expect("the loop runs at least four passes");
    outcome.attempted = counts.get("cells.rederived") + counts.get("serve.jobs");
    outcome.failed = counts.get("checks.failed");
    let digest = stats::fnv1a(counts.render().as_bytes());
    check_recorded_counts(env, &counts, digest, &mut outcome.problems);

    let spans = on.into_spans();
    let dump = env
        .out
        .join(format!("spans-{}-s{}.jsonl", env.workload, env.seed));
    if let Err(error) = spans::write_jsonl(&dump, &spans) {
        outcome
            .problems
            .push(format!("cannot write {}: {error}", dump.display()));
    }
    let analysis = spans::analyze(&spans, &traced_passes, "pass", &LAYER_SPANS);
    let overhead_ms = stats::median(&walls[1]) - stats::median(&walls[0]);
    outcome.notes.push(format!(
        "passes untraced={} traced={} counts_digest={digest:016x} spans={}",
        walls[0].len(),
        walls[1].len(),
        dump.display()
    ));
    outcome.notes.extend(self_time_notes(&analysis));
    outcome.metrics = per_layer_metrics(&analysis, &spans, &traced_passes, &counts);
    outcome.metrics.extend([
        metric("trace.coverage", stats::median(&analysis.coverage), "share"),
        metric("trace.overhead_ms", overhead_ms, "ms"),
        metric(
            "trace.overhead_share",
            overhead_ms / stats::median(&walls[0]).max(f64::MIN_POSITIVE),
            "share",
        ),
    ]);
    Ok(outcome)
}

/// Compares `counts` with what an earlier traced run of the same binary
/// and seed recorded, and records them if none did.
fn check_recorded_counts(env: &Env, counts: &Counts, digest: u64, problems: &mut Vec<String>) {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| stats::fnv1a(&bytes));
    let path = env
        .out
        .join("counts")
        .join(format!("{}-s{}-{exe:016x}.txt", env.workload, env.seed));
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded != counts.render() => problems.push(format!(
            "work counts differ from the earlier traced run recorded in {} (digest now {digest:016x})",
            path.display()
        )),
        Ok(_) => {}
        Err(_) => {
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, counts.render()));
            if let Err(error) = written {
                problems.push(format!("cannot record counts in {}: {error}", path.display()));
            }
        }
    }
}

fn self_time_notes(analysis: &Analysis) -> Vec<String> {
    let wall = stats::median(&analysis.pass_wall);
    let mut rows: Vec<(f64, &str)> = analysis
        .self_ns
        .iter()
        .map(|(name, per_pass)| (stats::median(per_pass), *name))
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    rows.iter()
        .map(|(ns, name)| {
            format!(
                "self-time {name:<22} {:>10.3} ms  {:>6.2}% of traced pass",
                ns / 1e6,
                100.0 * ns / wall.max(1.0)
            )
        })
        .collect()
}

fn per_pass_ms(analysis: &Analysis, name: &str) -> f64 {
    analysis
        .totals
        .get(name)
        .map_or(0.0, |per_pass| stats::median(per_pass) / 1e6)
}

fn span_ms(spans: &[Span], passes: &[u32], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && passes.contains(&s.pass))
        .map(|s| s.ns() as f64 / 1e6)
        .collect()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. Times are per
/// traced pass (median over traced passes); counts are per pass and
/// exact. A layer a workload does not exercise reports 0.
fn per_layer_metrics(
    analysis: &Analysis,
    spans: &[Span],
    passes: &[u32],
    counts: &Counts,
) -> Vec<Metric> {
    let count = |key: &str| counts.get(key) as f64;
    let rocket_ms = per_pass_ms(analysis, "rocket.step");
    let boom_ms = per_pass_ms(analysis, "boom.step");
    let perf_ms = per_pass_ms(analysis, "perf.run");
    let harness_ms = perf_ms - rocket_ms - boom_ms;
    let core_cycles = count("rocket.cycles") + count("boom.cycles");
    let soc_ms = per_pass_ms(analysis, "soc.run");
    let mean_us = |name: &str| {
        let samples = span_ms(spans, passes, name);
        ratio(samples.iter().sum::<f64>() * 1e3, samples.len() as f64)
    };
    let submit = span_ms(spans, passes, "serve.submit");
    vec![
        metric(
            "workloads.build_ms",
            per_pass_ms(analysis, "workloads.build"),
            "ms",
        ),
        metric(
            "workloads.execute_ms",
            per_pass_ms(analysis, "workloads.execute"),
            "ms",
        ),
        metric("workloads.instrs", count("workloads.instrs"), "count"),
        metric(
            "workloads.streams_per_cell",
            ratio(
                count("workloads.streams_distinct"),
                count("workloads.core_cells"),
            ),
            "ratio",
        ),
        metric("rocket.step_ms", rocket_ms, "ms"),
        metric("rocket.cycles", count("rocket.cycles"), "count"),
        metric(
            "rocket.step_ns_per_cycle",
            ratio(rocket_ms * 1e6, count("rocket.cycles")),
            "ns",
        ),
        metric("boom.step_ms", boom_ms, "ms"),
        metric("boom.cycles", count("boom.cycles"), "count"),
        metric(
            "boom.step_ns_per_cycle",
            ratio(boom_ms * 1e6, count("boom.cycles")),
            "ns",
        ),
        metric("perf.run_ms", perf_ms, "ms"),
        metric("perf.harness_ms", harness_ms, "ms"),
        metric("perf.harness_share", ratio(harness_ms, perf_ms), "share"),
        metric(
            "perf.harness_ns_per_cycle",
            ratio(harness_ms * 1e6, core_cycles),
            "ns",
        ),
        metric("perf.vector_runs", count("perf.vector_runs"), "count"),
        metric(
            "perf.vector_change_ratio",
            ratio(count("perf.vector_runs"), count("perf.vector_cycles")),
            "ratio",
        ),
        metric(
            "tma.analyze_us",
            per_pass_ms(analysis, "tma.analyze") * 1e3,
            "us",
        ),
        metric("soc.build_ms", per_pass_ms(analysis, "soc.build"), "ms"),
        metric("soc.run_ms", soc_ms, "ms"),
        metric("soc.cycles", count("soc.cycles"), "count"),
        metric(
            "soc.ns_per_cycle",
            ratio(soc_ms * 1e6, count("soc.cycles")),
            "ns",
        ),
        metric(
            "campaign.rerun_ms",
            per_pass_ms(analysis, "campaign.rerun"),
            "ms",
        ),
        metric("campaign.cache_put_us", mean_us("campaign.cache_put"), "us"),
        metric("campaign.cache_get_us", mean_us("campaign.cache_get"), "us"),
        metric(
            "campaign.render_ms",
            per_pass_ms(analysis, "campaign.render"),
            "ms",
        ),
        metric(
            "campaign.cells_simulated",
            count("campaign.cells_simulated"),
            "count",
        ),
        metric(
            "campaign.cells_cached",
            count("campaign.cells_cached"),
            "count",
        ),
        metric("serve.submit_p50_ms", stats::median(&submit), "ms"),
        metric("serve.submit_p99_ms", stats::quantile(&submit, 0.99), "ms"),
        metric(
            "serve.exec_warm_ms",
            stats::median(&span_ms(spans, passes, "serve.exec_warm")),
            "ms",
        ),
        metric(
            "serve.exec_cold_ms",
            stats::median(&span_ms(spans, passes, "serve.exec_cold")),
            "ms",
        ),
        metric(
            "serve.result_ms",
            stats::median(&span_ms(spans, passes, "serve.result")),
            "ms",
        ),
        metric("serve.result_bytes", count("serve.result_bytes"), "bytes"),
        metric(
            "serve.cells_simulated",
            count("serve.cells_simulated"),
            "count",
        ),
        metric("serve.cells_reused", count("serve.cells_reused"), "count"),
        metric("serve.shed", count("serve.shed"), "count"),
    ]
}

/// A fresh, empty scratch directory under the run's work dir.
pub fn fresh_dir(env: &Env, name: &str) -> Result<PathBuf, String> {
    let dir = env.work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}
