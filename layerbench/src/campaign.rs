//! The `campaign-busy` and `campaign-stall` workloads: cold
//! `run_campaign` sweeps at `jobs = 2` over a fresh on-disk cache, each
//! followed by warm re-runs that read every cell back from that cache.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use icicle_boom::BoomSize;
use icicle_campaign::{
    run_campaign, CampaignReport, CampaignSpec, CellResult, CoreSelect, ProgressFn, ResultCache,
    RunOptions, SocMix,
};
use icicle_pmu::CounterArch;

use crate::layers::{self, Counts};
use crate::spans::{Scope, Tracer};
use crate::{fresh_dir, metric, stats, Env, Outcome};

/// Warm re-runs after each cold run; each reads every cell from disk.
/// A warm re-run takes milliseconds, so thirty of them spread the warm
/// samples over more of the run than a short burst: a brief stall of a
/// shared host moves their median less.
const WARM_RERUNS: usize = 30;
/// Set-up takes about ten microseconds: it is repeated this many times
/// before every cold sweep, so its median samples the whole run.
const SETUP_REPEATS: usize = 25;
/// Rounds go on past `--seconds` until the cold p90 has at least this
/// many samples beyond it.
const MIN_TAIL_SAMPLES: usize = 10;

#[derive(Copy, Clone)]
pub enum Grid {
    /// Cores retire on most cycles: `step()` and per-cycle harness work
    /// dominate, quiescent spans are rare.
    Busy,
    /// Long D$-miss and divide stalls: the event vector rarely changes
    /// and the counter harness dominates.
    Stall,
}

impl Grid {
    fn name(self) -> &'static str {
        match self {
            Grid::Busy => "campaign-busy",
            Grid::Stall => "campaign-stall",
        }
    }

    /// The grid, with `seed` as the spec's data seed. The arch axis
    /// crosses the SoC topologies too, so each runs once per arch.
    pub fn spec(self, seed: u64) -> CampaignSpec {
        let (names, socs, soc_workload): (&[&str], &[SocMix], &str) = match self {
            Grid::Busy => (
                &[
                    "qsort",
                    "mergesort",
                    "coremark",
                    "dhrystone",
                    "525.x264_r",
                    "531.deepsjeng_r",
                    "541.leela_r",
                    "548.exchange2_r",
                ],
                &[SocMix::DualRocket, SocMix::RocketMediumBoom],
                "qsort",
            ),
            Grid::Stall => (
                &[
                    "ptrchase",
                    "muldiv",
                    "505.mcf_r",
                    "520.omnetpp_r",
                    "523.xalancbmk_r",
                ],
                &[SocMix::QuadRocket],
                "ptrchase",
            ),
        };
        // SoC topologies first: the heaviest cells start at once on both
        // workers and the light ones fill in at the end, so the sweep's
        // wall time and peak memory do not hinge on which cells happen
        // to overlap.
        let mut cores: Vec<CoreSelect> = socs.iter().map(|mix| CoreSelect::Soc(*mix)).collect();
        cores.extend([CoreSelect::Rocket, CoreSelect::Boom(BoomSize::Medium)]);
        let mut spec = CampaignSpec::new(self.name())
            .workloads(names.iter().copied())
            .cores(cores)
            .archs([CounterArch::AddWires, CounterArch::Distributed])
            .seeds([seed]);
        for name in names.iter().filter(|n| **n != soc_workload) {
            for mix in socs {
                spec = spec.exclude(*name, CoreSelect::Soc(*mix));
            }
        }
        spec
    }
}

/// Records when each cell's result came in, relative to the start of
/// the run: a cell's time-to-result, as a user watching the progress of
/// the campaign sees it.
fn result_times() -> (Arc<Mutex<Vec<Instant>>>, Box<ProgressFn>) {
    let marks = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&marks);
    let progress = Box::new(move |_| {
        sink.lock()
            .expect("result-time marks poisoned")
            .push(Instant::now());
    });
    (marks, progress)
}

fn since_ms(start: Instant, marks: &Mutex<Vec<Instant>>) -> Vec<f64> {
    let marks = marks.lock().expect("result-time marks poisoned");
    marks
        .iter()
        .map(|at| (*at - start).as_secs_f64() * 1e3)
        .collect()
}

/// One `run_campaign` over the on-disk cache at `dir`: cold when the
/// directory is fresh, warm (every cell a disk-tier hit through a new
/// handle, as when a user re-runs an unchanged campaign) when a cold run
/// filled it. Returns the report, its wall time in seconds, and each
/// cell's time-to-result in ms.
fn sweep(
    spec: &CampaignSpec,
    dir: &std::path::Path,
) -> Result<(CampaignReport, f64, Vec<f64>), String> {
    let cache =
        ResultCache::with_disk(dir).map_err(|e| format!("cache at {}: {e}", dir.display()))?;
    let (marks, progress) = result_times();
    let options = RunOptions {
        jobs: layers::JOBS,
        cache: Some(Arc::new(cache)),
        progress: Some(progress),
        ..RunOptions::default()
    };
    let start = Instant::now();
    let report = run_campaign(spec, &options);
    let wall = start.elapsed().as_secs_f64();
    Ok((report, wall, since_ms(start, &marks)))
}

fn cell_digest(cell: &CellResult) -> u64 {
    stats::fnv1a(cell.to_json().render().as_bytes())
}

/// What the output check needs from one report, kept in place of the
/// report so the benchmark's own memory does not grow with the run.
struct Seen {
    cold: bool,
    cells: Vec<u64>,
    failed: usize,
    /// Cells simulated (cold) or served from the cache (warm).
    provenance: usize,
}

impl Seen {
    fn of(report: &CampaignReport, cold: bool) -> Seen {
        Seen {
            cold,
            cells: report.cells.iter().map(cell_digest).collect(),
            failed: report.failures.len(),
            provenance: if cold {
                report.stats.simulated
            } else {
                report.stats.cached
            },
        }
    }

    /// Cells that differ from `expected`, are missing, or failed.
    fn wrong(&self, expected: &[u64]) -> u64 {
        let differ = self
            .cells
            .iter()
            .zip(expected)
            .filter(|(a, b)| a != b)
            .count();
        (differ + expected.len().abs_diff(self.cells.len()) + self.failed) as u64
    }
}

/// The serial re-derivation of every cell of `spec`.
fn rederive(
    spec: &CampaignSpec,
    scope: Scope<'_>,
    detail: bool,
    counts: &mut Counts,
) -> Result<Vec<CellResult>, String> {
    spec.cells()
        .iter()
        .map(|cell| layers::rederive_cell(cell, scope, detail, counts))
        .collect()
}

/// Set-up of one cold sweep, as a campaign user pays it: build the spec
/// and its cell grid, and open an on-disk cache in the empty directory
/// `dir`.
fn set_up(grid: Grid, env: &Env, dir: &std::path::Path) -> Result<(), String> {
    std::hint::black_box(grid.spec(env.seed).cells());
    ResultCache::with_disk(dir).map_err(|e| format!("cache at {}: {e}", dir.display()))?;
    Ok(())
}

/// `--trace 0`: the end-to-end metrics.
pub fn run(grid: Grid, env: &Env) -> Result<Outcome, String> {
    let spec = grid.spec(env.seed);
    let cells = spec.cells().len() as u64;

    let start = Instant::now();
    let deadline = env.deadline(start);
    let mut setup = Vec::new();
    let mut campaign_s = Vec::new();
    let mut cold_ms = Vec::new();
    let mut warm_ms = Vec::new();
    let mut seen = Vec::new();
    while Instant::now() < deadline || stats::beyond(&cold_ms, 0.9) < MIN_TAIL_SAMPLES {
        // Every cold sweep gets a new, empty cache directory, the last
        // one set up. Each is made before its set-up is timed, and
        // nothing is deleted until the run ends: timing the file
        // system's own work made the per-run median vary 5x between
        // otherwise identical runs.
        let mut dir = std::path::PathBuf::new();
        for _ in 0..SETUP_REPEATS {
            dir = env.work.join(format!("cold-{}", setup.len()));
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            let began = Instant::now();
            set_up(grid, env, &dir)?;
            setup.push(began.elapsed().as_secs_f64());
        }
        let (report, wall, latencies) = sweep(&spec, &dir)?;
        campaign_s.push(wall);
        cold_ms.extend(latencies);
        seen.push(Seen::of(&report, true));
        for _ in 0..WARM_RERUNS {
            let (warm, _, latencies) = sweep(&spec, &dir)?;
            warm_ms.extend(latencies);
            seen.push(Seen::of(&warm, false));
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    // Read before the output check, whose re-derivation is the
    // benchmark's own work.
    let peak_rss_mb = stats::peak_rss_mb();
    let peak_heap_mb = stats::peak_heap_mb();

    // Output check, outside the timed window: every cell of every cold
    // and warm report must equal the serial re-derivation.
    let tracer = Tracer::new(false);
    let mut counts = Counts::default();
    let expected = rederive(&spec, tracer.root(0), false, &mut counts)?;
    let digests: Vec<u64> = expected.iter().map(cell_digest).collect();
    let mut outcome = Outcome::default();
    for report in &seen {
        let label = if report.cold { "cold" } else { "warm" };
        let wrong = report.wrong(&digests);
        outcome.failed += wrong;
        outcome.attempted += cells;
        if wrong > 0 && outcome.problems.len() < 5 {
            outcome.problems.push(format!(
                "{label} report: {wrong} cells differ from the serial re-derivation or failed"
            ));
        }
        if report.provenance as u64 != cells && outcome.problems.len() < 5 {
            outcome.problems.push(format!(
                "{label} report: {} of {cells} cells {}",
                report.provenance,
                if report.cold { "simulated" } else { "cached" },
            ));
        }
    }

    let instrs: u64 = expected.iter().map(layers::instret).sum();
    let campaign = stats::median(&campaign_s);
    let setup_ms: Vec<f64> = setup.iter().map(|s| s * 1e3).collect();
    outcome.notes.push(stats::tail_note("set-up", &setup_ms));
    outcome
        .notes
        .push(stats::tail_note("cold time-to-result", &cold_ms));
    outcome
        .notes
        .push(stats::tail_note("warm time-to-result", &warm_ms));
    outcome.notes.push(format!(
        "cells={cells} cold_rounds={} warm_reruns={} window_s={window_s:.3} cold_samples={} warm_samples={} instrs_per_campaign={instrs} peak_rss_mb={peak_rss_mb:.3} rounds_s={:.3?}",
        campaign_s.len(),
        seen.len() - campaign_s.len(),
        cold_ms.len(),
        warm_ms.len(),
        campaign_s
    ));
    outcome.metrics = vec![
        metric("setup_s", stats::median(&setup), "s"),
        metric("campaign_s", campaign, "s"),
        metric("sim_minst_per_s", instrs as f64 / campaign / 1e6, "Minst/s"),
        metric("jobs_per_s", cells as f64 / campaign, "1/s"),
        metric("cold_p50_ms", stats::median(&cold_ms), "ms"),
        metric("cold_p90_ms", stats::quantile(&cold_ms, 0.9), "ms"),
        metric("warm_p50_ms", stats::median(&warm_ms), "ms"),
        metric("peak_heap_mb", peak_heap_mb, "MB"),
    ];
    Ok(outcome)
}

/// `--trace 1`: the per-layer split. Each pass re-derives every cell
/// serially layer by layer, round-trips the results through a fresh
/// on-disk cache, renders them, and re-runs the campaign warm over that
/// cache: its report must equal the rendered re-derivation.
pub fn traced(grid: Grid, env: &Env) -> Result<Outcome, String> {
    let spec = grid.spec(env.seed);
    let cells = spec.cells();
    let mut pass = |scope: Scope<'_>,
                    counts: &mut Counts,
                    problems: &mut Vec<String>|
     -> Result<(), String> {
        layers::count_streams(&cells, counts);
        let expected = rederive(&spec, scope, true, counts)?;
        let dir = fresh_dir(env, "roundtrip")?;
        let mut wrong = layers::cache_roundtrip(scope, &dir, &expected)?;
        let rendered = layers::render(scope, &spec.name, expected);
        if layers::warm_campaign(scope, &dir, &spec, counts)? != rendered {
            wrong += 1;
        }
        if wrong > 0 {
            problems.push(format!("{wrong} checks failed between the cache, the campaign and the serial re-derivation"));
        }
        counts.add("checks.failed", wrong);
        Ok(())
    };
    crate::traced_run(env, &mut pass)
}
