//! Serial, layer-by-layer re-derivation of campaign cells through each
//! layer's public functions, mirroring `icicle_campaign::simulate_cell`.
//!
//! The re-derived results are the reference the benchmark checks every
//! campaign report and served result against. With `detail` on, the
//! pass also drives a raw `EventCore::step()` loop on a fresh identical
//! core (the core layer alone), scans the event-vector stream, and times
//! TMA/TLB analysis and the result cache — the per-layer split.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use icicle_boom::{Boom, BoomConfig};
use icicle_campaign::fingerprint::mix_seed;
use icicle_campaign::{
    data_seed, fingerprint, run_campaign, CampaignReport, CampaignSpec, CellResult, CellSpec,
    CoreSelect, ResultCache, RunOptions, RunStats, SkipPolicy, SocJobs,
};
use icicle_events::{EventCore, EventId, EventVector};
use icicle_isa::DynStream;
use icicle_perf::{Perf, PerfOptions, PerfReport};
use icicle_rocket::{Rocket, RocketConfig};
use icicle_tma::{TlbCosts, TlbInput, TlbLevel, TmaInput, TmaModel};
use icicle_workloads::{self as workloads, Workload};

use crate::spans::Scope;

/// Worker threads of every `run_campaign` call the benchmark makes.
pub const JOBS: usize = 2;

/// Exact work counts of one pass. They are deterministic functions of
/// the seed, so every pass (and every run of the same seed and binary)
/// must produce identical counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts(pub BTreeMap<&'static str, u64>);

impl Counts {
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.0.entry(key).or_insert(0) += n;
    }

    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// `key=value` lines in key order: the form digested and stored.
    pub fn render(&self) -> String {
        self.0.iter().map(|(k, v)| format!("{k}={v}\n")).collect()
    }
}

/// The (workload, data seed) stream each core of `cell` interprets,
/// exactly as `simulate_cell` derives them.
pub fn stream_keys(cell: &CellSpec) -> Vec<(String, u64)> {
    let seed = data_seed(cell);
    let cores = match cell.core {
        CoreSelect::Soc(mix) => mix.num_cores() as u64,
        _ => 1,
    };
    (0..cores)
        .map(|k| {
            let core_seed = if k == 0 { seed } else { mix_seed(seed, k) };
            (cell.workload.clone(), core_seed)
        })
        .collect()
}

/// Counts the streams `cells` interpret on all their cores
/// (`workloads.core_cells`) and how many of those are distinct
/// (`workloads.streams_distinct`): the interpreter pre-passes a campaign
/// would need if equal streams were shared.
pub fn count_streams(cells: &[CellSpec], counts: &mut Counts) {
    let keys: Vec<_> = cells.iter().flat_map(stream_keys).collect();
    counts.add("workloads.core_cells", keys.len() as u64);
    counts.add(
        "workloads.streams_distinct",
        keys.iter().collect::<BTreeSet<_>>().len() as u64,
    );
}

/// Simulated instructions retired by `result` on all its cores.
pub fn instret(result: &CellResult) -> u64 {
    if result.cores.is_empty() {
        result.instret
    } else {
        result.cores.iter().map(|c| c.instret).sum()
    }
}

/// Builds the seeded workload program, timed as `workloads.build`.
fn workload(scope: Scope<'_>, name: &str, seed: u64) -> Result<Workload, String> {
    scope
        .time("workloads.build", || workloads::by_name_seeded(name, seed))
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

fn new_core(select: CoreSelect, workload: &Workload, stream: DynStream) -> Box<dyn EventCore> {
    match select {
        CoreSelect::Rocket => Box::new(Rocket::new(RocketConfig::default(), stream)),
        CoreSelect::Boom(size) => Box::new(Boom::new(
            BoomConfig::for_size(size),
            stream,
            workload.program_arc(),
        )),
        CoreSelect::Soc(_) => unreachable!("soc cells are built by SocMix"),
    }
}

/// Counts maximal runs of identical consecutive event vectors, and the
/// cycles stepped, on a fresh core.
fn vector_runs(core: &mut dyn EventCore) -> (u64, u64) {
    let mut runs = 0;
    let mut previous: Option<EventVector> = None;
    while !core.is_done() {
        let vector = core.step();
        if previous.as_ref() != Some(vector) {
            runs += 1;
            previous = Some(vector.clone());
        }
    }
    (runs, core.cycle())
}

fn analyze_tma(report: &PerfReport, commit_width: usize) -> (TmaModel, TlbLevel) {
    let hw = &report.hw_counts;
    let model = if commit_width == 1 {
        TmaModel::rocket()
    } else {
        TmaModel::boom(commit_width)
    };
    let tma = model.analyze(&TmaInput::from_counts(hw));
    let tlb = TlbLevel::analyze(
        &tma,
        &TlbInput {
            itlb_misses: hw.get(EventId::ITlbMiss),
            dtlb_misses: hw.get(EventId::DTlbMiss),
            l2_tlb_misses: hw.get(EventId::L2TlbMiss),
        },
        &TlbCosts::default(),
        report.cycles,
        model.commit_width,
    );
    (model, tlb)
}

/// Re-derives one cell serially. Opens a `cell` span (fresh id) under
/// `scope` with one child span per layer call.
pub fn rederive_cell(
    cell: &CellSpec,
    scope: Scope<'_>,
    detail: bool,
    counts: &mut Counts,
) -> Result<CellResult, String> {
    let id = scope.tracer().fresh_id();
    scope.nest("cell", Some(id), |scope| {
        counts.add("cells.rederived", 1);
        let seed = data_seed(cell);
        if let CoreSelect::Soc(mix) = cell.core {
            let per_core = stream_keys(cell)
                .iter()
                .map(|(name, seed)| workload(scope, name, *seed))
                .collect::<Result<Vec<_>, _>>()?;
            let mut soc = scope
                .time("soc.build", || mix.build(&per_core))
                .map_err(|e| e.to_string())?;
            let reports = scope
                .time("soc.run", || {
                    soc.run_with(cell.max_cycles, SocJobs::resolve(None))
                })
                .map_err(|e| e.to_string())?;
            counts.add("soc.cells", 1);
            counts.add(
                "soc.cycles",
                reports.iter().map(|r| r.report.cycles).sum::<u64>(),
            );
            return Ok(CellResult::from_soc_reports(cell.clone(), &reports));
        }
        let workload = workload(scope, &cell.workload, seed)?;
        let stream = scope
            .time("workloads.execute", || workload.execute())
            .map_err(|e| e.to_string())?;
        counts.add("workloads.executes", 1);
        counts.add("workloads.instrs", stream.len() as u64);
        let (step_layer, cycles_key) = match cell.core {
            CoreSelect::Rocket => ("rocket.step", "rocket.cycles"),
            _ => ("boom.step", "boom.cycles"),
        };
        let mut raw_cycles = None;
        if detail {
            let mut core = new_core(cell.core, &workload, stream.clone());
            scope.time(step_layer, || {
                while !core.is_done() {
                    black_box(core.step());
                }
            });
            counts.add(cycles_key, core.cycle());
            raw_cycles = Some(core.cycle());
            let mut core = new_core(cell.core, &workload, stream.clone());
            let (runs, cycles) = scope.time("bench.vector_scan", || vector_runs(core.as_mut()));
            counts.add("perf.vector_runs", runs);
            counts.add("perf.vector_cycles", cycles);
        }
        let perf = Perf::with_options(PerfOptions {
            arch: cell.arch,
            max_cycles: cell.max_cycles,
            skip: SkipPolicy::resolve(),
            ..PerfOptions::default()
        });
        let mut core = new_core(cell.core, &workload, stream);
        let report = scope
            .time("perf.run", || perf.run(core.as_mut()))
            .map_err(|e| e.to_string())?;
        counts.add("perf.cycles", report.cycles);
        if let Some(raw) = raw_cycles {
            if raw != report.cycles {
                return Err(format!(
                    "{}: raw step loop ran {raw} cycles but Perf::run counted {}",
                    cell.label(),
                    report.cycles
                ));
            }
            let width = core.commit_width();
            black_box(scope.time("tma.analyze", || analyze_tma(&report, width)));
        }
        Ok(CellResult::from_report(cell.clone(), &report))
    })
}

/// Times a put of every result into a fresh on-disk cache at `dir`,
/// then a get of each through a second, cold handle (so every get reads
/// the disk tier), and checks each entry round-trips. Returns the
/// number of entries that did not.
pub fn cache_roundtrip(
    scope: Scope<'_>,
    dir: &Path,
    results: &[CellResult],
) -> Result<u64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = ResultCache::with_disk(dir).map_err(|e| e.to_string())?;
    for result in results {
        let fp = fingerprint(&result.cell);
        scope.time("campaign.cache_put", || cache.put(fp, result));
    }
    let cold = ResultCache::with_disk(dir).map_err(|e| e.to_string())?;
    let mut bad = 0;
    for result in results {
        let fp = fingerprint(&result.cell);
        let got = scope.time("campaign.cache_get", || cold.get(fp));
        if got.map(|r| r.to_json().render()) != Some(result.to_json().render()) {
            bad += 1;
        }
    }
    Ok(bad)
}

/// Runs `spec` through `run_campaign` over the cache at `dir`, which
/// already holds every cell, and returns the report document. Counts
/// the cells it simulated and the cells it found cached.
pub fn warm_campaign(
    scope: Scope<'_>,
    dir: &Path,
    spec: &CampaignSpec,
    counts: &mut Counts,
) -> Result<String, String> {
    let options = RunOptions {
        jobs: JOBS,
        cache: Some(Arc::new(
            ResultCache::with_disk(dir).map_err(|e| e.to_string())?,
        )),
        ..RunOptions::default()
    };
    let report = scope.time("campaign.rerun", || run_campaign(spec, &options));
    counts.add("campaign.cells_simulated", report.stats.simulated as u64);
    counts.add("campaign.cells_cached", report.stats.cached as u64);
    Ok(report.to_json())
}

/// The canonical report document for `cells`, as `run_campaign` renders
/// it, timed as the `campaign.render` layer.
pub fn render(scope: Scope<'_>, name: &str, cells: Vec<CellResult>) -> String {
    let report = CampaignReport {
        name: name.to_string(),
        cells,
        failures: Vec::new(),
        skipped: Vec::new(),
        incidents: Vec::new(),
        stats: RunStats::default(),
    };
    scope.time("campaign.render", || report.to_json())
}
