//! The PDES equivalence differential.
//!
//! The parallel SoC engine ([`icicle_soc::Soc::run_parallel`]) promises
//! byte-identical results to the single-threaded lockstep reference at
//! *any* thread count — that promise is what lets the campaign cache,
//! the bench ledger, and the CI determinism gate treat the engine
//! choice as a pure performance knob. This module checks the promise
//! empirically: seeded scenarios (a topology from [`SocMix::ALL`], a
//! workload and data seed per core) run once under lockstep and once
//! under the parallel engine at each requested thread count, and every
//! observable of every per-core report — cycles, instret, all hardware
//! and perfect event counts, and the full two-level TMA breakdown at
//! f64-bit granularity — must match exactly.
//!
//! A scenario that diverges is *shrunk* greedily (drop to a smaller
//! topology, canonicalize workloads to `vvadd`, zero data seeds) to a
//! minimal reproducer before it is reported, and the JSON report names
//! the reproducer so a CI failure replays locally from the seed alone.
//!
//! Determinism: scenario `i` of seed `s` is a pure function of the
//! label `icicle-verify/pdes/{s}/{i}` fed to the vendored proptest
//! [`TestRng`], exactly like the workload fuzzer.

use std::fmt;
use std::path::PathBuf;

use icicle_campaign::json::Json;
use icicle_campaign::{Progress, ProgressFn};
use icicle_events::EventId;
use icicle_obs::{self as obs};
use icicle_soc::{SocJobs, SocMix, SocReport};
use icicle_workloads::{self as workloads, Workload};
use proptest::test_runner::TestRng;

/// Workloads scenarios draw from: the seed-capable sorts (whose data
/// actually varies per core) plus short control-flow and memory-bound
/// micros. All finish well inside the scenario budget.
pub const WORKLOAD_POOL: [&str; 6] = ["vvadd", "towers", "qsort", "mergesort", "rsort", "median"];

/// Per-scenario cycle budget — generous for every pool workload.
const SCENARIO_BUDGET: u64 = 4_000_000;

/// One generated (or shrunk) PDES scenario.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PdesCase {
    /// The master seed this scenario came from.
    pub seed: u64,
    /// Scenario index under that seed.
    pub index: u64,
    /// The SoC topology.
    pub mix: SocMix,
    /// One workload name per core.
    pub workloads: Vec<String>,
    /// One data seed per core (0 = canonical dataset).
    pub data_seeds: Vec<u64>,
}

impl PdesCase {
    /// Scenario `index` of `seed` — a pure function of both.
    pub fn generate(seed: u64, index: u64) -> PdesCase {
        let mut rng = TestRng::deterministic(&format!("icicle-verify/pdes/{seed}/{index}"));
        let mix = SocMix::ALL[(rng.next_u64() % SocMix::ALL.len() as u64) as usize];
        let workloads = (0..mix.num_cores())
            .map(|_| WORKLOAD_POOL[(rng.next_u64() % WORKLOAD_POOL.len() as u64) as usize].into())
            .collect();
        let data_seeds = (0..mix.num_cores())
            .map(|_| rng.next_u64() % 1000)
            .collect();
        PdesCase {
            seed,
            index,
            mix,
            workloads,
            data_seeds,
        }
    }

    /// A compact human-readable description for reports.
    pub fn describe(&self) -> String {
        let cores: Vec<String> = self
            .workloads
            .iter()
            .zip(&self.data_seeds)
            .map(|(w, s)| format!("{w}@{s}"))
            .collect();
        format!(
            "seed {} case {}: {} [{}]",
            self.seed,
            self.index,
            self.mix,
            cores.join(", ")
        )
    }

    /// Builds the per-core workloads.
    fn build_workloads(&self) -> Result<Vec<Workload>, String> {
        self.workloads
            .iter()
            .zip(&self.data_seeds)
            .map(|(name, &seed)| {
                workloads::by_name_seeded(name, seed)
                    .ok_or_else(|| format!("unknown workload `{name}`"))
            })
            .collect()
    }

    /// Shrink candidates, most aggressive first: a smaller topology
    /// (keeping the surviving cores' workloads), then canonical
    /// workloads, then canonical data.
    fn candidates(&self) -> Vec<PdesCase> {
        let mut out = Vec::new();
        if self.mix != SocMix::DualRocket {
            let mut c = self.clone();
            c.mix = SocMix::DualRocket;
            c.workloads.truncate(2);
            c.data_seeds.truncate(2);
            out.push(c);
        }
        for i in 0..self.workloads.len() {
            if self.workloads[i] != "vvadd" {
                let mut c = self.clone();
                c.workloads[i] = "vvadd".into();
                out.push(c);
            }
        }
        for i in 0..self.data_seeds.len() {
            if self.data_seeds[i] != 0 {
                let mut c = self.clone();
                c.data_seeds[i] = 0;
                out.push(c);
            }
        }
        out
    }
}

/// Flattens one engine's reports into comparable `(label, value)`
/// observables. Floats are compared at bit granularity — "close" is a
/// divergence here, not a pass.
fn digest(reports: &[SocReport]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (k, r) in reports.iter().enumerate() {
        let p = &r.report;
        out.push((format!("core{k}.workload"), r.workload.clone()));
        out.push((format!("core{k}.core"), p.core_name.clone()));
        out.push((format!("core{k}.cycles"), p.cycles.to_string()));
        out.push((format!("core{k}.instret"), p.instret.to_string()));
        for e in EventId::ALL {
            let name = e.name();
            out.push((format!("core{k}.hw.{name}"), p.hw_counts.get(e).to_string()));
            out.push((
                format!("core{k}.perfect.{name}"),
                p.perfect_counts.get(e).to_string(),
            ));
        }
        let t = &p.tma;
        for (label, v) in [
            ("tma.retiring", t.top.retiring),
            ("tma.bad_speculation", t.top.bad_speculation),
            ("tma.frontend", t.top.frontend),
            ("tma.backend", t.top.backend),
            ("tma.machine_clears", t.bad_spec.machine_clears),
            ("tma.branch_mispredicts", t.bad_spec.branch_mispredicts),
            ("tma.fetch_latency", t.frontend.fetch_latency),
            ("tma.pc_resteers", t.frontend.pc_resteers),
            ("tma.mem_bound", t.backend.mem_bound),
            ("tma.core_bound", t.backend.core_bound),
            ("tma.itlb_bound", p.tlb.itlb_bound),
            ("tma.dtlb_bound", p.tlb.dtlb_bound),
        ] {
            out.push((format!("core{k}.{label}"), format!("{:016x}", v.to_bits())));
        }
    }
    out
}

/// Runs one scenario under one engine.
fn run_engine(case: &PdesCase, jobs: SocJobs) -> Result<Vec<SocReport>, String> {
    let per_core = case.build_workloads()?;
    let mut soc = case.mix.build(&per_core).map_err(|e| e.to_string())?;
    soc.run_with(SCENARIO_BUDGET, jobs)
        .map_err(|e| e.to_string())
}

/// The first observable on which two engines disagree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PdesMismatch {
    /// The parallel thread count that diverged.
    pub jobs: usize,
    /// The observable's label (`core1.hw.cycles`, `core0.tma.mem_bound`, …).
    pub observable: String,
    /// Its value under the lockstep reference.
    pub lockstep: String,
    /// Its value under the parallel engine.
    pub parallel: String,
}

impl fmt::Display for PdesMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {} jobs: lockstep {} vs parallel {}",
            self.observable, self.jobs, self.lockstep, self.parallel
        )
    }
}

/// Checks one scenario: lockstep once, then the parallel engine at each
/// thread count, comparing every observable.
///
/// # Errors
///
/// Returns the first engine error (budget trip, unknown workload) as a
/// string; an `Ok(Some(_))` is a genuine determinism violation.
pub fn check_case(case: &PdesCase, jobs: &[usize]) -> Result<Option<PdesMismatch>, String> {
    let reference = digest(&run_engine(case, SocJobs::Lockstep)?);
    for &n in jobs {
        let parallel = digest(&run_engine(case, SocJobs::Parallel(n))?);
        if parallel.len() != reference.len() {
            return Ok(Some(PdesMismatch {
                jobs: n,
                observable: "report-count".into(),
                lockstep: reference.len().to_string(),
                parallel: parallel.len().to_string(),
            }));
        }
        for ((label, want), (_, got)) in reference.iter().zip(&parallel) {
            if want != got {
                return Ok(Some(PdesMismatch {
                    jobs: n,
                    observable: label.clone(),
                    lockstep: want.clone(),
                    parallel: got.clone(),
                }));
            }
        }
    }
    Ok(None)
}

/// Greedily shrinks a diverging scenario: keeps any candidate that
/// still diverges, until no candidate does (or 64 attempts have been
/// spent). Returns the reproducer and the successful shrink steps.
pub fn shrink_case(case: &PdesCase, jobs: &[usize]) -> (PdesCase, u32) {
    icicle_faults::shrink(
        case.clone(),
        PdesCase::candidates,
        |c| matches!(check_case(c, jobs), Ok(Some(_))),
        Some(64),
    )
}

/// Knobs of one PDES differential run.
pub struct PdesOptions {
    /// Scenarios to generate.
    pub cases: u64,
    /// The master seed.
    pub seed: u64,
    /// Parallel thread counts checked against lockstep.
    pub jobs: Vec<usize>,
    /// Optional live progress callback.
    pub progress: Option<Box<ProgressFn>>,
    /// Directory for a flight-recorder dump when a divergence is found.
    /// `None` (the default) never touches the filesystem; the dump also
    /// requires the recorder to be armed.
    pub postmortem_dir: Option<PathBuf>,
}

impl Default for PdesOptions {
    fn default() -> PdesOptions {
        PdesOptions {
            cases: 12,
            seed: 0,
            jobs: vec![1, 2, 4, 8],
            progress: None,
            postmortem_dir: None,
        }
    }
}

/// A scenario whose engines diverged, with its minimal reproducer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PdesDivergence {
    /// The original scenario.
    pub case: PdesCase,
    /// The shrunk minimal reproducer (== `case` if nothing smaller
    /// still diverges).
    pub shrunk: PdesCase,
    /// Successful shrink steps applied.
    pub shrink_steps: u32,
    /// The reproducer's first mismatched observable.
    pub mismatch: PdesMismatch,
}

/// The outcome of a PDES differential run.
#[derive(Clone, Debug, Default)]
pub struct PdesReport {
    pub seed: u64,
    pub cases: u64,
    /// The thread counts each scenario was checked at.
    pub jobs: Vec<usize>,
    /// The run's trace id (hex); every span and event the differential
    /// emitted is reachable from it.
    pub trace: String,
    /// Path of the flight-recorder dump written when a divergence was
    /// found (recorder armed and a dump directory configured).
    pub postmortem: Option<String>,
    /// Scenarios that failed to run at all, as `(description, error)`.
    pub errors: Vec<(String, String)>,
    /// Scenarios whose engines diverged, shrunk.
    pub divergences: Vec<PdesDivergence>,
}

impl PdesReport {
    /// Zero divergences and zero errors.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty() && self.errors.is_empty()
    }

    /// The canonical JSON report (the CI artifact). Each divergence
    /// entry carries a replayable reproducer description.
    pub fn to_json(&self) -> String {
        let mut pairs = vec![
            ("seed", Json::Int(self.seed)),
            ("cases", Json::Int(self.cases)),
            (
                "jobs",
                Json::Array(self.jobs.iter().map(|&n| Json::Int(n as u64)).collect()),
            ),
            ("trace", Json::Str(self.trace.clone())),
            ("passed", Json::Bool(self.passed())),
        ];
        if let Some(path) = &self.postmortem {
            pairs.push(("postmortem", Json::Str(path.clone())));
        }
        pairs.extend(vec![
            (
                "divergences",
                Json::Array(
                    self.divergences
                        .iter()
                        .map(|d| {
                            Json::object(vec![
                                ("case", Json::Str(d.case.describe())),
                                ("reproducer", Json::Str(d.shrunk.describe())),
                                ("shrink_steps", Json::Int(d.shrink_steps as u64)),
                                ("jobs", Json::Int(d.mismatch.jobs as u64)),
                                ("observable", Json::Str(d.mismatch.observable.clone())),
                                ("lockstep", Json::Str(d.mismatch.lockstep.clone())),
                                ("parallel", Json::Str(d.mismatch.parallel.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "errors",
                Json::Array(
                    self.errors
                        .iter()
                        .map(|(case, error)| {
                            Json::object(vec![
                                ("case", Json::Str(case.clone())),
                                ("error", Json::Str(error.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let mut out = Json::object(pairs).render();
        out.push('\n');
        out
    }
}

impl fmt::Display for PdesReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let jobs: Vec<String> = self.jobs.iter().map(|n| n.to_string()).collect();
        writeln!(
            f,
            "pdes seed {}: {} scenarios × jobs {{{}}}, {} divergences, {} errors",
            self.seed,
            self.cases,
            jobs.join(", "),
            self.divergences.len(),
            self.errors.len()
        )?;
        for d in &self.divergences {
            writeln!(
                f,
                "  DIVERGED after {} shrink steps: {} — {}",
                d.shrink_steps,
                d.shrunk.describe(),
                d.mismatch
            )?;
        }
        for (case, error) in &self.errors {
            writeln!(f, "  ERROR {case}: {error}")?;
        }
        Ok(())
    }
}

/// Runs `options.cases` seeded scenarios through the lockstep-vs-parallel
/// differential, shrinking any divergence to a minimal reproducer.
pub fn run_pdes(options: &PdesOptions) -> PdesReport {
    // One trace for the whole differential: divergence events — and the
    // post-mortem dump naming them — correlate back to this run.
    let trace = obs::TraceId::mint();
    let _scope = obs::enter(obs::TraceContext::root(trace));
    let _span = obs::span_with(obs::Level::Info, "pdes.run", || {
        vec![
            ("seed", options.seed.into()),
            ("cases", options.cases.into()),
        ]
    });
    let mut report = PdesReport {
        seed: options.seed,
        cases: options.cases,
        jobs: options.jobs.clone(),
        trace: trace.to_hex(),
        ..PdesReport::default()
    };
    let mut done = Progress {
        total: options.cases as usize,
        ..Progress::default()
    };
    for index in 0..options.cases {
        let case = PdesCase::generate(options.seed, index);
        match check_case(&case, &options.jobs) {
            Err(error) => {
                report.errors.push((case.describe(), error));
                done.failed += 1;
            }
            Ok(None) => done.simulated += 1,
            Ok(Some(mismatch)) => {
                let (shrunk, shrink_steps) = shrink_case(&case, &options.jobs);
                // Re-measure the reproducer for its exact mismatch (the
                // original if shrinking went nowhere).
                let mismatch = match check_case(&shrunk, &options.jobs) {
                    Ok(Some(m)) => m,
                    _ => mismatch,
                };
                obs::event_with(obs::Level::Warn, "pdes.divergence", || {
                    vec![
                        ("case", case.describe().into()),
                        ("reproducer", shrunk.describe().into()),
                        ("observable", mismatch.observable.clone().into()),
                    ]
                });
                report.divergences.push(PdesDivergence {
                    case,
                    shrunk,
                    shrink_steps,
                    mismatch,
                });
                done.failed += 1;
            }
        }
        if let Some(progress) = &options.progress {
            progress(done);
        }
    }
    if !report.divergences.is_empty() && obs::flight_armed() {
        if let Some(dir) = options.postmortem_dir.as_deref() {
            let extra = vec![
                ("seed", Json::Int(options.seed)),
                ("divergences", Json::Int(report.divergences.len() as u64)),
                (
                    "reproducer",
                    Json::Str(report.divergences[0].shrunk.describe()),
                ),
            ];
            report.postmortem = obs::write_postmortem(dir, trace, "pdes_divergence", extra)
                .ok()
                .map(|path| path.display().to_string());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scenarios_are_pure_functions_of_seed_and_index() {
        assert_eq!(PdesCase::generate(7, 3), PdesCase::generate(7, 3));
        assert_ne!(PdesCase::generate(7, 3), PdesCase::generate(7, 4));
    }

    #[test]
    fn a_short_seeded_run_finds_no_divergence() {
        let report = run_pdes(&PdesOptions {
            cases: 3,
            seed: 42,
            jobs: vec![2],
            ..PdesOptions::default()
        });
        assert!(report.passed(), "{report}");
        assert!(report.to_json().contains("\"passed\": true"));
    }

    #[test]
    fn every_topology_passes_the_differential_at_every_thread_count() {
        for (i, mix) in SocMix::ALL.into_iter().enumerate() {
            let case = PdesCase {
                seed: 0,
                index: i as u64,
                mix,
                workloads: (0..mix.num_cores())
                    .map(|k| WORKLOAD_POOL[(i + k) % WORKLOAD_POOL.len()].into())
                    .collect(),
                data_seeds: (1..=mix.num_cores() as u64).collect(),
            };
            let verdict = check_case(&case, &[1, 2, 4, 8]).unwrap();
            assert_eq!(verdict, None, "diverged: {}", case.describe());
        }
    }

    #[test]
    fn the_shrinker_reaches_a_minimal_scenario() {
        // Shrinking bottoms out when the case no longer "diverges"; an
        // always-diverging oracle exercises the full candidate chain.
        let case = PdesCase {
            seed: 1,
            index: 0,
            mix: SocMix::QuadRocket,
            workloads: vec!["qsort".into(); 4],
            data_seeds: vec![7, 8, 9, 10],
        };
        let mut current = case;
        let mut steps = 0;
        while let Some(next) = current.candidates().into_iter().next() {
            current = next;
            steps += 1;
        }
        assert!(steps > 0);
        assert_eq!(current.mix, SocMix::DualRocket);
        assert!(current.workloads.iter().all(|w| w == "vvadd"));
        assert!(current.data_seeds.iter().all(|&s| s == 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The PDES determinism property, searched rather than sampled:
        /// any topology, any per-core workload/seed assignment, any
        /// thread count must reproduce lockstep exactly. On failure
        /// proptest shrinks toward mix index 0 (dual Rocket), workload
        /// index 0 (vvadd), and seed 0 — the same floor the greedy
        /// reporter shrinks to.
        #[test]
        fn parallel_engine_matches_lockstep(
            mix_index in 0usize..SocMix::ALL.len(),
            picks in proptest::collection::vec(0usize..WORKLOAD_POOL.len(), 4..5),
            seeds in proptest::collection::vec(0u64..100, 4..5),
            jobs in 1usize..9,
        ) {
            let mix = SocMix::ALL[mix_index];
            let case = PdesCase {
                seed: 0,
                index: 0,
                mix,
                workloads: picks[..mix.num_cores()]
                    .iter()
                    .map(|&i| WORKLOAD_POOL[i].into())
                    .collect(),
                data_seeds: seeds[..mix.num_cores()].to_vec(),
            };
            let verdict = check_case(&case, &[jobs]).expect("engines run clean");
            prop_assert_eq!(verdict, None, "diverged: {}", case.describe());
        }
    }
}
