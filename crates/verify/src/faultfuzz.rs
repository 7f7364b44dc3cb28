//! A deterministic fuzzer over *fault schedules*.
//!
//! Where [`crate::fuzz`] stresses the measurement models with random
//! workloads, this module stresses the campaign runner's resilience
//! layer with random [`FaultPlan`]s: every case injects a seed-pure
//! mix of panics, watchdog trips, cache corruption, and lock poisoning
//! into a small fixed campaign, then checks the graceful-degradation
//! contract:
//!
//! 1. the runner itself never panics — faults land in cells, not in
//!    the harness;
//! 2. every cell is accounted for (completed, failed, or skipped);
//! 3. the report is byte-identical at `--jobs 1` and `--jobs 2`;
//! 4. cells hit only by *transient* faults recover on retry and match
//!    a fault-free baseline exactly;
//! 5. cells hit by *persistent* panics or slowdowns fail with the
//!    right typed kind after exhausting their retry budget — and no
//!    other cell fails.
//!
//! A violating plan is shrunk greedily ([`FaultPlan::without`]) to the
//! minimal schedule that still violates before it is reported —
//! debugging a resilience bug starts from one fault, not five.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use icicle_campaign::json::Json;
use icicle_campaign::{run_campaign, CampaignSpec, CoreSelect, Progress, ProgressFn, RunOptions};
use icicle_faults::{FaultInjector, FaultKind, FaultPlan};
use icicle_obs::{self as obs};
use icicle_pmu::CounterArch;

/// Retries granted to every fuzzed run: exactly enough for a transient
/// fault (which fires only on attempt 1) to recover.
const FUZZ_RETRIES: u32 = 1;

/// The small fixed campaign every fault plan runs against.
pub fn fault_fuzz_spec() -> CampaignSpec {
    CampaignSpec::new("fault-fuzz")
        .workloads(["vvadd", "towers"])
        .cores([CoreSelect::Rocket])
        .archs([CounterArch::AddWires])
        .seeds([0, 1])
}

/// Knobs of one fault-fuzzing run.
pub struct FaultFuzzOptions {
    /// Fault plans to generate.
    pub cases: u64,
    /// The master seed.
    pub seed: u64,
    /// Optional live progress callback.
    pub progress: Option<Box<ProgressFn>>,
}

impl Default for FaultFuzzOptions {
    fn default() -> FaultFuzzOptions {
        FaultFuzzOptions {
            cases: 8,
            seed: 0,
            progress: None,
        }
    }
}

/// A fault plan that broke the graceful-degradation contract, with its
/// minimal reproducer.
#[derive(Clone, Debug)]
pub struct FaultViolation {
    /// The generated plan.
    pub plan: FaultPlan,
    /// The shrunk minimal plan that still violates.
    pub shrunk: FaultPlan,
    /// Successful shrink steps applied.
    pub shrink_steps: u32,
    /// What the shrunk plan violates.
    pub error: String,
}

/// The outcome of a fault-fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FaultFuzzReport {
    pub seed: u64,
    pub cases: u64,
    /// The run's trace id (hex); spans and events the fuzzed campaigns
    /// emitted are reachable from it.
    pub trace: String,
    /// Plans that broke the contract, shrunk.
    pub violations: Vec<FaultViolation>,
    /// Distinct fault kinds exercised across all cases (sorted) — a
    /// coverage readout, so a seed that never drew `poisoned-lock`
    /// is visible in the artifact.
    pub kinds_exercised: Vec<String>,
}

impl FaultFuzzReport {
    /// Zero violations.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The canonical JSON report (the CI artifact).
    pub fn to_json(&self) -> String {
        let json = Json::object(vec![
            ("seed", Json::Int(self.seed)),
            ("cases", Json::Int(self.cases)),
            ("trace", Json::Str(self.trace.clone())),
            ("passed", Json::Bool(self.passed())),
            (
                "kinds_exercised",
                Json::Array(
                    self.kinds_exercised
                        .iter()
                        .map(|k| Json::Str(k.clone()))
                        .collect(),
                ),
            ),
            (
                "violations",
                Json::Array(
                    self.violations
                        .iter()
                        .map(|v| {
                            Json::object(vec![
                                ("plan", Json::Str(v.plan.describe())),
                                ("reproducer", Json::Str(v.shrunk.describe())),
                                ("shrink_steps", Json::Int(u64::from(v.shrink_steps))),
                                ("error", Json::Str(v.error.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let mut out = json.render();
        out.push('\n');
        out
    }
}

impl fmt::Display for FaultFuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault-fuzz seed {}: {} plans, {} violations; kinds exercised: [{}]",
            self.seed,
            self.cases,
            self.violations.len(),
            self.kinds_exercised.join(", ")
        )?;
        for v in &self.violations {
            writeln!(
                f,
                "  VIOLATED after {} shrink steps: {} — {}",
                v.shrink_steps,
                v.shrunk.describe(),
                v.error
            )?;
        }
        Ok(())
    }
}

/// Runs `spec` under `plan` (or fault-free when `plan` is `None`) at
/// the given thread count, catching any harness-level panic.
fn run_under_plan(
    spec: &CampaignSpec,
    plan: Option<&FaultPlan>,
    jobs: usize,
) -> Result<icicle_campaign::CampaignReport, String> {
    let options = RunOptions {
        jobs,
        retries: FUZZ_RETRIES,
        faults: plan.map(|p| Arc::new(FaultInjector::new(p.clone()))),
        ..RunOptions::default()
    };
    catch_unwind(AssertUnwindSafe(|| run_campaign(spec, &options)))
        .map_err(|_| "the campaign runner itself panicked".to_string())
}

/// Checks the graceful-degradation contract for one plan; `Err` names
/// the first violated invariant.
pub fn check_plan(spec: &CampaignSpec, plan: &FaultPlan) -> Result<(), String> {
    let cells = spec.cells();
    let baseline = run_under_plan(spec, None, 1)?;
    if !baseline.passed() {
        return Err("the fault-free baseline itself failed".to_string());
    }
    let solo = run_under_plan(spec, Some(plan), 1)?;
    let pooled = run_under_plan(spec, Some(plan), 2)?;

    if solo.to_json() != pooled.to_json() {
        return Err("report differs between --jobs 1 and --jobs 2".to_string());
    }
    if solo.stats.total() != cells.len() {
        return Err(format!(
            "cells lost: {} accounted for, {} submitted",
            solo.stats.total(),
            cells.len()
        ));
    }

    // A cell fails iff a persistent panic or slowdown targets it.
    let fatal = |kind: FaultKind| matches!(kind, FaultKind::PanicInCell | FaultKind::SlowCell);
    for (index, cell) in cells.iter().enumerate() {
        let label = cell.label();
        let doomed = plan
            .faults
            .iter()
            .any(|f| f.cell == index && f.persistent && fatal(f.kind));
        let failure = solo.failures.iter().find(|f| f.label == label);
        let result = solo.cells.iter().find(|c| c.cell == *cell);
        if doomed {
            let failure = failure
                .ok_or_else(|| format!("{label}: persistently faulted but reported no failure"))?;
            if failure.kind != "panic" && failure.kind != "timeout" {
                return Err(format!(
                    "{label}: wrong failure kind `{}` for an injected fault",
                    failure.kind
                ));
            }
            if failure.attempts != FUZZ_RETRIES + 1 {
                return Err(format!(
                    "{label}: expected {} attempts, saw {}",
                    FUZZ_RETRIES + 1,
                    failure.attempts
                ));
            }
        } else {
            if let Some(failure) = failure {
                return Err(format!(
                    "{label}: failed ({}) without a persistent fatal fault",
                    failure.error
                ));
            }
            let result =
                result.ok_or_else(|| format!("{label}: no result and no failure reported"))?;
            let clean = baseline
                .cells
                .iter()
                .find(|c| c.cell == *cell)
                .expect("baseline covers every cell");
            if result != clean {
                return Err(format!("{label}: recovered result differs from baseline"));
            }
        }
    }
    Ok(())
}

/// Greedily shrinks a violating plan: keeps dropping single faults as
/// long as `violates` still holds. Returns the minimal plan and the
/// number of faults removed.
pub fn shrink_plan<F>(plan: &FaultPlan, violates: F) -> (FaultPlan, u32)
where
    F: Fn(&FaultPlan) -> bool,
{
    icicle_faults::shrink(
        plan.clone(),
        |p| (0..p.faults.len()).map(|i| p.without(i)).collect(),
        violates,
        None,
    )
}

/// Runs `options.cases` seed-pure fault plans against the fixed fuzz
/// campaign, shrinking any contract violation to a minimal plan.
pub fn run_fault_fuzz(options: &FaultFuzzOptions) -> FaultFuzzReport {
    // One trace for the whole fuzzing run: every fuzzed campaign's
    // spans and events correlate back to the report naming this id.
    let trace = obs::TraceId::mint();
    let _scope = obs::enter(obs::TraceContext::root(trace));
    let _span = obs::span_with(obs::Level::Info, "faultfuzz.run", || {
        vec![
            ("seed", options.seed.into()),
            ("cases", options.cases.into()),
        ]
    });
    let spec = fault_fuzz_spec();
    let cell_count = spec.cells().len();
    let mut report = FaultFuzzReport {
        seed: options.seed,
        cases: options.cases,
        trace: trace.to_hex(),
        ..FaultFuzzReport::default()
    };
    let mut kinds: Vec<String> = Vec::new();
    let mut done = Progress {
        total: options.cases as usize,
        ..Progress::default()
    };
    for index in 0..options.cases {
        // Each case's plan is a pure function of (seed, index).
        let case_seed = options
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(index);
        let plan = FaultPlan::generate(case_seed, cell_count);
        for fault in &plan.faults {
            let name = fault.kind.name().to_string();
            if !kinds.contains(&name) {
                kinds.push(name);
            }
        }
        match check_plan(&spec, &plan) {
            Ok(()) => done.simulated += 1,
            Err(first_error) => {
                let (shrunk, shrink_steps) = shrink_plan(&plan, |p| check_plan(&spec, p).is_err());
                let error = check_plan(&spec, &shrunk).err().unwrap_or(first_error);
                report.violations.push(FaultViolation {
                    plan,
                    shrunk,
                    shrink_steps,
                    error,
                });
                done.failed += 1;
            }
        }
        if let Some(progress) = &options.progress {
            progress(done);
        }
    }
    kinds.sort_unstable();
    report.kinds_exercised = kinds;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        let a = FaultPlan::generate(11, 4);
        let b = FaultPlan::generate(11, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn a_short_seeded_run_upholds_the_contract() {
        let report = run_fault_fuzz(&FaultFuzzOptions {
            cases: 3,
            seed: 7,
            ..FaultFuzzOptions::default()
        });
        assert!(report.passed(), "{report}");
        assert!(!report.kinds_exercised.is_empty());
        assert!(report.to_json().contains("\"passed\": true"));
    }

    #[test]
    fn the_shrinker_reaches_a_minimal_violating_plan() {
        // An artificial oracle: "violates" whenever a panic fault is
        // present — the shrinker must strip everything else.
        let plan = FaultPlan::new()
            .with(FaultKind::PanicInCell, 0, true)
            .with(FaultKind::SlowCell, 1, false)
            .with(FaultKind::CorruptCacheEntry, 2, true)
            .with(FaultKind::PoisonedLock, 3, false);
        let violates = |p: &FaultPlan| p.faults.iter().any(|f| f.kind == FaultKind::PanicInCell);
        let (shrunk, steps) = shrink_plan(&plan, violates);
        assert_eq!(steps, 3);
        assert_eq!(shrunk.faults.len(), 1);
        assert_eq!(shrunk.faults[0].kind, FaultKind::PanicInCell);
    }

    #[test]
    fn a_persistent_panic_plan_satisfies_the_typed_failure_contract() {
        let spec = fault_fuzz_spec();
        let plan = FaultPlan::new().with(FaultKind::PanicInCell, 0, true);
        assert_eq!(check_plan(&spec, &plan), Ok(()));
    }
}
