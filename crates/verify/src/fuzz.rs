//! A deterministic, seeded workload fuzzer.
//!
//! Each case is a random instruction mix — ALU ops, multiplies, divides,
//! loads, stores, fences, predictable and data-dependent branches —
//! wrapped in a counted loop over a random data table. Every case runs
//! through the counter-vs-trace differential
//! ([`verify_workload`](crate::differential::verify_workload)); a case
//! whose divergence escapes the derived bound is *shrunk* greedily
//! (halve the iteration count, drop op chunks, drop single ops) to a
//! minimal reproducer before it is reported.
//!
//! Determinism: case `i` of seed `s` is a pure function of the label
//! `icicle-verify/fuzz/{s}/{i}` fed to the vendored proptest
//! [`TestRng`], so a CI failure replays locally from the seed alone.

use std::fmt;

use icicle_boom::BoomSize;
use icicle_campaign::json::Json;
use icicle_campaign::{CellSpec, CoreSelect, Progress, ProgressFn};
use icicle_isa::{ProgramBuilder, Reg};
use icicle_perf::SkipPolicy;
use icicle_pmu::CounterArch;
use icicle_workloads::Workload;
use proptest::test_runner::TestRng;

use crate::differential::{verify_workload_with, CellVerdict};

/// Data-table length (a power of two so the index wraps with one mask).
const TABLE_WORDS: usize = 16;
/// Smallest loop count the shrinker keeps.
const MIN_ITERATIONS: u64 = 4;

/// One element of a fuzzed instruction mix.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FuzzOp {
    /// One of six register ALU ops (add/sub/xor/and/or/shift).
    Alu(u8),
    Mul,
    Div,
    /// A load from data-table slot `n % TABLE_WORDS`.
    Load(u8),
    /// A store to data-table slot `n % TABLE_WORDS`.
    Store(u8),
    /// A branch whose direction follows random table bits — the
    /// mispredict generator.
    FlakyBranch,
    /// A never-taken branch the predictor learns immediately.
    SteadyBranch,
    Fence,
}

impl FuzzOp {
    fn draw(rng: &mut TestRng) -> FuzzOp {
        match rng.next_u64() % 16 {
            0..=4 => FuzzOp::Alu((rng.next_u64() % 6) as u8),
            5 => FuzzOp::Mul,
            6 => FuzzOp::Div,
            7 | 8 => FuzzOp::Load((rng.next_u64() % TABLE_WORDS as u64) as u8),
            9 | 10 => FuzzOp::Store((rng.next_u64() % TABLE_WORDS as u64) as u8),
            11..=13 => FuzzOp::FlakyBranch,
            14 => FuzzOp::SteadyBranch,
            _ => FuzzOp::Fence,
        }
    }

    fn name(self) -> String {
        match self {
            FuzzOp::Alu(k) => format!("alu{k}"),
            FuzzOp::Mul => "mul".to_string(),
            FuzzOp::Div => "div".to_string(),
            FuzzOp::Load(s) => format!("load{s}"),
            FuzzOp::Store(s) => format!("store{s}"),
            FuzzOp::FlakyBranch => "flaky-branch".to_string(),
            FuzzOp::SteadyBranch => "steady-branch".to_string(),
            FuzzOp::Fence => "fence".to_string(),
        }
    }
}

/// One generated (or shrunk) fuzz case.
#[derive(Clone, PartialEq, Debug)]
pub struct FuzzCase {
    /// The fuzzer seed this case came from.
    pub seed: u64,
    /// Case index under that seed.
    pub index: u64,
    /// Loop body.
    pub ops: Vec<FuzzOp>,
    /// Loop count.
    pub iterations: u64,
    /// The random data table (drives loads and flaky branches).
    pub table: Vec<u64>,
}

impl FuzzCase {
    /// Case `index` of `seed` — a pure function of both.
    pub fn generate(seed: u64, index: u64) -> FuzzCase {
        let mut rng = TestRng::deterministic(&format!("icicle-verify/fuzz/{seed}/{index}"));
        let iterations = MIN_ITERATIONS + rng.next_u64() % 61;
        let len = 1 + (rng.next_u64() % 24) as usize;
        let ops = (0..len).map(|_| FuzzOp::draw(&mut rng)).collect();
        let table = (0..TABLE_WORDS).map(|_| rng.next_u64()).collect();
        FuzzCase {
            seed,
            index,
            ops,
            iterations,
            table,
        }
    }

    /// A compact human-readable description for reports.
    pub fn describe(&self) -> String {
        let ops: Vec<String> = self.ops.iter().map(|op| op.name()).collect();
        format!(
            "seed {} case {}: {} iterations × [{}]",
            self.seed,
            self.index,
            self.iterations,
            ops.join(", ")
        )
    }

    /// Builds the case into a runnable workload.
    pub fn workload(&self) -> Workload {
        let name = format!("fuzz-{}-{}", self.seed, self.index);
        let mut b = ProgramBuilder::new(&name);
        let base = b.data_u64(&self.table) as i64;
        // A0 accumulator, S0 loop counter, S1 table base, S2 table
        // index, T5 a nonzero divisor, T0/T1 ALU dataflow.
        b.li(Reg::A0, 0);
        b.li(Reg::S0, self.iterations as i64);
        b.li(Reg::S1, base);
        b.li(Reg::S2, 0);
        b.li(Reg::T5, 7);
        b.li(Reg::T0, 0x1234);
        b.li(Reg::T1, 0x5678);
        b.label("loop");
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                FuzzOp::Alu(0) => b.add(Reg::T0, Reg::T0, Reg::T1),
                FuzzOp::Alu(1) => b.sub(Reg::T1, Reg::T1, Reg::T0),
                FuzzOp::Alu(2) => b.xor(Reg::T1, Reg::T0, Reg::T1),
                FuzzOp::Alu(3) => b.and(Reg::T0, Reg::T0, Reg::T1),
                FuzzOp::Alu(4) => b.or(Reg::T1, Reg::T1, Reg::T0),
                FuzzOp::Alu(_) => b.slli(Reg::T0, Reg::T0, 1),
                FuzzOp::Mul => b.mul(Reg::T1, Reg::T0, Reg::T1),
                FuzzOp::Div => b.div(Reg::T1, Reg::T0, Reg::T5),
                FuzzOp::Load(slot) => {
                    b.ld(Reg::T0, Reg::S1, (*slot as usize % TABLE_WORDS * 8) as i64)
                }
                FuzzOp::Store(slot) => {
                    b.sd(Reg::T0, Reg::S1, (*slot as usize % TABLE_WORDS * 8) as i64)
                }
                FuzzOp::FlakyBranch => {
                    let skip = format!("skip{i}");
                    // Pick a table word by the rotating index, test one
                    // random bit of it: a data-dependent direction.
                    b.slli(Reg::T2, Reg::S2, 3);
                    b.add(Reg::T2, Reg::S1, Reg::T2);
                    b.ld(Reg::T2, Reg::T2, 0);
                    b.srli(Reg::T2, Reg::T2, (i % 8) as i64);
                    b.andi(Reg::T2, Reg::T2, 1);
                    b.beq(Reg::T2, Reg::ZERO, &skip);
                    b.addi(Reg::A0, Reg::A0, 1);
                    b.label(&skip)
                }
                FuzzOp::SteadyBranch => {
                    let skip = format!("skip{i}");
                    b.bne(Reg::ZERO, Reg::ZERO, &skip);
                    b.label(&skip)
                }
                FuzzOp::Fence => b.fence(),
            };
        }
        b.addi(Reg::S2, Reg::S2, 1);
        b.andi(Reg::S2, Reg::S2, TABLE_WORDS as i64 - 1);
        b.addi(Reg::S0, Reg::S0, -1);
        b.bne(Reg::S0, Reg::ZERO, "loop");
        b.halt();
        let program = b.build().expect("fuzz cases always build");
        let budget = self.iterations * (self.ops.len() as u64 * 8 + 16) + 64;
        Workload::new(name, program, budget)
    }

    /// Shrink candidates, most aggressive first.
    fn candidates(&self) -> Vec<FuzzCase> {
        let mut out = Vec::new();
        if self.iterations > MIN_ITERATIONS {
            let mut c = self.clone();
            c.iterations = MIN_ITERATIONS.max(self.iterations / 2);
            out.push(c);
        }
        let n = self.ops.len();
        if n > 1 {
            let halves = vec![self.ops[n / 2..].to_vec(), self.ops[..n / 2].to_vec()];
            for ops in halves {
                let mut c = self.clone();
                c.ops = ops;
                out.push(c);
            }
            for i in 0..n {
                let mut c = self.clone();
                c.ops.remove(i);
                out.push(c);
            }
        }
        out
    }
}

/// Knobs of one fuzzing run.
pub struct FuzzOptions {
    /// Cases to generate.
    pub cases: u64,
    /// The master seed.
    pub seed: u64,
    /// Core every case runs on (superscalar by default — the regime
    /// where the two models can actually disagree).
    pub core: CoreSelect,
    /// Counter architecture under test.
    pub arch: CounterArch,
    /// Replace the derived bound with a flat fraction.
    pub flat_bound: Option<f64>,
    /// Per-case cycle budget.
    pub max_cycles: u64,
    /// Optional live progress callback.
    pub progress: Option<Box<ProgressFn>>,
    /// Cycle-skipping policy for every case; `None` (the default) defers
    /// to the ambient [`SkipPolicy::resolve`].
    pub skip: Option<SkipPolicy>,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            cases: 200,
            seed: 0,
            core: CoreSelect::Boom(BoomSize::Medium),
            arch: CounterArch::AddWires,
            flat_bound: None,
            max_cycles: 2_000_000,
            progress: None,
            skip: None,
        }
    }
}

/// A case that escaped its bound, with its minimal reproducer.
#[derive(Clone, Debug)]
pub struct FuzzDivergence {
    /// The original case.
    pub case: FuzzCase,
    /// The shrunk minimal reproducer (== `case` if nothing smaller
    /// still diverges).
    pub shrunk: FuzzCase,
    /// Successful shrink steps applied.
    pub shrink_steps: u32,
    /// The worst class of the shrunk reproducer.
    pub worst_class: String,
    /// Its divergence and bound.
    pub divergence: f64,
    pub bound: f64,
}

/// The outcome of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    pub seed: u64,
    pub cases: u64,
    /// Cases that failed to run at all, as `(description, error)`.
    pub errors: Vec<(String, String)>,
    /// Cases whose divergence escaped the bound, shrunk.
    pub divergences: Vec<FuzzDivergence>,
    /// The largest bound-consumption ratio seen across passing cases.
    pub max_ratio: f64,
    /// Which case produced it.
    pub max_ratio_case: String,
}

impl FuzzReport {
    /// Zero divergences and zero errors.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty() && self.errors.is_empty()
    }

    /// The canonical JSON report (the CI artifact).
    pub fn to_json(&self) -> String {
        let json = Json::object(vec![
            ("seed", Json::Int(self.seed)),
            ("cases", Json::Int(self.cases)),
            ("passed", Json::Bool(self.passed())),
            ("max_ratio", Json::Num(self.max_ratio)),
            ("max_ratio_case", Json::Str(self.max_ratio_case.clone())),
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
                                ("class", Json::Str(d.worst_class.clone())),
                                ("divergence", Json::Num(d.divergence)),
                                ("bound", Json::Num(d.bound)),
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
        let mut out = json.render();
        out.push('\n');
        out
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzz seed {}: {} cases, {} divergences, {} errors",
            self.seed,
            self.cases,
            self.divergences.len(),
            self.errors.len()
        )?;
        if !self.max_ratio_case.is_empty() {
            writeln!(
                f,
                "  tightest passing case consumed {:.0}% of its bound ({})",
                100.0 * self.max_ratio,
                self.max_ratio_case
            )?;
        }
        for d in &self.divergences {
            writeln!(
                f,
                "  DIVERGED after {} shrink steps: {} — {} diverges {:.6} > bound {:.6}",
                d.shrink_steps,
                d.shrunk.describe(),
                d.worst_class,
                d.divergence,
                d.bound
            )?;
        }
        for (case, error) in &self.errors {
            writeln!(f, "  ERROR {case}: {error}")?;
        }
        Ok(())
    }
}

fn check(case: &FuzzCase, options: &FuzzOptions) -> Result<CellVerdict, String> {
    let workload = case.workload();
    let cell = CellSpec {
        workload: workload.name().to_string(),
        core: options.core,
        arch: options.arch,
        seed: case.seed,
        repeat: 0,
        max_cycles: options.max_cycles,
    };
    verify_workload_with(&workload, &cell, options.flat_bound, options.skip)
}

/// Greedily shrinks a diverging case: keeps any candidate that still
/// diverges, until no candidate does (or 200 attempts have been spent).
/// Returns the reproducer and the number of successful shrink steps.
pub fn shrink(case: &FuzzCase, options: &FuzzOptions) -> (FuzzCase, u32) {
    icicle_faults::shrink(
        case.clone(),
        FuzzCase::candidates,
        |c| matches!(check(c, options), Ok(v) if !v.passed()),
        Some(200),
    )
}

/// Runs `options.cases` seeded cases through the differential, shrinking
/// any divergence to a minimal reproducer.
pub fn run_fuzz(options: &FuzzOptions) -> FuzzReport {
    let mut report = FuzzReport {
        seed: options.seed,
        cases: options.cases,
        ..FuzzReport::default()
    };
    let mut done = Progress {
        total: options.cases as usize,
        ..Progress::default()
    };
    for index in 0..options.cases {
        let case = FuzzCase::generate(options.seed, index);
        match check(&case, options) {
            Err(error) => {
                report.errors.push((case.describe(), error));
                done.failed += 1;
            }
            Ok(verdict) if verdict.passed() => {
                if verdict.worst_ratio() > report.max_ratio {
                    report.max_ratio = verdict.worst_ratio();
                    report.max_ratio_case = case.describe();
                }
                done.simulated += 1;
            }
            Ok(verdict) => {
                let (shrunk, shrink_steps) = shrink(&case, options);
                // Re-measure the reproducer for its exact numbers (the
                // original verdict if shrinking went nowhere).
                let worst = match check(&shrunk, options) {
                    Ok(v) => v,
                    Err(_) => verdict,
                };
                let class = worst.worst();
                report.divergences.push(FuzzDivergence {
                    case,
                    shrunk,
                    shrink_steps,
                    worst_class: class.name.to_string(),
                    divergence: class.divergence(),
                    bound: class.bound,
                });
                done.failed += 1;
            }
        }
        if let Some(progress) = &options.progress {
            progress(done);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_pure_functions_of_seed_and_index() {
        assert_eq!(FuzzCase::generate(7, 3), FuzzCase::generate(7, 3));
        assert_ne!(FuzzCase::generate(7, 3), FuzzCase::generate(7, 4));
        assert_ne!(FuzzCase::generate(7, 3), FuzzCase::generate(8, 3));
    }

    #[test]
    fn every_op_kind_builds_and_runs() {
        let case = FuzzCase {
            seed: 0,
            index: 0,
            ops: vec![
                FuzzOp::Alu(0),
                FuzzOp::Alu(5),
                FuzzOp::Mul,
                FuzzOp::Div,
                FuzzOp::Load(3),
                FuzzOp::Store(5),
                FuzzOp::FlakyBranch,
                FuzzOp::SteadyBranch,
                FuzzOp::Fence,
            ],
            iterations: 8,
            table: (0..TABLE_WORDS as u64).map(|i| i * 0x9e37).collect(),
        };
        let verdict = check(&case, &FuzzOptions::default()).unwrap();
        assert!(verdict.passed(), "worst {:?}", verdict.worst());
    }

    #[test]
    fn a_short_seeded_run_finds_no_divergence() {
        let report = run_fuzz(&FuzzOptions {
            cases: 5,
            seed: 42,
            ..FuzzOptions::default()
        });
        assert!(report.passed(), "{report}");
        assert!(report.max_ratio > 0.0);
        assert!(report.to_json().contains("\"passed\": true"));
    }

    #[test]
    fn the_shrinker_minimizes_a_forced_divergence() {
        // An impossible flat bound makes every case diverge, so the
        // greedy shrinker must reach the floor: one op, minimum
        // iterations.
        let options = FuzzOptions {
            flat_bound: Some(1e-15),
            ..FuzzOptions::default()
        };
        let case = FuzzCase::generate(1, 0);
        assert!(case.ops.len() > 1, "want a shrinkable case");
        let (shrunk, steps) = shrink(&case, &options);
        assert!(steps > 0);
        assert_eq!(shrunk.ops.len(), 1);
        assert_eq!(shrunk.iterations, MIN_ITERATIONS);
        assert!(matches!(check(&shrunk, &options), Ok(v) if !v.passed()));
    }
}
