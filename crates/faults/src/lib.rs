//! # icicle-faults
//!
//! Deterministic fault injection for the campaign/verify pipeline.
//!
//! Simulation frameworks earn trust by making every failure mode a
//! first-class, injectable, recoverable event. This crate supplies the
//! injectable half: a [`FaultPlan`] is a seed-pure schedule of faults
//! (which cell panics, which runs past its budget, which cache entry
//! gets corrupted, …), and a [`FaultInjector`] is its runtime arm —
//! the campaign runner consults it at well-defined hook points.
//!
//! Two properties the resilience tests lean on:
//!
//! * **Seed purity** — [`FaultPlan::generate`] is a pure function of
//!   `(seed, cells)`; the same seed always yields the same schedule, so
//!   a failing plan found by the fault fuzzer reproduces exactly.
//! * **Attempt awareness** — a [`PlannedFault`] can be *transient*
//!   (fires on the first attempt only, so bounded retry recovers it) or
//!   *persistent* (fires on every attempt, so the cell must degrade
//!   into a structured failure).
//!
//! The crate is dependency-free and knows nothing about cores or
//! campaigns; the runner interprets each [`FaultKind`] at its own hook
//! point. It also owns the workspace's one greedy [`shrink`] loop, which
//! every fuzzer uses to reduce a failing case to a minimal reproducer.

pub mod net;

use std::fmt;
use std::sync::Mutex;

/// The cycle budget a [`FaultKind::SlowCell`] fault clamps a cell to —
/// far below any real workload's runtime, so the watchdog genuinely
/// trips.
pub const SLOW_CELL_BUDGET: u64 = 64;

/// Every injectable failure mode.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// The worker panics mid-cell (a broken model invariant, an
    /// out-of-bounds index, …).
    PanicInCell,
    /// The cell's cycle budget is clamped to [`SLOW_CELL_BUDGET`], so
    /// the run genuinely exceeds it — an infinite-loop stand-in.
    SlowCell,
    /// The cell's on-disk cache entry is truncated right after it is
    /// written (disk-full, power loss).
    CorruptCacheEntry,
    /// The checkpoint log is truncated mid-record after this cell
    /// checkpoints (a `SIGKILL` between write and flush).
    TruncatedReport,
    /// The cell's result slot mutex is poisoned by a panicking thread
    /// before the worker stores into it.
    PoisonedLock,
}

impl FaultKind {
    /// Every kind, in canonical order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::PanicInCell,
        FaultKind::SlowCell,
        FaultKind::CorruptCacheEntry,
        FaultKind::TruncatedReport,
        FaultKind::PoisonedLock,
    ];

    /// The kebab-case name used in reports and plan descriptions.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::PanicInCell => "panic-in-cell",
            FaultKind::SlowCell => "slow-cell",
            FaultKind::CorruptCacheEntry => "corrupt-cache-entry",
            FaultKind::TruncatedReport => "truncated-report",
            FaultKind::PoisonedLock => "poisoned-lock",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled fault.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct PlannedFault {
    /// What goes wrong.
    pub kind: FaultKind,
    /// The grid index of the targeted cell.
    pub cell: usize,
    /// `true` fires on every attempt (retry cannot save the cell);
    /// `false` fires on the first attempt only (retry recovers it).
    pub persistent: bool,
}

impl PlannedFault {
    /// Whether this fault fires for `(cell, attempt)` (attempts count
    /// from 1).
    pub fn fires(&self, cell: usize, attempt: u32) -> bool {
        self.cell == cell && (self.persistent || attempt <= 1)
    }
}

impl fmt::Display for PlannedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ cell {}{}",
            self.kind,
            self.cell,
            if self.persistent {
                " (persistent)"
            } else {
                " (transient)"
            }
        )
    }
}

/// A deterministic, seed-pure schedule of faults over a campaign grid.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// The scheduled faults.
    pub faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// An empty plan (nothing fires).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder-style append.
    pub fn with(mut self, kind: FaultKind, cell: usize, persistent: bool) -> FaultPlan {
        self.faults.push(PlannedFault {
            kind,
            cell,
            persistent,
        });
        self
    }

    /// Generates a plan for a `cells`-cell grid — a pure function of
    /// `(seed, cells)`. Draws between 1 and `min(cells, 4)` faults with
    /// kinds, targets, and persistence all derived from the seed
    /// stream; an empty grid yields an empty plan.
    pub fn generate(seed: u64, cells: usize) -> FaultPlan {
        let mut plan = FaultPlan {
            seed,
            faults: Vec::new(),
        };
        if cells == 0 {
            return plan;
        }
        let mut stream = SplitMix64::new(seed ^ 0x6663_7429_4661_756c); // "fctr)Faul"-ish tag
        let count = 1 + (stream.next() as usize % cells.min(4));
        for _ in 0..count {
            let kind = FaultKind::ALL[stream.next() as usize % FaultKind::ALL.len()];
            let cell = stream.next() as usize % cells;
            let persistent = stream.next().is_multiple_of(2);
            let fault = PlannedFault {
                kind,
                cell,
                persistent,
            };
            if !plan.faults.contains(&fault) {
                plan.faults.push(fault);
            }
        }
        plan
    }

    /// A one-line-per-fault human description.
    pub fn describe(&self) -> String {
        if self.faults.is_empty() {
            return format!("fault plan (seed {}): empty\n", self.seed);
        }
        let mut out = format!(
            "fault plan (seed {}): {} fault(s)\n",
            self.seed,
            self.faults.len()
        );
        for f in &self.faults {
            out.push_str(&format!("  {f}\n"));
        }
        out
    }

    /// A plan with fault `index` removed — the fuzzer's shrink step.
    pub fn without(&self, index: usize) -> FaultPlan {
        let mut shrunk = self.clone();
        if index < shrunk.faults.len() {
            shrunk.faults.remove(index);
        }
        shrunk
    }
}

/// The runtime arm of a [`FaultPlan`]: the campaign runner asks it, at
/// each hook point, whether a fault fires for `(cell, attempt)`, and it
/// keeps a log of everything that fired (for the `faults` subcommand's
/// audit output).
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    fired: Mutex<Vec<String>>,
}

impl FaultInjector {
    /// An injector armed with `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            fired: Mutex::new(Vec::new()),
        }
    }

    /// The plan this injector is armed with.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn armed(&self, kind: FaultKind, cell: usize, attempt: u32) -> bool {
        let fires = self
            .plan
            .faults
            .iter()
            .any(|f| f.kind == kind && f.fires(cell, attempt));
        if fires {
            self.fired
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(format!("{kind} @ cell {cell} attempt {attempt}"));
            icicle_obs::event_with(icicle_obs::Level::Warn, "fault.fired", || {
                vec![
                    ("kind", kind.name().into()),
                    ("cell", cell.into()),
                    ("attempt", attempt.into()),
                ]
            });
        }
        fires
    }

    /// Panics (to be caught by the worker's supervision) if a
    /// [`FaultKind::PanicInCell`] fault fires here.
    pub fn maybe_panic(&self, cell: usize, attempt: u32) {
        if self.armed(FaultKind::PanicInCell, cell, attempt) {
            panic!("injected fault: panic in cell {cell} (attempt {attempt})");
        }
    }

    /// The clamped cycle budget, if a [`FaultKind::SlowCell`] fault
    /// fires here.
    pub fn cycle_budget_override(&self, cell: usize, attempt: u32) -> Option<u64> {
        self.armed(FaultKind::SlowCell, cell, attempt)
            .then_some(SLOW_CELL_BUDGET)
    }

    /// Whether to truncate the cell's just-written cache entry.
    pub fn should_corrupt_cache(&self, cell: usize, attempt: u32) -> bool {
        self.armed(FaultKind::CorruptCacheEntry, cell, attempt)
    }

    /// Whether to truncate the checkpoint log after this cell records.
    pub fn should_truncate_report(&self, cell: usize, attempt: u32) -> bool {
        self.armed(FaultKind::TruncatedReport, cell, attempt)
    }

    /// Whether to poison the cell's result-slot lock before the store.
    pub fn should_poison_lock(&self, cell: usize, attempt: u32) -> bool {
        self.armed(FaultKind::PoisonedLock, cell, attempt)
    }

    /// Everything that fired so far, sorted (worker interleaving makes
    /// the raw log order nondeterministic).
    pub fn fired(&self) -> Vec<String> {
        let mut log = self
            .fired
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        log.sort();
        log
    }
}

/// SplitMix64 over a counter — the same generator family the campaign
/// uses for data seeds, kept local so this crate stays dependency-free.
#[derive(Copy, Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Greedy shrinking, shared by every fuzzer in the workspace: starting
/// from a failing `case`, move to the first of `candidates(&current)`
/// that `still_fails`, and repeat from there until no candidate fails —
/// or until `budget` candidates in total have been tried. Returns the
/// reproducer and the number of successful steps.
///
/// The walk is deterministic: the reproducer depends only on the
/// candidate order and the failure predicate.
pub fn shrink<T>(
    case: T,
    candidates: impl Fn(&T) -> Vec<T>,
    mut still_fails: impl FnMut(&T) -> bool,
    budget: Option<u32>,
) -> (T, u32) {
    let mut current = case;
    let mut steps = 0u32;
    let mut attempts = 0u32;
    'outer: loop {
        for candidate in candidates(&current) {
            attempts += 1;
            if budget.is_some_and(|b| attempts > b) {
                break 'outer;
            }
            if still_fails(&candidate) {
                current = candidate;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Halving and decrementing candidates, in that order.
    fn smaller(n: &u32) -> Vec<u32> {
        [n / 2, n.saturating_sub(1)]
            .into_iter()
            .filter(|c| c < n)
            .collect()
    }

    #[test]
    fn shrink_walks_to_the_smallest_failing_case() {
        // Fails for every value of at least 37: 100 → 50 → 49 → … → 37.
        let (minimal, steps) = shrink(100, smaller, |n| *n >= 37, None);
        assert_eq!(minimal, 37);
        assert_eq!(steps, 1 + 13);
    }

    #[test]
    fn shrink_stops_at_the_attempt_budget() {
        let mut tried = 0;
        let (stopped, steps) = shrink(
            100,
            smaller,
            |n| {
                tried += 1;
                *n >= 37
            },
            Some(3),
        );
        // Attempts: 50 (kept), 25 (rejected), 49 (kept); the fourth is
        // over budget.
        assert_eq!((stopped, steps, tried), (49, 2, 3));
    }

    #[test]
    fn generation_is_seed_pure() {
        for seed in 0..32 {
            assert_eq!(FaultPlan::generate(seed, 6), FaultPlan::generate(seed, 6));
        }
    }

    #[test]
    fn different_seeds_yield_different_plans() {
        let plans: Vec<FaultPlan> = (0..16).map(|s| FaultPlan::generate(s, 8)).collect();
        let distinct = plans
            .iter()
            .filter(|p| plans.iter().filter(|q| q == p).count() == 1)
            .count();
        assert!(distinct >= 8, "only {distinct} of 16 plans were distinct");
    }

    #[test]
    fn generated_targets_stay_in_range() {
        for seed in 0..64 {
            let plan = FaultPlan::generate(seed, 5);
            assert!(!plan.faults.is_empty());
            assert!(plan.faults.len() <= 4);
            assert!(plan.faults.iter().all(|f| f.cell < 5));
        }
        assert!(FaultPlan::generate(7, 0).faults.is_empty());
    }

    #[test]
    fn every_kind_is_eventually_generated() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..256 {
            for f in FaultPlan::generate(seed, 4).faults {
                seen.insert(f.kind);
            }
        }
        for kind in FaultKind::ALL {
            assert!(seen.contains(&kind), "{kind} never generated");
        }
    }

    #[test]
    fn transient_faults_fire_only_on_the_first_attempt() {
        let plan = FaultPlan::new().with(FaultKind::PanicInCell, 2, false);
        let f = plan.faults[0];
        assert!(f.fires(2, 1));
        assert!(!f.fires(2, 2));
        assert!(!f.fires(1, 1));
        let persistent = PlannedFault {
            persistent: true,
            ..f
        };
        assert!(persistent.fires(2, 1) && persistent.fires(2, 7));
    }

    #[test]
    fn injector_logs_what_fired() {
        let plan = FaultPlan::new().with(FaultKind::SlowCell, 0, true).with(
            FaultKind::CorruptCacheEntry,
            1,
            false,
        );
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.cycle_budget_override(0, 1), Some(SLOW_CELL_BUDGET));
        assert_eq!(inj.cycle_budget_override(3, 1), None);
        assert!(inj.should_corrupt_cache(1, 1));
        assert!(!inj.should_corrupt_cache(1, 2), "transient: one shot only");
        let fired = inj.fired();
        assert_eq!(fired.len(), 2);
        assert!(fired.iter().any(|l| l.contains("slow-cell")));
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_injection_panics() {
        let inj = FaultInjector::new(FaultPlan::new().with(FaultKind::PanicInCell, 0, true));
        inj.maybe_panic(0, 1);
    }

    #[test]
    fn shrink_removes_one_fault() {
        let plan = FaultPlan::generate(3, 6);
        let n = plan.faults.len();
        let shrunk = plan.without(0);
        assert_eq!(shrunk.faults.len(), n - 1);
        assert_eq!(plan.without(99).faults.len(), n);
    }

    #[test]
    fn describe_names_every_fault() {
        let plan = FaultPlan::new().with(FaultKind::TruncatedReport, 3, true);
        let text = plan.describe();
        assert!(
            text.contains("truncated-report @ cell 3 (persistent)"),
            "{text}"
        );
        assert!(FaultPlan::new().describe().contains("empty"));
    }
}
