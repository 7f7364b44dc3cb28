//! The parallel, fault-tolerant campaign runner.
//!
//! Jobs (grid cells) go into a shared queue; a `std::thread` worker pool
//! drains it. Four properties the rest of the stack relies on:
//!
//! * **Determinism** — each job's inputs are a pure function of its
//!   [`CellSpec`] (the workload-data seed is derived by
//!   [`crate::fingerprint::data_seed`], never from global state), and
//!   results are written into a slot indexed by the cell's grid
//!   position. Retry backoff is a pure function of the cell fingerprint
//!   and the attempt number. The aggregate report is therefore
//!   byte-identical whether the campaign runs on 1 thread or 64, and
//!   regardless of how the scheduler interleaves workers.
//! * **Caching** — before simulating, a worker consults the
//!   [`ResultCache`] under the cell's fingerprint; hits skip simulation
//!   entirely. A campaign re-run over an unchanged grid does zero
//!   simulations. With a [`CheckpointLog`] attached, completed cells
//!   are also journalled so `--resume` re-runs only unfinished ones.
//! * **Isolation** — every cell is supervised: the simulation runs
//!   under [`std::panic::catch_unwind`], so a panicking worker costs
//!   the campaign exactly one cell (recorded as a typed
//!   [`CellError::Panicked`] failure), and every lock on the path
//!   recovers from poison instead of cascading.
//! * **Supervision** — retryable failures (panics, tripped watchdogs)
//!   get up to `retries` extra attempts with deterministic backoff; the
//!   attempt count lands in the report. In fail-fast mode
//!   (`keep_going: false`) the first failure cancels the queue and the
//!   cells that never ran are reported as skipped, not lost.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use icicle_faults::FaultInjector;
use icicle_obs::{self as obs, MetricsRegistry};
use icicle_perf::{Perf, PerfOptions, SkipPolicy};
use icicle_soc::{SocJobs, SocMix};
use icicle_workloads as workloads;

use crate::cache::{Lease, ResultCache};
use crate::checkpoint::CheckpointLog;
use crate::error::CellError;
use crate::fingerprint::{data_seed, fingerprint, mix_seed, Fingerprint};
use crate::report::{CampaignReport, CellFailure, CellResult, Incident, RunStats};
use crate::spec::{CampaignSpec, CellSpec, CoreSelect};
use crate::sync::{into_inner_unpoisoned, lock_unpoisoned, wait_unpoisoned};

/// Scheduling priority of one submitted job.
///
/// Three bands are enough for the analysis server's policy (interactive
/// verifies ahead of bulk sweeps) without turning the queue into a full
/// priority heap; within a band, FIFO order is preserved, which is what
/// keeps the campaign runner's accounting and determinism tests stable.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Priority {
    /// Drained before everything else (interactive clients).
    High,
    /// The default band; plain [`JobQueue::push`] lands here.
    #[default]
    Normal,
    /// Drained only when the other bands are empty (bulk sweeps).
    Low,
}

impl Priority {
    /// Band index: 0 is drained first.
    fn band(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// The wire name (`high` / `normal` / `low`) used by the service
    /// API and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire name produced by [`Priority::name`].
    pub fn from_name(name: &str) -> Option<Priority> {
        match name {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// A blocking multi-producer multi-consumer queue of job indices
/// (`Mutex<VecDeque>` + condvar — the workspace stays dependency-free),
/// with three FIFO priority bands (see [`Priority`]).
///
/// The campaign runner fills it up front and closes it, but the
/// blocking-pop shape means a streaming producer (the analysis server's
/// scheduler, a spec arriving over a socket) plugs in without touching
/// the workers.
///
/// The queue also carries the runner's accounting contract: it counts
/// every submission, so after a run the caller can assert that each
/// submitted job produced exactly one outcome — drained, cancelled, or
/// failed, never silently lost.
#[derive(Debug, Default)]
pub struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct QueueState {
    /// One FIFO per band, indexed by [`Priority::band`].
    bands: [VecDeque<usize>; 3],
    closed: bool,
    submitted: usize,
}

impl JobQueue {
    /// An empty, open queue.
    pub fn new() -> JobQueue {
        JobQueue::default()
    }

    /// Enqueues one job index at [`Priority::Normal`].
    ///
    /// # Panics
    ///
    /// Panics if the queue is already closed.
    pub fn push(&self, job: usize) {
        self.push_with_priority(job, Priority::Normal);
    }

    /// Enqueues one job index into the band for `priority`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is already closed.
    pub fn push_with_priority(&self, job: usize, priority: Priority) {
        let mut state = lock_unpoisoned(&self.state);
        assert!(!state.closed, "push into a closed JobQueue");
        state.bands[priority.band()].push_back(job);
        state.submitted += 1;
        drop(state);
        self.ready.notify_one();
    }

    /// Marks the queue complete: workers drain what remains, then stop.
    pub fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        self.ready.notify_all();
    }

    /// Cancels the queue (fail-fast): closes it *and* drains the jobs
    /// that have not been popped yet, returning them so the caller can
    /// record a skipped outcome for each — cancellation must not leave
    /// submitted jobs unaccounted for. Jobs come back in drain order
    /// (high band first, FIFO within a band).
    pub fn cancel(&self) -> Vec<usize> {
        let mut state = lock_unpoisoned(&self.state);
        state.closed = true;
        let mut cancelled = Vec::new();
        for band in &mut state.bands {
            cancelled.extend(band.drain(..));
        }
        drop(state);
        self.ready.notify_all();
        cancelled
    }

    /// Jobs ever submitted via [`JobQueue::push`] /
    /// [`JobQueue::push_with_priority`].
    pub fn submitted(&self) -> usize {
        lock_unpoisoned(&self.state).submitted
    }

    /// Jobs currently queued (not yet popped), across all bands.
    pub fn queued(&self) -> usize {
        let state = lock_unpoisoned(&self.state);
        state.bands.iter().map(VecDeque::len).sum()
    }

    /// Blocks for the next job (highest non-empty band first); `None`
    /// once the queue is closed and empty.
    pub fn pop(&self) -> Option<usize> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            if let Some(job) = state.bands.iter_mut().find_map(VecDeque::pop_front) {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = wait_unpoisoned(&self.ready, state);
        }
    }
}

/// Live progress counters, updated as cells finish.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Progress {
    /// Cells in the campaign.
    pub total: usize,
    /// Cells finished by simulation.
    pub simulated: usize,
    /// Cells served from the cache.
    pub cached: usize,
    /// Cells skipped because a checkpoint (plus cache entry) proved
    /// them complete in an earlier run.
    pub resumed: usize,
    /// Cells that failed.
    pub failed: usize,
    /// Cells cancelled by fail-fast before they ran.
    pub skipped: usize,
}

impl Progress {
    /// Cells accounted for so far.
    pub fn done(&self) -> usize {
        self.simulated + self.cached + self.resumed + self.failed + self.skipped
    }
}

/// A progress observer: called after every finished cell, from worker
/// threads.
pub type ProgressFn = dyn Fn(Progress) + Send + Sync;

/// Knobs of one campaign run.
pub struct RunOptions {
    /// Worker threads (clamped to ≥ 1).
    pub jobs: usize,
    /// The result cache; `None` disables caching entirely.
    pub cache: Option<Arc<ResultCache>>,
    /// Optional live progress callback.
    pub progress: Option<Box<ProgressFn>>,
    /// Extra attempts granted to retryable failures (panics, tripped
    /// watchdogs). `1` means: one retry after the first failure.
    pub retries: u32,
    /// `true` (the default): a failed cell is recorded and the campaign
    /// continues. `false`: the first failure cancels the queue and the
    /// unstarted cells are reported as skipped.
    pub keep_going: bool,
    /// Completed-cell journal backing `--resume`.
    pub checkpoint: Option<Arc<CheckpointLog>>,
    /// Skip cells the checkpoint proves complete (requires their result
    /// to still be in the cache; otherwise they re-run normally).
    pub resume: bool,
    /// Deterministic fault-injection plan, exercised by the `faults`
    /// subcommand and the resilience test-suite.
    pub faults: Option<Arc<FaultInjector>>,
    /// Metrics registry for this run's counters (cells by provenance,
    /// cache hits/misses, retries, checkpoint writes, a cell-cycles
    /// histogram). `None` (the default) records nothing. Every recorded
    /// quantity is deterministic, so a snapshot is byte-identical at any
    /// `jobs` count.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Cooperative cancellation: when the flag flips to `true`, workers
    /// stop picking up new cells and every cell that has not run yet is
    /// reported as skipped (the same accounting fail-fast uses). Cells
    /// already simulating finish normally — the runner never tears down
    /// a simulation mid-flight. `None` (the default) means the run is
    /// not cancellable.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Cycle-skipping policy for every simulated cell; `None` (the
    /// default) defers to the ambient [`SkipPolicy::resolve`]. The policy
    /// never enters the cell fingerprint: both modes produce bit-identical
    /// results, so cached entries are interchangeable across modes.
    pub skip: Option<SkipPolicy>,
    /// Execution engine for multi-core (SoC) cells; `None` (the default)
    /// defers to the ambient [`SocJobs::resolve`]. Like `skip`, the
    /// engine never enters the cell fingerprint: lockstep and parallel
    /// runs produce byte-identical results at any thread count, so
    /// cached entries are interchangeable across engines.
    pub soc_jobs: Option<SocJobs>,
    /// Directory for flight-recorder post-mortem dumps. When set *and*
    /// the recorder is armed *and* a trace context is live, a worker
    /// panic writes `<dir>/<trace>.jsonl` before being folded into a
    /// typed [`CellError::Panicked`]. `None` (the default) never
    /// touches the filesystem.
    pub postmortem_dir: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            jobs: 1,
            cache: Some(Arc::new(ResultCache::in_memory())),
            progress: None,
            retries: 1,
            keep_going: true,
            checkpoint: None,
            resume: false,
            faults: None,
            metrics: None,
            cancel: None,
            skip: None,
            soc_jobs: None,
            postmortem_dir: None,
        }
    }
}

impl RunOptions {
    /// `jobs` workers over a fresh in-memory cache.
    pub fn with_jobs(jobs: usize) -> RunOptions {
        RunOptions {
            jobs,
            ..RunOptions::default()
        }
    }
}

/// How one finished cell came to be.
enum Provenance {
    Simulated,
    Cached,
    Resumed,
}

/// Everything a worker knows about one finished cell.
struct CellOutcome {
    result: Result<CellResult, CellError>,
    provenance: Provenance,
    attempts: u32,
    incidents: Vec<Incident>,
}

/// Runs every cell of `spec` and aggregates the results.
///
/// See the module docs for the determinism / caching / isolation /
/// supervision contract.
pub fn run_campaign(spec: &CampaignSpec, options: &RunOptions) -> CampaignReport {
    let cells = spec.cells();
    let total = cells.len();
    let _run_span = obs::span_with(obs::Level::Info, "campaign.run", || {
        vec![
            ("name", spec.name.as_str().into()),
            ("cells", total.into()),
            ("jobs", options.jobs.max(1).into()),
        ]
    });
    // Worker threads are raw `std::thread`s, so the caller's trace
    // context does not follow them implicitly: capture it here — under
    // the `campaign.run` span, so the hint points at it — and re-enter
    // it in every worker. That is what parents `campaign.cell` spans
    // into the submitting job's tree instead of orphaning them.
    let trace = obs::handoff();
    let queue = JobQueue::new();
    for index in 0..total {
        queue.push(index);
    }
    queue.close();

    let slots: Vec<Mutex<Option<CellOutcome>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let simulated = AtomicUsize::new(0);
    let cached = AtomicUsize::new(0);
    let resumed = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let skipped = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);

    let worker_count = options.jobs.max(1).min(total.max(1));
    std::thread::scope(|scope| {
        for _ in 0..worker_count {
            scope.spawn(|| {
                let _trace = trace.map(obs::enter);
                while let Some(index) = queue.pop() {
                    if options
                        .cancel
                        .as_deref()
                        .is_some_and(|flag| flag.load(Ordering::SeqCst))
                    {
                        // External cancellation: this cell and everything
                        // still queued become skips, reusing the
                        // fail-fast accounting so nothing is lost.
                        cancelled.store(true, Ordering::SeqCst);
                        let mut to_skip = vec![index];
                        to_skip.extend(queue.cancel());
                        for job in to_skip {
                            skipped.fetch_add(1, Ordering::Relaxed);
                            store_outcome(
                                &slots[job],
                                CellOutcome {
                                    result: Err(CellError::Skipped),
                                    provenance: Provenance::Simulated,
                                    attempts: 0,
                                    incidents: Vec::new(),
                                },
                            );
                        }
                        if let Some(report) = &options.progress {
                            report(Progress {
                                total,
                                simulated: simulated.load(Ordering::Relaxed),
                                cached: cached.load(Ordering::Relaxed),
                                resumed: resumed.load(Ordering::Relaxed),
                                failed: failed.load(Ordering::Relaxed),
                                skipped: skipped.load(Ordering::Relaxed),
                            });
                        }
                        continue;
                    }
                    let cell = &cells[index];
                    let _cell_span = obs::span_with(obs::Level::Info, "campaign.cell", || {
                        vec![("cell", cell.label().into()), ("index", index.into())]
                    });
                    let mut outcome = run_one_cell(cell, index, options);
                    if let Some(injector) = options.faults.as_deref() {
                        if injector.should_poison_lock(index, 1) {
                            // Poison the cell's own result-slot mutex
                            // the only way `std::sync` allows — a
                            // panicking holder — then store through it
                            // anyway, proving the recovery path.
                            poison_for_fault(&slots[index]);
                            outcome.incidents.push(Incident {
                                label: cell.label(),
                                kind: "poisoned-lock".to_string(),
                                detail: "result-slot mutex poisoned by a panicking holder; \
                                         recovered via PoisonError::into_inner"
                                    .to_string(),
                            });
                        }
                    }
                    let counter = match (&outcome.result, &outcome.provenance) {
                        (Err(_), _) => &failed,
                        (Ok(_), Provenance::Resumed) => &resumed,
                        (Ok(_), Provenance::Cached) => &cached,
                        (Ok(_), Provenance::Simulated) => &simulated,
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    let failed_cell = outcome.result.is_err();
                    store_outcome(&slots[index], outcome);
                    if failed_cell && !options.keep_going && !cancelled.swap(true, Ordering::SeqCst)
                    {
                        // Fail-fast: cancel the queue and give every
                        // job that never ran a skipped outcome, so the
                        // accounting below still balances.
                        for job in queue.cancel() {
                            skipped.fetch_add(1, Ordering::Relaxed);
                            store_outcome(
                                &slots[job],
                                CellOutcome {
                                    result: Err(CellError::Skipped),
                                    provenance: Provenance::Simulated,
                                    attempts: 0,
                                    incidents: Vec::new(),
                                },
                            );
                        }
                    }
                    if let Some(report) = &options.progress {
                        report(Progress {
                            total,
                            simulated: simulated.load(Ordering::Relaxed),
                            cached: cached.load(Ordering::Relaxed),
                            resumed: resumed.load(Ordering::Relaxed),
                            failed: failed.load(Ordering::Relaxed),
                            skipped: skipped.load(Ordering::Relaxed),
                        });
                    }
                }
            });
        }
    });

    // Every submitted job must have an outcome — drained, retried,
    // failed, or cancelled. A hole here is a runner bug, not a cell
    // failure, so it asserts instead of degrading.
    assert_eq!(queue.submitted(), total, "runner submitted every cell");

    // Aggregate in grid order — the source of byte-identical output.
    let mut report = CampaignReport {
        name: spec.name.clone(),
        cells: Vec::with_capacity(total),
        failures: Vec::new(),
        skipped: Vec::new(),
        incidents: Vec::new(),
        stats: RunStats {
            simulated: simulated.into_inner(),
            cached: cached.into_inner(),
            resumed: resumed.into_inner(),
            failed: failed.into_inner(),
            skipped: skipped.into_inner(),
        },
    };
    let cycles_histogram = options.metrics.as_deref().map(|m| {
        m.histogram(
            "campaign.cell_cycles",
            &[1_000, 10_000, 100_000, 1_000_000, 10_000_000],
        )
    });
    for (slot, cell) in slots.into_iter().zip(&cells) {
        let outcome = into_inner_unpoisoned(slot)
            .expect("every submitted job produced an outcome (runner invariant)");
        match outcome.result {
            Ok(result) => {
                if let Some(histogram) = &cycles_histogram {
                    histogram.observe(result.cycles);
                }
                report.cells.push(result)
            }
            Err(CellError::Skipped) => report.skipped.push(cell.label()),
            Err(error) => report.failures.push(CellFailure {
                label: cell.label(),
                kind: error.kind().to_string(),
                error: error.to_string(),
                attempts: outcome.attempts,
            }),
        }
        report.incidents.extend(outcome.incidents);
    }
    if let Some(metrics) = options.metrics.as_deref() {
        metrics.counter("campaign.cells.total").add(total as u64);
        metrics
            .counter("campaign.cells.simulated")
            .add(report.stats.simulated as u64);
        metrics
            .counter("campaign.cells.cached")
            .add(report.stats.cached as u64);
        metrics
            .counter("campaign.cells.resumed")
            .add(report.stats.resumed as u64);
        metrics
            .counter("campaign.cells.failed")
            .add(report.stats.failed as u64);
        metrics
            .counter("campaign.cells.skipped")
            .add(report.stats.skipped as u64);
    }
    report
}

/// Stores an outcome into its slot, recovering the lock if an injected
/// fault (or a real bug) poisoned it.
fn store_outcome(slot: &Mutex<Option<CellOutcome>>, outcome: CellOutcome) {
    *lock_unpoisoned(slot) = Some(outcome);
}

/// Produces the outcome for one cell: resume check, cache check, then
/// supervised simulation with bounded retry.
fn run_one_cell(cell: &CellSpec, index: usize, options: &RunOptions) -> CellOutcome {
    let fp = fingerprint(cell);
    let mut incidents = Vec::new();

    // Resume: a checkpointed cell whose result is still cached is
    // complete — skip even the cache-provenance bookkeeping of a
    // normal warm hit. A checkpointed cell whose cache entry rotted
    // falls through and re-runs: the checkpoint is a journal, not a
    // substitute for the data.
    if options.resume {
        if let (Some(checkpoint), Some(cache)) = (&options.checkpoint, &options.cache) {
            if checkpoint.contains(fp) {
                if let Some(mut hit) = cache.get(fp) {
                    hit.from_cache = true;
                    return CellOutcome {
                        result: Ok(hit),
                        provenance: Provenance::Resumed,
                        attempts: 0,
                        incidents,
                    };
                }
                incidents.push(Incident {
                    label: cell.label(),
                    kind: "resume-cache-miss".to_string(),
                    detail: "checkpointed but its cache entry was lost or corrupt; re-running"
                        .to_string(),
                });
            }
        }
    }

    let Some(cache) = options.cache.as_ref() else {
        // Uncached run: simulate unconditionally.
        let (result, attempts) = supervised_simulate(cell, index, fp, options, &mut incidents);
        if result.is_ok() {
            checkpoint_cell(fp, cell, index, options, &mut incidents);
        }
        return CellOutcome {
            result,
            provenance: Provenance::Simulated,
            attempts,
            incidents,
        };
    };

    // Single-flight through the shared store: when several campaigns
    // (the server's concurrent jobs) race on the same fingerprint,
    // exactly one worker leads and simulates; the others block inside
    // `lease` and come back with a hit. The wait is wall-clock (it
    // depends on scheduling), so its histogram is volatile: visible to
    // `/metrics`, excluded from the canonical jobs-invariant snapshot.
    let leased_at = Instant::now();
    let lease = cache.lease(fp);
    if let Some(metrics) = options.metrics.as_deref() {
        metrics
            .histogram_volatile(
                "campaign.lease.wait_us",
                &[100, 1_000, 10_000, 100_000, 1_000_000],
            )
            .observe(leased_at.elapsed().as_micros() as u64);
    }
    match lease {
        Lease::Hit(mut hit) => {
            hit.from_cache = true;
            obs::event_with(obs::Level::Debug, "campaign.cache.hit", || {
                vec![("cell", cell.label().into())]
            });
            if let Some(metrics) = options.metrics.as_deref() {
                metrics.counter("campaign.cache.hits").inc();
            }
            checkpoint_cell(fp, cell, index, options, &mut incidents);
            CellOutcome {
                result: Ok(*hit),
                provenance: Provenance::Cached,
                attempts: 0,
                incidents,
            }
        }
        Lease::Lead(flight) => {
            obs::event_with(obs::Level::Debug, "campaign.cache.miss", || {
                vec![("cell", cell.label().into())]
            });
            if let Some(metrics) = options.metrics.as_deref() {
                metrics.counter("campaign.cache.misses").inc();
            }
            let (result, attempts) = supervised_simulate(cell, index, fp, options, &mut incidents);
            if let Ok(result) = &result {
                cache.put(fp, result);
                corrupt_cache_entry(fp, cell, index, attempts, options, &mut incidents);
                checkpoint_cell(fp, cell, index, options, &mut incidents);
            }
            // Release the flight only now: on success the result is
            // already in the store, on failure a parked waiter is
            // promoted to leader and retries the computation.
            drop(flight);
            CellOutcome {
                result,
                provenance: Provenance::Simulated,
                attempts,
                incidents,
            }
        }
    }
}

/// Runs the simulation under `catch_unwind`, retrying retryable
/// failures up to `options.retries` times with deterministic backoff.
fn supervised_simulate(
    cell: &CellSpec,
    index: usize,
    fp: Fingerprint,
    options: &RunOptions,
    incidents: &mut Vec<Incident>,
) -> (Result<CellResult, CellError>, u32) {
    let injector = options.faults.as_deref();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let mut attempt_cell = cell.clone();
        if let Some(budget) = injector.and_then(|i| i.cycle_budget_override(index, attempt)) {
            // An injected slow cell: clamp the watchdog budget so the
            // cell times out the way a genuinely wedged one would.
            attempt_cell.max_cycles = attempt_cell.max_cycles.min(budget);
        }
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if let Some(i) = injector {
                i.maybe_panic(index, attempt);
            }
            simulate_cell_with(&attempt_cell, options.skip, options.soc_jobs)
        }));
        let outcome = match caught {
            Ok(outcome) => outcome,
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                dump_panic_postmortem(cell, index, attempt, fp, &message, options, incidents);
                Err(CellError::Panicked { message })
            }
        };
        match outcome {
            Ok(result) => return (Ok(result), attempt),
            Err(error) if error.retryable() && attempt <= options.retries => {
                obs::event_with(obs::Level::Warn, "campaign.retry", || {
                    vec![
                        ("cell", cell.label().into()),
                        ("attempt", attempt.into()),
                        ("kind", error.kind().into()),
                    ]
                });
                if let Some(metrics) = options.metrics.as_deref() {
                    metrics.counter("campaign.retries").inc();
                }
                let steps = retry_backoff(fp, attempt);
                incidents.push(Incident {
                    label: cell.label(),
                    kind: "retry".to_string(),
                    detail: format!(
                        "attempt {attempt} failed ({}); backed off {steps} steps and retried",
                        error.kind()
                    ),
                });
            }
            Err(error) => return (Err(error), attempt),
        }
    }
}

/// Flight-recorder dump for a caught worker panic: when the run has a
/// post-mortem directory, the recorder is armed, and a trace context is
/// live on this worker, the recent ring records for the trace land in
/// `<dir>/<trace>.jsonl` before the panic is folded into a typed
/// [`CellError`]. Best-effort by design — a dump failure must never
/// escalate a contained cell failure into a runner failure, so I/O
/// errors are reported as incidents, not propagated.
fn dump_panic_postmortem(
    cell: &CellSpec,
    index: usize,
    attempt: u32,
    fp: Fingerprint,
    message: &str,
    options: &RunOptions,
    incidents: &mut Vec<Incident>,
) {
    let Some(dir) = options.postmortem_dir.as_deref() else {
        return;
    };
    if !obs::flight_armed() {
        return;
    }
    let Some(ctx) = obs::current() else {
        return;
    };
    let extra = vec![
        ("cell", obs::Json::Str(cell.label())),
        ("cell_index", obs::Json::Int(index as u64)),
        ("attempt", obs::Json::Int(u64::from(attempt))),
        ("fingerprint", obs::Json::Str(format!("{:016x}", fp.0))),
        ("panic", obs::Json::Str(message.to_string())),
    ];
    match obs::write_postmortem(dir, ctx.trace, "worker_panic", extra) {
        Ok(path) => {
            obs::event_with(obs::Level::Warn, "campaign.postmortem.write", || {
                vec![
                    ("cell", cell.label().into()),
                    ("trace", ctx.trace.to_hex().into()),
                    ("path", path.display().to_string().into()),
                ]
            });
        }
        Err(error) => incidents.push(Incident {
            label: cell.label(),
            kind: "postmortem-write-failed".to_string(),
            detail: format!("flight-recorder dump failed: {error}"),
        }),
    }
}

/// Records `fp` in the checkpoint, then applies the truncated-report
/// fault (chopping the log mid-line the way a dying disk or a SIGKILL
/// mid-write would) if one is planned for this cell.
fn checkpoint_cell(
    fp: Fingerprint,
    cell: &CellSpec,
    index: usize,
    options: &RunOptions,
    incidents: &mut Vec<Incident>,
) {
    let Some(checkpoint) = &options.checkpoint else {
        return;
    };
    checkpoint.record(fp);
    obs::event_with(obs::Level::Debug, "campaign.checkpoint.write", || {
        vec![("cell", cell.label().into())]
    });
    if let Some(metrics) = options.metrics.as_deref() {
        metrics.counter("campaign.checkpoint.writes").inc();
    }
    if let Some(injector) = options.faults.as_deref() {
        if injector.should_truncate_report(index, 1) {
            truncate_tail(checkpoint.path(), 5);
            incidents.push(Incident {
                label: cell.label(),
                kind: "truncated-report".to_string(),
                detail: "checkpoint log truncated mid-entry; the torn line is dropped on resume"
                    .to_string(),
            });
        }
    }
}

/// Applies the corrupt-cache-entry fault: scribbles over the entry just
/// written, proving later runs degrade it to a miss (and quarantine it)
/// instead of failing.
fn corrupt_cache_entry(
    fp: Fingerprint,
    cell: &CellSpec,
    index: usize,
    attempts: u32,
    options: &RunOptions,
    incidents: &mut Vec<Incident>,
) {
    let Some(injector) = options.faults.as_deref() else {
        return;
    };
    if !injector.should_corrupt_cache(index, attempts) {
        return;
    }
    let Some(path) = options.cache.as_ref().and_then(|c| c.entry_path(fp)) else {
        return;
    };
    let _ = std::fs::write(&path, "{ corrupted by fault injection");
    incidents.push(Incident {
        label: cell.label(),
        kind: "corrupt-cache-entry".to_string(),
        detail: "disk cache entry corrupted after write; future reads quarantine it as a miss"
            .to_string(),
    });
}

/// Poisons `mutex` the only way `std::sync` allows: panic while holding
/// it. Used by the runner to realize the poisoned-lock fault.
pub fn poison_for_fault<T: Send>(mutex: &Mutex<T>) {
    std::thread::scope(|scope| {
        let _ = scope
            .spawn(|| {
                let _guard = mutex.lock();
                panic!("injected fault: poisoning lock");
            })
            .join();
    });
}

/// Chops `keep_off` bytes from the end of the file at `path`
/// (best-effort), simulating a torn write.
fn truncate_tail(path: &std::path::Path, keep_off: u64) {
    let Ok(metadata) = std::fs::metadata(path) else {
        return;
    };
    let Ok(file) = std::fs::OpenOptions::new().write(true).open(path) else {
        return;
    };
    let _ = file.set_len(metadata.len().saturating_sub(keep_off));
}

/// Deterministic retry backoff: a pure function of the cell fingerprint
/// and the attempt number, realized as a bounded spin so it costs the
/// same (and reports the same) on every run at every thread count.
fn retry_backoff(fp: Fingerprint, attempt: u32) -> u64 {
    let mix =
        fp.0.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(attempt.min(63))
            ^ u64::from(attempt);
    let steps = (mix % 509) + (1 << attempt.min(10));
    for _ in 0..steps {
        std::hint::spin_loop();
    }
    steps
}

/// Renders a caught panic payload as the human-readable cause.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Simulates one cell: workload → stream → core → perf → distilled
/// result. Uses the ambient [`SkipPolicy`] and [`SocJobs`].
pub fn simulate_cell(cell: &CellSpec) -> Result<CellResult, CellError> {
    simulate_cell_with(cell, None, None)
}

/// [`simulate_cell`] with an explicit cycle-skipping policy and SoC
/// execution engine (`None` defers to the ambient
/// [`SkipPolicy::resolve`] / [`SocJobs::resolve`]).
pub fn simulate_cell_with(
    cell: &CellSpec,
    skip: Option<SkipPolicy>,
    soc_jobs: Option<SocJobs>,
) -> Result<CellResult, CellError> {
    let seed = data_seed(cell);
    if let CoreSelect::Soc(mix) = cell.core {
        return simulate_soc_cell(cell, mix, seed, soc_jobs);
    }
    let workload = workloads::by_name_seeded(&cell.workload, seed)
        .ok_or_else(|| CellError::UnknownWorkload(cell.workload.clone()))?;
    let stream = workload.execute()?;
    let perf = Perf::with_options(PerfOptions {
        arch: cell.arch,
        max_cycles: cell.max_cycles,
        skip: skip.unwrap_or_else(SkipPolicy::resolve),
        ..PerfOptions::default()
    });
    let mut core = cell
        .core
        .build_core(&workload, stream)
        .expect("soc cells handled above");
    let report = perf.run(core.as_mut())?;
    Ok(CellResult::from_report(cell.clone(), &report))
}

/// Simulates one multi-core (SoC) cell. Every core runs the cell's
/// workload, but each core derives its own data seed (core 0 keeps the
/// cell's [`data_seed`], core `k` mixes in `k`), so cores never execute
/// byte-identical streams and shared-L2 interference is non-trivial.
/// SoC cores always measure with the add-wires counter architecture
/// (the paper's hardware design); the engine choice never affects the
/// result bytes, so it stays out of the cell fingerprint.
fn simulate_soc_cell(
    cell: &CellSpec,
    mix: SocMix,
    seed: u64,
    soc_jobs: Option<SocJobs>,
) -> Result<CellResult, CellError> {
    let per_core: Vec<_> = (0..mix.num_cores() as u64)
        .map(|k| {
            let core_seed = if k == 0 { seed } else { mix_seed(seed, k) };
            workloads::by_name_seeded(&cell.workload, core_seed)
                .ok_or_else(|| CellError::UnknownWorkload(cell.workload.clone()))
        })
        .collect::<Result<_, _>>()?;
    let mut soc = mix.build(&per_core)?;
    let reports = soc.run_with(cell.max_cycles, SocJobs::resolve(soc_jobs))?;
    Ok(CellResult::from_soc_reports(cell.clone(), &reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use icicle_faults::{FaultKind, FaultPlan, SLOW_CELL_BUDGET};
    use icicle_pmu::CounterArch;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::new("unit")
            .workloads(["vvadd", "towers"])
            .cores([CoreSelect::Rocket])
            .archs([CounterArch::AddWires])
            .seeds([0])
    }

    #[test]
    fn soc_cell_is_byte_identical_across_engines() {
        let cell = CellSpec {
            // qsort's retired-instruction count is data-dependent, so
            // per-core seeding is observable in the per-core records.
            workload: "qsort".into(),
            core: CoreSelect::Soc(SocMix::DualRocket),
            arch: CounterArch::AddWires,
            seed: 0,
            repeat: 0,
            max_cycles: 1_000_000,
        };
        let lockstep = simulate_cell_with(&cell, None, Some(SocJobs::Lockstep)).unwrap();
        assert_eq!(lockstep.cores.len(), 2);
        // Top-level fields mirror core 0, so single-core consumers
        // (CSV, bench ledgers) keep working on soc cells.
        assert_eq!(lockstep.cycles, lockstep.cores[0].cycles);
        assert_eq!(lockstep.instret, lockstep.cores[0].instret);
        // Cores derive distinct data seeds, so their streams differ.
        assert_ne!(lockstep.cores[0].instret, lockstep.cores[1].instret);
        for jobs in [1, 2, 4] {
            let parallel = simulate_cell_with(&cell, None, Some(SocJobs::Parallel(jobs))).unwrap();
            assert_eq!(parallel, lockstep, "engine diverged at {jobs} jobs");
        }
    }

    #[test]
    fn soc_cell_runs_through_the_campaign_grid() {
        let spec = CampaignSpec::new("soc-unit")
            .workloads(["vvadd"])
            .cores([CoreSelect::Rocket, CoreSelect::Soc(SocMix::DualRocket)])
            .archs([CounterArch::AddWires])
            .seeds([0]);
        let report = run_campaign(&spec, &RunOptions::default());
        assert!(report.passed());
        assert_eq!(report.cells.len(), 2);
        let soc = report
            .cells
            .iter()
            .find(|c| c.cell.core.name() == "soc-2xrocket")
            .expect("soc cell present");
        assert_eq!(soc.cores.len(), 2);
        // The distilled record survives the canonical JSON round-trip
        // with its per-core breakdown intact.
        let back = CellResult::from_json(&soc.to_json()).unwrap();
        assert_eq!(&back, soc);
    }

    #[test]
    fn queue_drains_then_reports_closed() {
        let q = JobQueue::new();
        q.push(1);
        q.push(2);
        q.close();
        assert_eq!(q.submitted(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_wakes_blocked_workers_on_close() {
        let q = Arc::new(JobQueue::new());
        let handle = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(handle.join().unwrap(), None);
    }

    #[test]
    fn queue_drains_bands_in_priority_order() {
        let q = JobQueue::new();
        q.push_with_priority(10, Priority::Low);
        q.push(20); // Normal
        q.push_with_priority(30, Priority::High);
        q.push_with_priority(31, Priority::High);
        q.push(21);
        q.close();
        assert_eq!(q.submitted(), 5);
        assert_eq!(q.queued(), 5);
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![30, 31, 20, 21, 10]);
    }

    #[test]
    fn priority_wire_names_round_trip() {
        for p in [Priority::High, Priority::Normal, Priority::Low] {
            assert_eq!(Priority::from_name(p.name()), Some(p));
        }
        assert_eq!(Priority::from_name("urgent"), None);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn cancel_flag_skips_the_remaining_cells() {
        let spec = CampaignSpec::new("cancelled")
            .workloads(["vvadd", "towers", "qsort"])
            .cores([CoreSelect::Rocket])
            .archs([CounterArch::AddWires]);
        let flag = Arc::new(AtomicBool::new(true)); // cancelled before it starts
        let report = run_campaign(
            &spec,
            &RunOptions {
                jobs: 2,
                cache: None,
                cancel: Some(Arc::clone(&flag)),
                ..RunOptions::default()
            },
        );
        assert_eq!(report.stats.skipped, 3, "every cell becomes a skip");
        assert_eq!(report.stats.total(), 3, "no cell is lost");
        assert!(report.cells.is_empty());
    }

    #[test]
    fn unset_cancel_flag_changes_nothing() {
        let spec = tiny_spec();
        let flag = Arc::new(AtomicBool::new(false));
        let cancellable = run_campaign(
            &spec,
            &RunOptions {
                cache: None,
                cancel: Some(flag),
                ..RunOptions::default()
            },
        );
        let plain = run_campaign(
            &spec,
            &RunOptions {
                cache: None,
                ..RunOptions::default()
            },
        );
        assert_eq!(cancellable.to_json(), plain.to_json());
    }

    #[test]
    fn queue_cancel_returns_the_unstarted_jobs() {
        let q = JobQueue::new();
        for job in 0..5 {
            q.push(job);
        }
        assert_eq!(q.pop(), Some(0));
        let cancelled = q.cancel();
        assert_eq!(cancelled, vec![1, 2, 3, 4]);
        assert_eq!(q.pop(), None, "cancelled queue is closed");
        assert_eq!(q.submitted(), 5);
    }

    #[test]
    fn failed_cells_do_not_sink_the_campaign() {
        let spec = CampaignSpec::new("mixed")
            .workloads(["vvadd", "definitely-not-a-workload"])
            .cores([CoreSelect::Rocket])
            .archs([CounterArch::AddWires]);
        let report = run_campaign(&spec, &RunOptions::default());
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.stats.failed, 1);
        assert!(report.failures[0]
            .label
            .starts_with("definitely-not-a-workload"));
        assert_eq!(report.failures[0].kind, "unknown-workload");
        assert!(report.failures[0].error.contains("unknown workload"));
        assert_eq!(
            report.failures[0].attempts, 1,
            "a non-retryable failure is not retried"
        );
        assert!(!report.passed());
    }

    #[test]
    fn cache_hits_skip_simulation_and_flag_provenance() {
        let spec = tiny_spec();
        let cache = Arc::new(ResultCache::in_memory());
        let cold = run_campaign(
            &spec,
            &RunOptions {
                jobs: 2,
                cache: Some(Arc::clone(&cache)),
                ..RunOptions::default()
            },
        );
        assert_eq!(cold.stats.simulated, 2);
        assert_eq!(cold.stats.cached, 0);
        let warm = run_campaign(
            &spec,
            &RunOptions {
                jobs: 2,
                cache: Some(cache),
                ..RunOptions::default()
            },
        );
        assert_eq!(warm.stats.simulated, 0, "warm run must simulate nothing");
        assert_eq!(warm.stats.cached, 2);
        assert!(warm.cells.iter().all(|c| c.from_cache));
        // Identical aggregate output either way.
        assert_eq!(warm.to_json(), cold.to_json());
        assert_eq!(warm.to_csv(), cold.to_csv());
    }

    #[test]
    fn progress_callback_sees_every_cell() {
        let spec = tiny_spec();
        let seen = Arc::new(AtomicUsize::new(0));
        let seen_in_cb = Arc::clone(&seen);
        let report = run_campaign(
            &spec,
            &RunOptions {
                jobs: 1,
                cache: None,
                progress: Some(Box::new(move |p: Progress| {
                    seen_in_cb.store(p.done(), Ordering::Relaxed);
                    assert_eq!(p.total, 2);
                })),
                ..RunOptions::default()
            },
        );
        assert_eq!(seen.load(Ordering::Relaxed), 2);
        assert_eq!(report.stats.total(), 2);
    }

    #[test]
    fn injected_panic_is_contained_to_its_cell() {
        let spec = tiny_spec();
        let plan = FaultPlan::new().with(FaultKind::PanicInCell, 0, true);
        let report = run_campaign(
            &spec,
            &RunOptions {
                cache: None,
                retries: 1,
                faults: Some(Arc::new(FaultInjector::new(plan))),
                ..RunOptions::default()
            },
        );
        assert_eq!(report.cells.len(), 1, "the other cell still completes");
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].kind, "panic");
        assert!(report.failures[0].error.contains("injected fault"));
        assert_eq!(report.failures[0].attempts, 2, "one retry was granted");
    }

    #[test]
    fn worker_panic_writes_a_postmortem_dump() {
        let spec = tiny_spec();
        let plan = FaultPlan::new().with(FaultKind::PanicInCell, 0, true);
        let dir = std::env::temp_dir().join(format!("icicle-campaign-pm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        obs::arm_flight_recorder(64);
        let trace = obs::TraceId::mint();
        let report = {
            let _ctx = obs::enter(obs::TraceContext::root(trace));
            run_campaign(
                &spec,
                &RunOptions {
                    cache: None,
                    retries: 0,
                    faults: Some(Arc::new(FaultInjector::new(plan))),
                    postmortem_dir: Some(dir.clone()),
                    ..RunOptions::default()
                },
            )
        };
        obs::disarm_flight_recorder();
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].kind, "panic");
        let path = dir.join(format!("{}.jsonl", trace.to_hex()));
        let text = std::fs::read_to_string(&path).expect("post-mortem artifact written");
        let header = text.lines().next().unwrap();
        assert!(header.contains("\"reason\":\"worker_panic\""));
        assert!(header.contains(&trace.to_hex()));
        assert!(header.contains("injected fault"));
        assert!(
            text.contains("campaign.cell"),
            "the ring captured the failing cell's span"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_faults_recover_on_retry() {
        let spec = tiny_spec();
        let plan = FaultPlan::new()
            .with(FaultKind::PanicInCell, 0, false)
            .with(FaultKind::SlowCell, 1, false);
        let faulted = run_campaign(
            &spec,
            &RunOptions {
                cache: None,
                retries: 1,
                faults: Some(Arc::new(FaultInjector::new(plan))),
                ..RunOptions::default()
            },
        );
        assert_eq!(faulted.cells.len(), 2, "both cells recover on retry");
        assert!(faulted.failures.is_empty());
        let retries: Vec<_> = faulted
            .incidents
            .iter()
            .filter(|i| i.kind == "retry")
            .collect();
        assert_eq!(retries.len(), 2);
        assert!(retries.iter().any(|i| i.detail.contains("(panic)")));
        assert!(retries.iter().any(|i| i.detail.contains("(timeout)")));
        // The recovered results match a clean run exactly.
        let clean = run_campaign(
            &spec,
            &RunOptions {
                cache: None,
                ..RunOptions::default()
            },
        );
        assert_eq!(faulted.cells, clean.cells);
    }

    #[test]
    fn slow_cells_trip_the_watchdog_as_typed_timeouts() {
        let spec = tiny_spec();
        let plan = FaultPlan::new().with(FaultKind::SlowCell, 0, true);
        let report = run_campaign(
            &spec,
            &RunOptions {
                cache: None,
                retries: 1,
                faults: Some(Arc::new(FaultInjector::new(plan))),
                ..RunOptions::default()
            },
        );
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].kind, "timeout");
        assert!(report.failures[0]
            .error
            .contains(&format!("{SLOW_CELL_BUDGET}-cycle budget")));
    }

    #[test]
    fn fail_fast_cancels_and_reports_skips() {
        let spec = CampaignSpec::new("fail-fast")
            .workloads(["definitely-not-a-workload", "vvadd", "towers"])
            .cores([CoreSelect::Rocket])
            .archs([CounterArch::AddWires]);
        let report = run_campaign(
            &spec,
            &RunOptions {
                jobs: 1,
                cache: None,
                keep_going: false,
                ..RunOptions::default()
            },
        );
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.stats.failed, 1);
        assert_eq!(report.stats.skipped, 2, "unstarted cells become skips");
        assert_eq!(report.skipped.len(), 2);
        assert_eq!(report.stats.total(), 3, "no cell is lost");
        assert!(!report.passed());
    }

    #[test]
    fn reports_are_byte_identical_across_thread_counts_with_faults() {
        let spec = CampaignSpec::new("jobs-invariant")
            .workloads(["vvadd", "towers", "no-such-workload"])
            .cores([CoreSelect::Rocket])
            .archs([CounterArch::AddWires]);
        let plan = FaultPlan::new().with(FaultKind::PanicInCell, 0, true).with(
            FaultKind::SlowCell,
            1,
            false,
        );
        let run = |jobs: usize| {
            run_campaign(
                &spec,
                &RunOptions {
                    jobs,
                    cache: None,
                    retries: 1,
                    faults: Some(Arc::new(FaultInjector::new(plan.clone()))),
                    ..RunOptions::default()
                },
            )
        };
        let solo = run(1);
        let pooled = run(4);
        assert_eq!(solo.to_json(), pooled.to_json());
        assert_eq!(solo.to_csv(), pooled.to_csv());
        assert_eq!(solo.failures, pooled.failures);
        assert_eq!(solo.incidents, pooled.incidents);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let fp = Fingerprint(0x1234_5678_9abc_def0);
        assert_eq!(retry_backoff(fp, 1), retry_backoff(fp, 1));
        assert_ne!(retry_backoff(fp, 1), retry_backoff(fp, 2));
        for attempt in 1..20 {
            assert!(retry_backoff(fp, attempt) < 2048);
        }
    }
}
