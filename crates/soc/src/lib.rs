//! # icicle-soc
//!
//! A multi-core system-on-chip with a shared, bus-arbitrated L2 — this
//! reproduction's take on the paper's "performance characterization on
//! heterogeneous systems on Chipyard" future-work item (§VII).
//!
//! A [`SocBuilder`] assembles any mix of Rocket and BOOM cores, each
//! running its own workload over a private L1 but a *shared* L2
//! ([`SharedL2`]). Cross-core interference — capacity thrashing and bus
//! queueing — emerges in the TMA results exactly the way it would on a
//! real SoC: as growth in the victim core's Mem-Bound slots.
//!
//! Two execution engines produce **byte-identical** results:
//!
//! * [`Soc::run`] — the lockstep reference: every core steps one cycle
//!   in core order on the calling thread.
//! * [`Soc::run_parallel`] — conservative parallel discrete-event
//!   simulation: each core gets its own worker thread and a timestamped
//!   [`L2Port`] link to the shared L2; null messages carry per-core safe
//!   horizons (lookahead from the core's quiescent span, i.e. from the
//!   hit/miss latency of in-flight requests), and no request at cycle
//!   *t* is admitted until every other link has passed *t*. Counters,
//!   TMA reports, and canonical JSON are identical at any thread count.
//!
//! [`SharedL2`]: icicle_mem::SharedL2
//! [`L2Port`]: icicle_mem::L2Port
//!
//! ```
//! use icicle_soc::SocBuilder;
//! use icicle_rocket::RocketConfig;
//! use icicle_workloads::micro;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = micro::vvadd(256);
//! let b = micro::rsort(256);
//! let mut soc = SocBuilder::new()
//!     .rocket(RocketConfig::default(), &a)?
//!     .rocket(RocketConfig::default(), &b)?
//!     .build();
//! let reports = soc.run_parallel(10_000_000, 2)?;
//! assert_eq!(reports.len(), 2);
//! assert!(reports.iter().all(|r| r.report.cycles > 0));
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use icicle_boom::{Boom, BoomConfig};
use icicle_events::EventCore;
use icicle_mem::{CacheConfig, L2Arbiter, L2Linked, L2Port, L2Waiter, MemoryHierarchy, SharedL2};
use icicle_perf::{CounterSession, PerfOptions, PerfReport};
use icicle_pmu::{CounterArch, PmuError};
use icicle_rocket::{Rocket, RocketConfig};
use icicle_workloads::Workload;

/// Errors from SoC construction or simulation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SocError {
    /// A workload failed to execute architecturally.
    Workload(icicle_isa::IsaError),
    /// The SoC has no cores.
    Empty,
    /// One or more cores did not finish within the cycle budget; every
    /// stuck core's workload is named so multi-core budget failures are
    /// diagnosable in one pass.
    CycleBudget { cores: Vec<String>, budget: u64 },
    /// Counter programming or readback failed on a core's CSR file.
    Pmu(PmuError),
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::Workload(e) => write!(f, "workload failed: {e}"),
            SocError::Empty => write!(f, "soc has no cores"),
            SocError::CycleBudget { cores, budget } => {
                if cores.len() == 1 {
                    write!(f, "core {} exceeded the {budget}-cycle budget", cores[0])
                } else {
                    write!(
                        f,
                        "cores {} exceeded the {budget}-cycle budget",
                        cores.join(", ")
                    )
                }
            }
            SocError::Pmu(e) => write!(f, "pmu: {e}"),
        }
    }
}

impl Error for SocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SocError::Workload(e) => Some(e),
            SocError::Pmu(e) => Some(e),
            _ => None,
        }
    }
}

impl From<icicle_isa::IsaError> for SocError {
    fn from(e: icicle_isa::IsaError) -> SocError {
        SocError::Workload(e)
    }
}

impl From<PmuError> for SocError {
    fn from(e: PmuError) -> SocError {
        SocError::Pmu(e)
    }
}

/// Everything the SoC engines need from a core model: event-driven
/// stepping, shared-L2 relinking, and the ability to move to a worker
/// thread.
pub trait SocEventCore: EventCore + L2Linked + Send {}

impl<T: EventCore + L2Linked + Send> SocEventCore for T {}

/// How an SoC run schedules its cores.
///
/// Like `SkipPolicy`, this is a pure *engine* knob: the PDES engine and
/// the lockstep reference produce bit-identical counters and reports, so
/// the choice never enters result fingerprints or caches.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SocJobs {
    /// The reference engine: one thread, every core stepped one cycle
    /// in core order.
    Lockstep,
    /// Conservative PDES: one worker thread per core, at most N cores
    /// stepping concurrently.
    Parallel(usize),
}

/// Process-wide override, set once by the CLI: 0 = unset, 1 = lockstep,
/// n+1 = parallel with n workers.
static GLOBAL_SOC_JOBS: AtomicU64 = AtomicU64::new(0);

impl SocJobs {
    /// Parses `lockstep` / `0` (reference) or a worker count.
    pub fn from_name(name: &str) -> Option<SocJobs> {
        let t = name.trim();
        if t.eq_ignore_ascii_case("lockstep") {
            return Some(SocJobs::Lockstep);
        }
        match t.parse::<u64>() {
            Ok(0) => Some(SocJobs::Lockstep),
            Ok(n) => Some(SocJobs::Parallel(n as usize)),
            Err(_) => None,
        }
    }

    /// The canonical spelling `from_name` round-trips.
    pub fn name(self) -> String {
        match self {
            SocJobs::Lockstep => "lockstep".to_string(),
            SocJobs::Parallel(n) => n.to_string(),
        }
    }

    /// Sets the process-wide engine choice (the CLI's `--soc-jobs`).
    pub fn set_global(jobs: SocJobs) {
        let encoded = match jobs {
            SocJobs::Lockstep => 1,
            SocJobs::Parallel(n) => (n as u64).saturating_add(1),
        };
        GLOBAL_SOC_JOBS.store(encoded, Ordering::Relaxed);
    }

    fn global() -> Option<SocJobs> {
        match GLOBAL_SOC_JOBS.load(Ordering::Relaxed) {
            0 => None,
            1 => Some(SocJobs::Lockstep),
            n => Some(SocJobs::Parallel((n - 1) as usize)),
        }
    }

    /// Resolves the engine: explicit request, then the process-wide
    /// `--soc-jobs`, then the `ICICLE_SOC_JOBS` environment variable,
    /// then the lockstep reference.
    pub fn resolve(explicit: Option<SocJobs>) -> SocJobs {
        explicit
            .or_else(SocJobs::global)
            .or_else(|| {
                std::env::var("ICICLE_SOC_JOBS")
                    .ok()
                    .and_then(|v| SocJobs::from_name(&v))
            })
            .unwrap_or(SocJobs::Lockstep)
    }
}

impl fmt::Display for SocJobs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// The named multi-core topologies the campaign/bench/serve layers can
/// run as grid cells: every core runs the cell's workload (with a
/// distinct derived seed per core) on the paper's shared 512 KiB L2.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SocMix {
    /// Two Rocket cores.
    DualRocket,
    /// A Rocket plus a medium BOOM (the heterogeneous pairing).
    RocketMediumBoom,
    /// Four Rocket cores.
    QuadRocket,
}

impl SocMix {
    /// Every mix, in canonical order.
    pub const ALL: [SocMix; 3] = [
        SocMix::DualRocket,
        SocMix::RocketMediumBoom,
        SocMix::QuadRocket,
    ];

    /// The stable name used in specs, labels, and reports.
    pub fn name(self) -> &'static str {
        match self {
            SocMix::DualRocket => "soc-2xrocket",
            SocMix::RocketMediumBoom => "soc-rocket+medium-boom",
            SocMix::QuadRocket => "soc-4xrocket",
        }
    }

    /// Parses [`SocMix::name`] back.
    pub fn from_name(name: &str) -> Option<SocMix> {
        SocMix::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Number of cores in the mix.
    pub fn num_cores(self) -> usize {
        match self {
            SocMix::DualRocket | SocMix::RocketMediumBoom => 2,
            SocMix::QuadRocket => 4,
        }
    }

    /// Builds the SoC with one workload per core (`workloads.len()`
    /// must equal [`SocMix::num_cores`]).
    ///
    /// # Errors
    ///
    /// Propagates architectural execution and counter-programming
    /// failures from the per-core builders.
    pub fn build(self, workloads: &[Workload]) -> Result<Soc, SocError> {
        assert_eq!(
            workloads.len(),
            self.num_cores(),
            "{} takes exactly {} workloads",
            self.name(),
            self.num_cores()
        );
        let mut b = SocBuilder::new();
        match self {
            SocMix::DualRocket | SocMix::QuadRocket => {
                for w in workloads {
                    b = b.rocket(RocketConfig::default(), w)?;
                }
            }
            SocMix::RocketMediumBoom => {
                b = b.rocket(RocketConfig::default(), &workloads[0])?;
                b = b.boom(BoomConfig::medium(), &workloads[1])?;
            }
        }
        Ok(b.build())
    }
}

impl fmt::Display for SocMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

struct SocCore {
    core: Box<dyn SocEventCore>,
    workload_name: String,
    session: CounterSession,
    finished: bool,
}

/// Per-core results of an SoC run.
#[derive(Clone, Debug)]
pub struct SocReport {
    /// The workload this core ran.
    pub workload: String,
    /// The core's standard perf report. Each core carries its own CSR
    /// file programmed with add-wires counters, so `hw_counts` is a true
    /// hardware view and `perfect_counts` the validation view.
    pub report: PerfReport,
}

/// Builds a [`Soc`] core by core.
pub struct SocBuilder {
    shared_l2: SharedL2,
    cores: Vec<SocCore>,
}

impl Default for SocBuilder {
    fn default() -> SocBuilder {
        SocBuilder::new()
    }
}

impl SocBuilder {
    /// Starts an SoC with the paper's 512 KiB shared L2 and a 2-cycle
    /// bus occupancy per access.
    pub fn new() -> SocBuilder {
        SocBuilder::with_l2(CacheConfig::l2_default(), 2)
    }

    /// Starts an SoC with an explicit shared-L2 geometry and bus
    /// occupancy.
    pub fn with_l2(l2: CacheConfig, bus_occupancy: u64) -> SocBuilder {
        SocBuilder {
            shared_l2: SharedL2::new(l2, bus_occupancy),
            cores: Vec::new(),
        }
    }

    /// A handle to the shared L2 (for inspecting contention afterwards).
    pub fn shared_l2(&self) -> SharedL2 {
        self.shared_l2.clone()
    }

    /// Each core gets its own physical address space (see
    /// [`MemoryHierarchy::with_address_salt`]).
    fn next_salt(&self) -> u64 {
        (self.cores.len() as u64 + 1) << 40
    }

    /// Adds a Rocket core running `workload`.
    ///
    /// # Errors
    ///
    /// Propagates architectural execution and counter-programming
    /// failures.
    pub fn rocket(self, config: RocketConfig, workload: &Workload) -> Result<SocBuilder, SocError> {
        let stream = workload.execute()?;
        let mem = MemoryHierarchy::with_shared_l2(config.memory, self.shared_l2.clone())
            .with_address_salt(self.next_salt());
        let core = Rocket::with_memory(config, stream, mem);
        self.push(Box::new(core), workload)
    }

    /// Adds a BOOM core running `workload`.
    ///
    /// # Errors
    ///
    /// Propagates architectural execution and counter-programming
    /// failures.
    pub fn boom(self, config: BoomConfig, workload: &Workload) -> Result<SocBuilder, SocError> {
        let stream = workload.execute()?;
        let mem = MemoryHierarchy::with_shared_l2(config.memory, self.shared_l2.clone())
            .with_address_salt(self.next_salt());
        let core = Boom::with_memory(config, stream, workload.program_arc(), mem);
        self.push(Box::new(core), workload)
    }

    /// Adds `core` with its own counter session: add-wires counters,
    /// no trace, no lanes, no multiplexing.
    fn push(
        mut self,
        core: Box<dyn SocEventCore>,
        workload: &Workload,
    ) -> Result<SocBuilder, SocError> {
        let options = PerfOptions {
            arch: CounterArch::AddWires,
            ..PerfOptions::default()
        };
        let session = CounterSession::new(&*core, &options)?;
        self.cores.push(SocCore {
            core,
            workload_name: workload.name().to_string(),
            session,
            finished: false,
        });
        Ok(self)
    }

    /// Finalizes the SoC.
    pub fn build(self) -> Soc {
        Soc {
            shared_l2: self.shared_l2,
            cores: self.cores,
            cycle: 0,
        }
    }
}

/// A counting semaphore bounding how many cores step concurrently.
///
/// Worker threads hold a permit while stepping. A core blocked inside
/// [`L2Port::access`] hands its permit back (`pause`) so the core whose
/// request is globally next can always get scheduled — without this, a
/// 4-core SoC at `--soc-jobs 2` could park both permits on waiting
/// cores and deadlock.
struct StepGate {
    permits: Mutex<usize>,
    freed: Condvar,
}

struct StepPermit<'a> {
    gate: &'a StepGate,
}

impl StepGate {
    fn new(permits: usize) -> StepGate {
        StepGate {
            permits: Mutex::new(permits),
            freed: Condvar::new(),
        }
    }

    fn acquire_raw(&self) {
        let mut p = self.permits.lock().unwrap();
        while *p == 0 {
            p = self.freed.wait(p).unwrap();
        }
        *p -= 1;
    }

    fn release_raw(&self) {
        *self.permits.lock().unwrap() += 1;
        self.freed.notify_one();
    }

    fn acquire(&self) -> StepPermit<'_> {
        self.acquire_raw();
        StepPermit { gate: self }
    }
}

impl Drop for StepPermit<'_> {
    fn drop(&mut self) {
        self.gate.release_raw();
    }
}

impl L2Waiter for StepGate {
    fn pause(&self) {
        self.release_raw();
    }

    fn resume(&self) {
        self.acquire_raw();
    }
}

/// One core's worker loop: publish a null message (the safe horizon,
/// extended by the core's quiescent span), take a step permit, step one
/// cycle. Stops at workload completion or the cycle budget.
fn drive_core(c: &mut SocCore, port: &L2Port, gate: &StepGate, max_cycles: u64) {
    let mut steps = 0u64;
    while !c.finished {
        if steps >= max_cycles {
            break;
        }
        let cycle = c.core.cycle();
        // The quiescent-span contract ("the next n steps retire nothing
        // and mutate nothing but the cycle counter") implies no L2
        // traffic before `cycle + quiet`, so the span is sound lookahead
        // — a core sleeping out an L2 miss promises silence for the
        // remaining miss latency. `L2Port::access` asserts the promise.
        let quiet = c.core.time_until_next_event().unwrap_or(0);
        port.advance(cycle.saturating_add(quiet));
        let permit = gate.acquire();
        c.session.observe(c.core.step());
        drop(permit);
        c.finished = c.core.is_done();
        steps += 1;
    }
}

/// A running multi-core system.
pub struct Soc {
    shared_l2: SharedL2,
    cores: Vec<SocCore>,
    cycle: u64,
}

impl Soc {
    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The shared L2 handle (contention statistics).
    pub fn shared_l2(&self) -> &SharedL2 {
        &self.shared_l2
    }

    /// Steps every unfinished core one cycle, in core order.
    pub fn step(&mut self) {
        for c in &mut self.cores {
            if c.finished {
                continue;
            }
            c.session.observe(c.core.step());
            c.finished = c.core.is_done();
        }
        self.cycle += 1;
    }

    /// Whether every core has retired its workload.
    pub fn is_done(&self) -> bool {
        self.cores.iter().all(|c| c.finished)
    }

    /// Runs until every core finishes — the single-threaded lockstep
    /// reference engine.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Empty`] for a core-less SoC and
    /// [`SocError::CycleBudget`] naming every stuck core if any fails
    /// to finish in `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> Result<Vec<SocReport>, SocError> {
        if self.cores.is_empty() {
            return Err(SocError::Empty);
        }
        while !self.is_done() {
            if self.cycle >= max_cycles {
                return Err(self.budget_error(max_cycles));
            }
            self.step();
        }
        self.reports()
    }

    /// Runs until every core finishes, with one worker thread per core
    /// and at most `jobs` cores stepping concurrently — the conservative
    /// PDES engine. Counters and reports are byte-identical to
    /// [`Soc::run`] at any `jobs`.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Empty`] for a core-less SoC and
    /// [`SocError::CycleBudget`] naming every stuck core if any fails
    /// to finish in `max_cycles`.
    pub fn run_parallel(
        &mut self,
        max_cycles: u64,
        jobs: usize,
    ) -> Result<Vec<SocReport>, SocError> {
        if self.cores.is_empty() {
            return Err(SocError::Empty);
        }
        let gate = Arc::new(StepGate::new(jobs.max(1).min(self.cores.len())));
        let ports = L2Arbiter::link(self.shared_l2.clone(), self.cores.len());
        // Explicit trace handoff: captured here on the spawning thread,
        // entered by each core worker, so core-thread records stay
        // stamped with the enclosing job's trace.
        let trace = icicle_obs::handoff();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .cores
                .iter_mut()
                .zip(ports)
                .map(|(c, port)| {
                    let gate = Arc::clone(&gate);
                    s.spawn(move || {
                        let _trace = trace.map(icicle_obs::enter);
                        let workload = c.workload_name.clone();
                        let index = port.index();
                        // Debug-level so the Info-level span tree stays
                        // byte-identical to the lockstep engine, which
                        // interleaves cores and cannot emit per-core
                        // spans at all.
                        let _drive = icicle_obs::span_with(
                            icicle_obs::Level::Debug,
                            "soc.core.drive",
                            || vec![("core", index.into()), ("workload", workload.into())],
                        );
                        let waiter: Arc<dyn L2Waiter> = gate.clone();
                        c.core.attach_l2_port(port.clone().with_waiter(waiter));
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            drive_core(c, &port, &gate, max_cycles)
                        }));
                        // Always park the horizon at infinity so a panic
                        // on one core cannot wedge its neighbours.
                        port.finish();
                        c.core.detach_l2_port();
                        let stats = port.stats();
                        icicle_obs::record_l2_core(
                            index,
                            stats.null_messages,
                            stats.stall_waits,
                            stats.stall_spins,
                            stats.stall_us,
                        );
                        if let Err(payload) = outcome {
                            resume_unwind(payload);
                        }
                    })
                })
                .collect();
            let mut panicked = None;
            for h in handles {
                if let Err(payload) = h.join() {
                    panicked.get_or_insert(payload);
                }
            }
            if let Some(payload) = panicked {
                resume_unwind(payload);
            }
        });
        self.cycle = self
            .cores
            .iter()
            .map(|c| c.core.cycle())
            .max()
            .unwrap_or(self.cycle)
            .max(self.cycle);
        if !self.is_done() {
            return Err(self.budget_error(max_cycles));
        }
        self.reports()
    }

    /// Runs with the engine [`SocJobs::resolve`] picks from the
    /// process-wide `--soc-jobs` / `ICICLE_SOC_JOBS` configuration.
    ///
    /// # Errors
    ///
    /// As [`Soc::run`] / [`Soc::run_parallel`].
    pub fn run_auto(&mut self, max_cycles: u64) -> Result<Vec<SocReport>, SocError> {
        self.run_with(max_cycles, SocJobs::resolve(None))
    }

    /// Runs with an explicit engine choice.
    ///
    /// # Errors
    ///
    /// As [`Soc::run`] / [`Soc::run_parallel`].
    pub fn run_with(&mut self, max_cycles: u64, jobs: SocJobs) -> Result<Vec<SocReport>, SocError> {
        match jobs {
            SocJobs::Lockstep => self.run(max_cycles),
            SocJobs::Parallel(n) => self.run_parallel(max_cycles, n),
        }
    }

    /// Names every core still unfinished at the budget.
    fn budget_error(&self, budget: u64) -> SocError {
        SocError::CycleBudget {
            cores: self
                .cores
                .iter()
                .filter(|c| !c.finished)
                .map(|c| c.workload_name.clone())
                .collect(),
            budget,
        }
    }

    fn reports(&self) -> Result<Vec<SocReport>, SocError> {
        let mut reports = Vec::with_capacity(self.cores.len());
        for (index, c) in self.cores.iter().enumerate() {
            // A finished SoC may be asked for its reports again (`run`
            // returns them straight away), so finish a copy.
            let report = c.session.clone().finish()?;
            // Both engines call `reports` identically on the calling
            // thread with deterministic values, so the Info-level tree
            // stays byte-identical across lockstep and parallel runs.
            icicle_obs::event_with(icicle_obs::Level::Info, "soc.core", || {
                vec![
                    ("core", index.into()),
                    ("name", report.core_name.clone().into()),
                    ("workload", c.workload_name.clone().into()),
                    ("cycles", report.cycles.into()),
                    ("instret", report.instret.into()),
                ]
            });
            reports.push(SocReport {
                workload: c.workload_name.clone(),
                report,
            });
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icicle_events::EventId;
    use icicle_workloads::{micro, spec};

    #[test]
    fn empty_soc_is_an_error() {
        let mut soc = SocBuilder::new().build();
        assert!(matches!(soc.run(1000), Err(SocError::Empty)));
        let mut soc = SocBuilder::new().build();
        assert!(matches!(soc.run_parallel(1000, 2), Err(SocError::Empty)));
    }

    #[test]
    fn two_rockets_both_finish() {
        let a = micro::vvadd(256);
        let b = micro::rsort(256);
        let mut soc = SocBuilder::new()
            .rocket(RocketConfig::default(), &a)
            .unwrap()
            .rocket(RocketConfig::default(), &b)
            .unwrap()
            .build();
        let reports = soc.run(5_000_000).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].workload, "vvadd");
        assert!(reports.iter().all(|r| r.report.instret > 0));
        assert!(reports
            .iter()
            .all(|r| (r.report.tma.top.total() - 1.0).abs() < 1e-9));
    }

    #[test]
    fn heterogeneous_mix_runs() {
        let a = micro::mergesort(256);
        let b = micro::qsort(256);
        let mut soc = SocBuilder::new()
            .rocket(RocketConfig::default(), &a)
            .unwrap()
            .boom(BoomConfig::large(), &b)
            .unwrap()
            .build();
        let reports = soc.run(5_000_000).unwrap();
        assert_eq!(reports[0].report.core_name, "rocket");
        assert_eq!(reports[1].report.core_name, "large-boom");
    }

    #[test]
    fn l2_thrasher_slows_its_neighbour() {
        // Victim: a 256 KiB chase (4096 cache blocks — half the L2's
        // lines, 8x the L1D's) walked several times, so most accesses
        // are L2 hits it depends on keeping resident.
        let victim = || spec::mcf_sized(1 << 15, 20_000);
        // Aggressor: a 1 MiB cold chase that evicts L2 lines the whole
        // time the victim runs.
        let aggressor = spec::mcf_sized(1 << 17, 20_000);

        let mut solo = SocBuilder::new()
            .boom(BoomConfig::large(), &victim())
            .unwrap()
            .build();
        let solo_cycles = solo.run(50_000_000).unwrap()[0].report.cycles;

        let mut contended = SocBuilder::new()
            .boom(BoomConfig::large(), &victim())
            .unwrap()
            .boom(BoomConfig::large(), &aggressor)
            .unwrap()
            .build();
        let reports = contended.run(50_000_000).unwrap();
        let with_neighbour = reports[0].report.cycles;
        // The aggressor evicts at DRAM-fill rate (one block per ~100
        // cycles), so the interference here is a few percent — clearly
        // measurable and strictly positive.
        assert!(
            with_neighbour > solo_cycles + solo_cycles / 40,
            "expected >2.5% interference: solo {solo_cycles}, contended {with_neighbour}"
        );
        // The interference shows up where TMA says it should.
        assert!(reports[0].report.tma.backend.mem_bound > 0.3);
        assert!(contended.shared_l2().contention_cycles() > 0);
    }

    #[test]
    fn cycle_budget_error_names_every_stuck_core() {
        let a = micro::mergesort(1 << 10);
        let b = micro::qsort(1 << 10);
        let mut soc = SocBuilder::new()
            .rocket(RocketConfig::default(), &a)
            .unwrap()
            .rocket(RocketConfig::default(), &b)
            .unwrap()
            .build();
        match soc.run(100) {
            Err(SocError::CycleBudget { cores, budget }) => {
                assert_eq!(cores, vec!["mergesort".to_string(), "qsort".to_string()]);
                assert_eq!(budget, 100);
            }
            other => panic!("expected a budget error, got {other:?}"),
        }

        // The parallel engine reports the same stuck set.
        let mut soc = SocBuilder::new()
            .rocket(RocketConfig::default(), &a)
            .unwrap()
            .rocket(RocketConfig::default(), &b)
            .unwrap()
            .build();
        match soc.run_parallel(100, 2) {
            Err(SocError::CycleBudget { cores, budget }) => {
                assert_eq!(cores, vec!["mergesort".to_string(), "qsort".to_string()]);
                assert_eq!(budget, 100);
            }
            other => panic!("expected a budget error, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            SocBuilder::new()
                .rocket(
                    RocketConfig::default(),
                    &icicle_workloads::riscv_tests::median(512),
                )
                .unwrap()
                .boom(BoomConfig::medium(), &micro::vvadd(512))
                .unwrap()
                .build()
        };
        let a = build().run(5_000_000).unwrap();
        let b = build().run(5_000_000).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.report.cycles, y.report.cycles);
            assert_eq!(x.report.instret, y.report.instret);
        }
    }

    /// Every observable of two reports must agree exactly — cycles,
    /// instret, the full hardware and perfect counter sets, and the
    /// derived TMA fractions (bit-wise, via to_bits).
    fn assert_reports_identical(a: &[SocReport], b: &[SocReport], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: core count");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.workload, y.workload, "{what}: core {i} workload");
            let (rx, ry) = (&x.report, &y.report);
            assert_eq!(rx.cycles, ry.cycles, "{what}: core {i} cycles");
            assert_eq!(rx.instret, ry.instret, "{what}: core {i} instret");
            for e in EventId::ALL {
                assert_eq!(
                    rx.hw_counts.get(e),
                    ry.hw_counts.get(e),
                    "{what}: core {i} hw {}",
                    e.name()
                );
                assert_eq!(
                    rx.perfect_counts.get(e),
                    ry.perfect_counts.get(e),
                    "{what}: core {i} perfect {}",
                    e.name()
                );
            }
            assert_eq!(
                rx.tma.top.total().to_bits(),
                ry.tma.top.total().to_bits(),
                "{what}: core {i} tma total"
            );
            assert_eq!(
                rx.tma.backend.mem_bound.to_bits(),
                ry.tma.backend.mem_bound.to_bits(),
                "{what}: core {i} mem-bound"
            );
        }
    }

    #[test]
    fn parallel_engine_matches_lockstep_at_every_thread_count() {
        let build = || {
            SocBuilder::new()
                .rocket(RocketConfig::default(), &micro::mergesort(256))
                .unwrap()
                .boom(BoomConfig::medium(), &micro::vvadd(512))
                .unwrap()
                .rocket(RocketConfig::default(), &micro::qsort(256))
                .unwrap()
                .build()
        };
        let reference = build().run(5_000_000).unwrap();
        for jobs in [1, 2, 4, 8] {
            let parallel = build().run_parallel(5_000_000, jobs).unwrap();
            assert_reports_identical(
                &reference,
                &parallel,
                &format!("lockstep vs parallel({jobs})"),
            );
        }
    }

    #[test]
    fn parallel_engine_matches_lockstep_under_l2_contention() {
        // Two thrashers sharing the L2: heavy bus queueing and capacity
        // eviction, so any ordering divergence between the engines shows
        // up immediately in the contention-dependent latencies.
        let build = || {
            SocBuilder::new()
                .boom(BoomConfig::medium(), &spec::mcf_sized(1 << 14, 4_000))
                .unwrap()
                .boom(BoomConfig::medium(), &spec::mcf_sized(1 << 14, 4_000))
                .unwrap()
                .build()
        };
        let mut lockstep = build();
        let reference = lockstep.run(50_000_000).unwrap();
        for jobs in [1, 2] {
            let mut soc = build();
            let parallel = soc.run_parallel(50_000_000, jobs).unwrap();
            assert_reports_identical(&reference, &parallel, &format!("contended jobs={jobs}"));
            assert_eq!(
                lockstep.shared_l2().contention_cycles(),
                soc.shared_l2().contention_cycles(),
                "shared-L2 contention tally must match at jobs={jobs}"
            );
            assert_eq!(
                lockstep.shared_l2().accesses(),
                soc.shared_l2().accesses(),
                "shared-L2 access tally must match at jobs={jobs}"
            );
        }
    }

    #[test]
    fn soc_mix_builds_and_runs_each_named_topology() {
        for mix in SocMix::ALL {
            assert_eq!(SocMix::from_name(mix.name()), Some(mix));
            let workloads: Vec<_> = (0..mix.num_cores())
                .map(|i| micro::vvadd(64 + 16 * i as u64))
                .collect();
            let mut soc = mix.build(&workloads).unwrap();
            assert_eq!(soc.num_cores(), mix.num_cores());
            let reports = soc.run_auto(10_000_000).unwrap();
            assert!(reports.iter().all(|r| r.report.instret > 0));
        }
        assert_eq!(SocMix::from_name("soc-frob"), None);
    }

    #[test]
    fn soc_jobs_parses_and_round_trips() {
        assert_eq!(SocJobs::from_name("lockstep"), Some(SocJobs::Lockstep));
        assert_eq!(SocJobs::from_name("0"), Some(SocJobs::Lockstep));
        assert_eq!(SocJobs::from_name("4"), Some(SocJobs::Parallel(4)));
        assert_eq!(SocJobs::from_name("frob"), None);
        for j in [
            SocJobs::Lockstep,
            SocJobs::Parallel(1),
            SocJobs::Parallel(8),
        ] {
            assert_eq!(SocJobs::from_name(&j.name()), Some(j));
        }
        // Unset global, no env: the reference engine.
        assert_eq!(SocJobs::resolve(None), SocJobs::Lockstep);
        assert_eq!(
            SocJobs::resolve(Some(SocJobs::Parallel(2))),
            SocJobs::Parallel(2)
        );
    }
}
