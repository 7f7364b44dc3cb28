//! Counter programming, the per-core counter session, and the
//! measurement loop.

use icicle_events::{EventCore, EventCounts, EventId, EventVector, LaneCounts};
use icicle_pmu::{CounterArch, CsrFile, EventSelection, HpmConfig, PmuError};
use icicle_tma::{TlbCosts, TlbInput, TlbLevel, TmaInput, TmaModel};
use icicle_trace::{Trace, TraceConfig};

use crate::error::PerfError;
use crate::report::PerfReport;

/// Whether the measurement loop may fast-forward quiescent spans.
///
/// With skipping on, the harness asks the core for a
/// [`time_until_next_event`](EventCore::time_until_next_event) bound each
/// cycle; when the core proves the next `n` cycles are pure stall (one
/// repeated event vector, nothing retired), the harness takes one real
/// step, fast-forwards the remaining `n − 1` cycles, and settles every
/// counter, trace, and lane contribution in closed form. The contract is
/// bit-identity: every observable output — counters, TMA slots, traces,
/// even the cycle at which a budget error fires — is byte-for-byte equal
/// between the two policies. `tests/skip_equivalence.rs` enforces this
/// over the full verification matrix.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum SkipPolicy {
    /// Step every cycle (the reference behavior).
    #[default]
    Off,
    /// Fast-forward spans the core proves quiescent.
    On,
}

/// Process-wide override set by the CLI's `--skip` flag: 0 = unset,
/// 1 = off, 2 = on.
static GLOBAL_SKIP: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

impl SkipPolicy {
    /// The kebab-case name used in logs and job specs.
    pub fn name(self) -> &'static str {
        match self {
            SkipPolicy::Off => "off",
            SkipPolicy::On => "on",
        }
    }

    /// Parses `"on"`/`"1"`/`"true"` and `"off"`/`"0"`/`"false"`.
    pub fn from_name(name: &str) -> Option<SkipPolicy> {
        match name.trim().to_ascii_lowercase().as_str() {
            "on" | "1" | "true" => Some(SkipPolicy::On),
            "off" | "0" | "false" => Some(SkipPolicy::Off),
            _ => None,
        }
    }

    /// Installs a process-wide override (the CLI's `--skip` flag).
    ///
    /// Tests must not use this (nor `ICICLE_SKIP`) to flip modes within a
    /// process — they run multi-threaded; pass an explicit policy through
    /// the options struct instead.
    pub fn set_global(policy: SkipPolicy) {
        let encoded = match policy {
            SkipPolicy::Off => 1,
            SkipPolicy::On => 2,
        };
        GLOBAL_SKIP.store(encoded, std::sync::atomic::Ordering::Relaxed);
    }

    /// The ambient policy: the process-wide override if set, else the
    /// `ICICLE_SKIP` environment variable, else `Off`.
    pub fn resolve() -> SkipPolicy {
        match GLOBAL_SKIP.load(std::sync::atomic::Ordering::Relaxed) {
            1 => return SkipPolicy::Off,
            2 => return SkipPolicy::On,
            _ => {}
        }
        std::env::var("ICICLE_SKIP")
            .ok()
            .and_then(|v| SkipPolicy::from_name(&v))
            .unwrap_or(SkipPolicy::Off)
    }
}

impl std::fmt::Display for SkipPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Time-multiplexing configuration for counter-constrained PMUs.
///
/// Counter pressure is real: the paper cites it as the reason vendors
/// multiplex and approximate (§I), and Table IV's cores have only 31
/// programmable counters. With multiplexing enabled, only
/// `hw_counters` event groups count at any moment; groups rotate every
/// `quantum` cycles and the harness linearly extrapolates each event by
/// `total_cycles / active_cycles`, exactly like Linux perf.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct MultiplexOptions {
    /// Concurrently active counters (must be ≥ 1).
    pub hw_counters: usize,
    /// Cycles between group rotations (must be ≥ 1).
    pub quantum: u64,
}

/// Options of a measurement session.
#[derive(Clone, Debug)]
pub struct PerfOptions {
    /// Counter implementation used for the multi-lane TMA events
    /// (scalar events always use stock counters, which are exact for
    /// them).
    pub arch: CounterArch,
    /// Abort if the workload has not finished after this many cycles.
    pub max_cycles: u64,
    /// Optionally record a cycle trace alongside the counters.
    pub trace: Option<TraceConfig>,
    /// Bound the trace to a ring of this many most-recent cycles
    /// (`None` = unbounded).
    pub trace_capacity: Option<usize>,
    /// Events whose per-lane rates should be accumulated (Table V).
    pub lane_events: Vec<EventId>,
    /// Override the TMA model; `None` derives it from the core's commit
    /// width ([`TmaModel::for_commit_width`]).
    pub tma_model: Option<TmaModel>,
    /// Time-multiplex the counters instead of counting every event all
    /// the time.
    pub multiplex: Option<MultiplexOptions>,
    /// Whether quiescent spans may be fast-forwarded. The default is the
    /// *ambient* policy ([`SkipPolicy::resolve`]): `--skip` /
    /// `ICICLE_SKIP=1` flip every session in the process that does not
    /// pin a policy explicitly.
    pub skip: SkipPolicy,
}

impl Default for PerfOptions {
    fn default() -> PerfOptions {
        PerfOptions {
            arch: CounterArch::AddWires,
            max_cycles: 100_000_000,
            trace: None,
            trace_capacity: None,
            lane_events: Vec::new(),
            tma_model: None,
            multiplex: None,
            skip: SkipPolicy::resolve(),
        }
    }
}

/// The measurement harness.
#[derive(Clone, Debug, Default)]
pub struct Perf {
    options: PerfOptions,
}

impl Perf {
    /// A harness with default options (add-wires counters).
    pub fn new() -> Perf {
        Perf::default()
    }

    /// A harness with explicit options.
    pub fn with_options(options: PerfOptions) -> Perf {
        Perf { options }
    }

    /// The counter implementation used for multi-lane events.
    pub fn arch(mut self, arch: CounterArch) -> Perf {
        self.options.arch = arch;
        self
    }

    /// Record a cycle trace alongside the counters.
    pub fn trace(mut self, config: TraceConfig) -> Perf {
        self.options.trace = Some(config);
        self
    }

    /// Accumulate per-lane totals for `event` (Table V).
    pub fn lanes(mut self, event: EventId) -> Perf {
        self.options.lane_events.push(event);
        self
    }

    /// Pin the cycle-skipping policy, overriding the ambient default.
    pub fn skip(mut self, policy: SkipPolicy) -> Perf {
        self.options.skip = policy;
        self
    }

    /// Programs one counter per event (steps 1–4 of §IV-D), runs the
    /// core to completion, reads every counter, and applies TMA.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::Pmu`] if counter programming fails and
    /// [`PerfError::CycleBudget`] if the core has not finished after
    /// `max_cycles` — a runaway workload degrades into a typed error
    /// the campaign runner can record as a per-cell timeout, instead of
    /// panicking the worker.
    pub fn run(&self, core: &mut dyn EventCore) -> Result<PerfReport, PerfError> {
        // One span per measurement session (never per cycle — the loop
        // below is the hottest path in the workspace).
        let _session_span = icicle_obs::span_with(icicle_obs::Level::Debug, "perf.run", || {
            vec![
                ("core", core.name().into()),
                ("max_cycles", self.options.max_cycles.into()),
                ("traced", self.options.trace.is_some().into()),
            ]
        });
        let mut session = CounterSession::new(core, &self.options)?;
        let max_cycles = self.options.max_cycles;

        let skipping = self.options.skip == SkipPolicy::On;
        // Probe throttle: `time_until_next_event` walks every pipeline
        // structure, which costs about as much as a step on the larger
        // cores. A quiescent span retires nothing on any of its cycles,
        // so a cycle that *did* retire cannot be inside one — after such
        // a cycle the next probe is deferred until a retire-free cycle
        // goes by. Probing later within a span only shortens the claim
        // (soundness is untouched); at most one leading cycle per span
        // falls back to the stepped path.
        let mut probe = true;
        // Skip-engine health, tallied in plain locals so the loop below
        // carries no atomics; settled once after the loop.
        let mut skip_spans = 0u64;
        let mut skip_cycles = 0u64;
        let mut skip_probes = 0u64;
        let mut skip_probe_misses = 0u64;
        let mut skip_buckets = [0u64; icicle_obs::SKIP_SPAN_BOUNDS.len() + 1];
        let start_cycle = core.cycle();
        while !core.is_done() {
            let c = core.cycle();
            if c >= max_cycles {
                return Err(PerfError::CycleBudget {
                    core: core.name().to_string(),
                    budget: max_cycles,
                });
            }
            if skipping && probe {
                skip_probes += 1;
                if let Some(n) = core.time_until_next_event() {
                    // Cap the span so the budget check and the multiplex
                    // rotation still land on exactly the cycles they
                    // would in stepped mode.
                    let k = n.min(max_cycles - c).min(session.span_limit());
                    if k >= 2 {
                        // One real step yields the span's repeated vector;
                        // the rest of the span joins the session's run of
                        // it without being stepped.
                        session.observe(core.step());
                        core.fast_forward(k - 1);
                        session.repeat_last(k - 1);
                        skip_spans += 1;
                        skip_cycles += k;
                        skip_buckets[icicle_obs::skip_span_bucket(k)] += 1;
                        continue;
                    }
                }
                skip_probe_misses += 1;
            }
            let vector = core.step();
            probe = !skipping || vector.count(EventId::InstrRetired) == 0;
            session.observe(vector);
        }

        // Global simulator tallies, settled once per session rather than
        // per cycle — the step() loop above stays free of any
        // observability cost, enabled or not.
        if icicle_obs::sim_enabled() {
            let stepped = core.cycle() - start_cycle;
            let stats = icicle_obs::sim_stats();
            let tally = if core.name() == "rocket" {
                &stats.rocket_cycles
            } else {
                &stats.boom_cycles
            };
            tally.fetch_add(stepped, std::sync::atomic::Ordering::Relaxed);
        }
        // Skip-engine tallies settle the same way: once, after the loop.
        icicle_obs::record_skip(
            skip_spans,
            skip_cycles,
            skip_probes,
            skip_probe_misses,
            &skip_buckets,
        );

        Ok(session.finish()?)
    }
}

/// The counter state of one measured core: its CSR file plus the
/// harness-side views (perfect counts, lanes, an optional trace) that
/// every cycle's event vector feeds.
///
/// [`Perf::run`] and both SoC engines drive a session the same way:
/// the driver owns the cycle budget and the scheduling, and hands each
/// stepped cycle (or skipped span) to the core's session, so counters
/// are ticked, read back, and turned into TMA slots along one path.
///
/// A session counts in runs: consecutive cycles that raise the same
/// vector only lengthen a pending run, and the run is settled in closed
/// form when the vector changes, before a multiplex rotation, and in
/// [`finish`](CounterSession::finish). The result is bit-identical to
/// ticking every cycle; the cost scales with the number of runs.
#[derive(Clone, Debug)]
pub struct CounterSession {
    core_name: String,
    model: TmaModel,
    csr: CsrFile,
    /// The event each programmable counter counts, by counter index.
    events: Vec<EventId>,
    perfect: EventCounts,
    lanes: Vec<LaneCounts>,
    trace: Option<Trace>,
    mux: Option<Multiplexer>,
    /// The pending run: `run_cycles` consecutive cycles, not yet settled
    /// into the state above, that all raised `run_vector`.
    run_vector: EventVector,
    run_cycles: u64,
}

impl CounterSession {
    /// Performs steps 1–4 of §IV-D for every programmable event of
    /// `core` against a fresh CSR file — one counter per event (cycles
    /// and instret are the fixed counters), multi-lane events under
    /// `options.arch`, scalar events under stock counters — and sets up
    /// the trace, lanes, multiplexing, and TMA model `options` ask for.
    ///
    /// # Errors
    ///
    /// Returns a [`PmuError`] if any programming step fails.
    pub fn new(core: &dyn EventCore, options: &PerfOptions) -> Result<CounterSession, PmuError> {
        let mut csr = CsrFile::new();
        csr.enable();
        let events: Vec<EventId> = EventId::ALL
            .into_iter()
            .filter(|e| !matches!(e, EventId::Cycles | EventId::InstrRetired))
            .collect();
        for (slot, &event) in events.iter().enumerate() {
            // Multi-lane events take one source per issue or commit lane.
            let sources = match event {
                EventId::UopsIssued => core.issue_width(),
                EventId::FetchBubbles | EventId::UopsRetired | EventId::DCacheBlocked => {
                    core.commit_width()
                }
                _ => 1,
            };
            let arch = if sources > 1 {
                options.arch
            } else {
                CounterArch::Stock
            };
            csr.configure(
                slot,
                HpmConfig {
                    selection: EventSelection::single(event),
                    arch,
                    sources,
                },
            )?;
            csr.clear_inhibit(slot)?;
        }
        let mux = match options.multiplex {
            Some(m) => Multiplexer::start(m, &mut csr, events.len(), core.cycle())?,
            None => None,
        };
        Ok(CounterSession {
            core_name: core.name().to_string(),
            model: options
                .tma_model
                .unwrap_or_else(|| TmaModel::for_commit_width(core.commit_width())),
            csr,
            events,
            perfect: EventCounts::new(),
            lanes: options
                .lane_events
                .iter()
                .map(|e| LaneCounts::new(*e))
                .collect(),
            trace: options
                .trace
                .clone()
                .map(|cfg| match options.trace_capacity {
                    Some(capacity) => Trace::with_capacity(cfg, capacity),
                    None => Trace::new(cfg),
                }),
            mux,
            run_vector: EventVector::new(),
            run_cycles: 0,
        })
    }

    /// How many cycles, starting with the next observed one, fit before
    /// the next multiplex rotation.
    fn span_limit(&self) -> u64 {
        self.mux.as_ref().map_or(u64::MAX, |m| {
            let cycle = m.cycle + self.run_cycles;
            (cycle / m.quantum + 1) * m.quantum - cycle
        })
    }

    /// Counts one cycle's event vector.
    #[inline]
    pub fn observe(&mut self, vector: &EventVector) {
        // A rotation takes effect at the start of a quantum, so a run
        // may not carry on into one.
        let rotates = self
            .mux
            .as_ref()
            .is_some_and(|m| (m.cycle + self.run_cycles).is_multiple_of(m.quantum));
        if !rotates && *vector == self.run_vector {
            self.run_cycles += 1;
            return;
        }
        self.settle();
        self.run_vector.clone_from(vector);
        self.run_cycles = 1;
    }

    /// Counts `cycles` more cycles of the last observed vector. The
    /// caller keeps them within [`span_limit`](CounterSession::span_limit)
    /// as it stood before that observation.
    fn repeat_last(&mut self, cycles: u64) {
        self.run_cycles += cycles;
    }

    /// Counts the pending run in closed form and empties it.
    fn settle(&mut self) {
        let (vector, cycles) = (&self.run_vector, self.run_cycles);
        if cycles == 0 {
            return;
        }
        if let Some(m) = &mut self.mux {
            m.advance(&mut self.csr, cycles);
        }
        self.csr.tick_many(vector, cycles);
        self.perfect.observe_many(vector, cycles);
        if let Some(t) = &mut self.trace {
            t.record_many(vector, cycles);
        }
        for l in &mut self.lanes {
            l.observe_many(vector, cycles);
        }
        self.run_cycles = 0;
    }

    /// Reads every counter back and applies TMA and the TLB drill-down.
    ///
    /// # Errors
    ///
    /// Returns a [`PmuError`] if a counter cannot be read.
    pub fn finish(mut self) -> Result<PerfReport, PmuError> {
        self.settle();
        // Read the counters back into an event-count view (the software
        // perspective: distributed counters include their 2^N
        // post-processing loss here, exactly as on hardware; multiplexed
        // counters are linearly extrapolated like Linux perf).
        let cycles = self.csr.mcycle();
        let instret = self.csr.minstret();
        let mut hw = EventCounts::new();
        hw.set(EventId::Cycles, cycles);
        hw.set(EventId::InstrRetired, instret);
        for (slot, event) in self.events.iter().enumerate() {
            let raw = self.csr.read(slot)?;
            let scaled = self
                .mux
                .as_ref()
                .map_or(raw, |m| m.extrapolate(slot, raw, cycles));
            hw.set(*event, scaled);
        }

        let tma = self.model.analyze(&TmaInput::from_counts(&hw));
        let tlb = TlbLevel::analyze(
            &tma,
            &TlbInput {
                itlb_misses: hw.get(EventId::ITlbMiss),
                dtlb_misses: hw.get(EventId::DTlbMiss),
                l2_tlb_misses: hw.get(EventId::L2TlbMiss),
            },
            &TlbCosts::default(),
            cycles,
            self.model.commit_width,
        );

        Ok(PerfReport {
            core_name: self.core_name,
            cycles,
            instret,
            hw_counts: hw,
            perfect_counts: self.perfect,
            tma,
            tlb,
            trace: self.trace,
            lanes: self.lanes,
        })
    }
}

/// Multiplex rotation state: counters rotate in groups of `group_size`
/// every `quantum` cycles, and each group's active time is kept for the
/// read-back extrapolation.
#[derive(Clone, Debug)]
struct Multiplexer {
    counters: usize,
    group_size: usize,
    quantum: u64,
    /// The core cycle of the next settled cycle.
    cycle: u64,
    active_group: usize,
    active_cycles: Vec<u64>,
}

impl Multiplexer {
    /// Leaves only group 0 counting; `None` when every counter fits in
    /// one group and nothing needs to rotate.
    fn start(
        options: MultiplexOptions,
        csr: &mut CsrFile,
        counters: usize,
        cycle: u64,
    ) -> Result<Option<Multiplexer>, PmuError> {
        let group_size = options.hw_counters.max(1);
        let groups = counters.div_ceil(group_size);
        if groups <= 1 {
            return Ok(None);
        }
        for slot in group_size..counters {
            csr.set_inhibit(slot)?;
        }
        Ok(Some(Multiplexer {
            counters,
            group_size,
            quantum: options.quantum.max(1),
            cycle,
            active_group: 0,
            active_cycles: vec![0; groups],
        }))
    }

    /// Accounts `cycles` counted cycles to the active group, first
    /// rotating (freeze the active group, release the next) when they
    /// start on a quantum boundary.
    fn advance(&mut self, csr: &mut CsrFile, cycles: u64) {
        if self.cycle > 0 && self.cycle.is_multiple_of(self.quantum) {
            let next = (self.active_group + 1) % self.active_cycles.len();
            for slot in 0..self.counters {
                match slot / self.group_size {
                    g if g == self.active_group => csr.set_inhibit(slot),
                    g if g == next => csr.clear_inhibit(slot),
                    _ => Ok(()),
                }
                .expect("multiplexed counters are programmed");
            }
            self.active_group = next;
        }
        self.active_cycles[self.active_group] += cycles;
        self.cycle += cycles;
    }

    /// Scales a counter's raw count by its group's `total / active`
    /// cycles.
    fn extrapolate(&self, slot: usize, raw: u64, total_cycles: u64) -> u64 {
        let active = self.active_cycles[slot / self.group_size].max(1);
        ((raw as u128 * total_cycles as u128) / active as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icicle_boom::{Boom, BoomConfig};
    use icicle_rocket::{Rocket, RocketConfig};
    use icicle_trace::TraceChannel;
    use icicle_workloads::micro;

    fn rocket_core(w: &icicle_workloads::Workload) -> Rocket {
        Rocket::new(RocketConfig::default(), w.execute().unwrap())
    }

    fn boom_core(w: &icicle_workloads::Workload) -> Boom {
        Boom::new(
            BoomConfig::large(),
            w.execute().unwrap(),
            w.program().clone(),
        )
    }

    #[test]
    fn rocket_report_is_coherent() {
        let w = micro::vvadd(512);
        let mut core = rocket_core(&w);
        let r = Perf::new().run(&mut core).unwrap();
        assert_eq!(r.core_name, "rocket");
        assert!(r.cycles > 0);
        assert!((r.tma.top.total() - 1.0).abs() < 1e-9);
        // Stock counters on scalar events are exact.
        assert_eq!(
            r.hw_counts.get(EventId::ICacheMiss),
            r.perfect_counts.get(EventId::ICacheMiss)
        );
    }

    #[test]
    fn addwires_hw_counts_match_perfect_on_boom() {
        let w = micro::qsort(256);
        let mut core = boom_core(&w);
        let r = Perf::new().run(&mut core).unwrap();
        for e in [
            EventId::UopsIssued,
            EventId::UopsRetired,
            EventId::FetchBubbles,
            EventId::DCacheBlocked,
        ] {
            assert_eq!(
                r.hw_counts.get(e),
                r.perfect_counts.get(e),
                "add-wires must be exact for {e}"
            );
        }
    }

    #[test]
    fn distributed_counters_undercount_within_bound() {
        let w = micro::rsort(512);
        let mut core = boom_core(&w);
        let r = Perf::with_options(PerfOptions {
            arch: CounterArch::Distributed,
            ..PerfOptions::default()
        })
        .run(&mut core)
        .unwrap();
        for e in [EventId::UopsIssued, EventId::UopsRetired] {
            let hw = r.hw_counts.get(e);
            let exact = r.perfect_counts.get(e);
            assert!(hw <= exact, "{e}: hw {hw} > exact {exact}");
            // Bound: sources × (2^N − 1 + 2^N), well under 200 here.
            assert!(exact - hw <= 200, "{e}: undercount {}", exact - hw);
        }
    }

    #[test]
    fn stock_counters_undercount_concurrent_events() {
        let w = micro::vvadd(1024);
        let mut core = boom_core(&w);
        let r = Perf::with_options(PerfOptions {
            arch: CounterArch::Stock,
            ..PerfOptions::default()
        })
        .run(&mut core)
        .unwrap();
        // A 3-wide core retires >1 µop/cycle: the OR semantics lose the
        // concurrency.
        assert!(r.hw_counts.get(EventId::UopsRetired) < r.perfect_counts.get(EventId::UopsRetired));
    }

    #[test]
    fn trace_and_lane_collection() {
        let w = micro::mergesort(256);
        let mut core = boom_core(&w);
        let cfg = TraceConfig::new(vec![
            TraceChannel::scalar(EventId::ICacheMiss),
            TraceChannel::scalar(EventId::Recovering),
            TraceChannel::scalar(EventId::FetchBubbles),
        ])
        .unwrap();
        let r = Perf::new()
            .trace(cfg)
            .lanes(EventId::FetchBubbles)
            .run(&mut core)
            .unwrap();
        let trace = r.trace.as_ref().unwrap();
        assert_eq!(trace.len() as u64, r.cycles);
        assert_eq!(r.lanes.len(), 1);
        assert_eq!(r.lanes[0].cycles(), r.cycles);
    }

    #[test]
    fn ring_traces_keep_only_the_tail() {
        use icicle_trace::TraceChannel;
        let w = micro::vvadd(512);
        let mut core = boom_core(&w);
        let cfg = TraceConfig::new(vec![TraceChannel::scalar(EventId::Cycles)]).unwrap();
        let r = Perf::with_options(PerfOptions {
            trace: Some(cfg),
            trace_capacity: Some(128),
            ..PerfOptions::default()
        })
        .run(&mut core)
        .unwrap();
        let t = r.trace.as_ref().unwrap();
        assert_eq!(t.len(), 128);
        assert_eq!(t.end_cycle(), r.cycles);
        assert_eq!(t.first_cycle(), r.cycles - 128);
    }

    #[test]
    fn multiplexed_counts_extrapolate_close_to_truth() {
        // A steady workload: rotating 6 counters at a time over the 28
        // programmable events and extrapolating must land near the
        // always-on counts.
        let w = micro::rsort(512);
        let mut core = boom_core(&w);
        let full = Perf::new().run(&mut core).unwrap();
        let mut core = boom_core(&w);
        let muxed = Perf::with_options(PerfOptions {
            multiplex: Some(MultiplexOptions {
                hw_counters: 6,
                quantum: 512,
            }),
            ..PerfOptions::default()
        })
        .run(&mut core)
        .unwrap();
        // Fixed counters are never multiplexed.
        assert_eq!(full.cycles, muxed.cycles);
        assert_eq!(full.instret, muxed.instret);
        for e in [
            EventId::UopsIssued,
            EventId::UopsRetired,
            EventId::DCacheBlocked,
        ] {
            let exact = full.hw_counts.get(e) as f64;
            let est = muxed.hw_counts.get(e) as f64;
            let err = (est - exact).abs() / exact.max(1.0);
            assert!(
                err < 0.25,
                "{e}: extrapolated {est} vs exact {exact} (err {err:.2})"
            );
        }
        // The TMA shape survives multiplexing.
        assert_eq!(muxed.tma.top.dominant().0, full.tma.top.dominant().0);
    }

    #[test]
    fn multiplexing_with_enough_counters_is_exact() {
        let w = micro::vvadd(256);
        let mut core = boom_core(&w);
        let full = Perf::new().run(&mut core).unwrap();
        let mut core = boom_core(&w);
        let muxed = Perf::with_options(PerfOptions {
            multiplex: Some(MultiplexOptions {
                hw_counters: 31,
                quantum: 64,
            }),
            ..PerfOptions::default()
        })
        .run(&mut core)
        .unwrap();
        for e in EventId::ALL {
            assert_eq!(full.hw_counts.get(e), muxed.hw_counts.get(e), "{e}");
        }
    }

    #[test]
    fn over_budget_runs_become_typed_errors() {
        let w = micro::mergesort(1 << 10);
        let mut core = rocket_core(&w);
        let err = Perf::with_options(PerfOptions {
            max_cycles: 100,
            ..PerfOptions::default()
        })
        .run(&mut core)
        .unwrap_err();
        match &err {
            PerfError::CycleBudget { core, budget } => {
                assert_eq!(core, "rocket");
                assert_eq!(*budget, 100);
            }
            other => panic!("expected a budget error, got {other:?}"),
        }
        assert!(err.to_string().contains("100-cycle budget"));
    }

    fn assert_reports_identical(off: &PerfReport, on: &PerfReport) {
        assert_eq!(off.core_name, on.core_name);
        assert_eq!(off.cycles, on.cycles, "cycle counts diverged");
        assert_eq!(off.instret, on.instret, "instret diverged");
        assert_eq!(off.hw_counts, on.hw_counts, "hw counters diverged");
        assert_eq!(
            off.perfect_counts, on.perfect_counts,
            "perfect counters diverged"
        );
        assert_eq!(off.lanes, on.lanes, "lane totals diverged");
        // `Debug` prints every f64 in its shortest round-trip form, so
        // equal strings mean bit-equal fractions.
        assert_eq!(
            format!("{:?}", off.tma),
            format!("{:?}", on.tma),
            "TMA diverged"
        );
        assert_eq!(
            format!("{:?}", off.tlb),
            format!("{:?}", on.tlb),
            "TLB diverged"
        );
        match (&off.trace, &on.trace) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.len(), b.len());
                assert_eq!(a.dropped(), b.dropped());
                assert_eq!(a.end_cycle(), b.end_cycle());
                for cycle in a.first_cycle()..a.end_cycle() {
                    assert_eq!(a.word(cycle), b.word(cycle), "trace word at {cycle}");
                }
            }
            _ => panic!("one mode produced a trace, the other did not"),
        }
    }

    #[test]
    fn skip_mode_is_bit_identical_on_both_cores() {
        let w = micro::mergesort(512);
        for traced in [false, true] {
            let opts = |skip| PerfOptions {
                skip,
                trace: traced.then(|| {
                    TraceConfig::new(vec![
                        TraceChannel::scalar(EventId::DCacheBlocked),
                        TraceChannel::lane(EventId::FetchBubbles, 0),
                        TraceChannel::scalar(EventId::Recovering),
                    ])
                    .unwrap()
                }),
                lane_events: vec![EventId::FetchBubbles, EventId::UopsIssued],
                ..PerfOptions::default()
            };
            let mut core = rocket_core(&w);
            let off = Perf::with_options(opts(SkipPolicy::Off))
                .run(&mut core)
                .unwrap();
            let mut core = rocket_core(&w);
            let on = Perf::with_options(opts(SkipPolicy::On))
                .run(&mut core)
                .unwrap();
            assert_reports_identical(&off, &on);

            let mut core = boom_core(&w);
            let off = Perf::with_options(opts(SkipPolicy::Off))
                .run(&mut core)
                .unwrap();
            let mut core = boom_core(&w);
            let on = Perf::with_options(opts(SkipPolicy::On))
                .run(&mut core)
                .unwrap();
            assert_reports_identical(&off, &on);
        }
    }

    #[test]
    fn skip_mode_respects_multiplex_rotation() {
        // Spans must be cut at quantum boundaries so rotations land on the
        // exact cycles stepped mode rotates on.
        let w = micro::rsort(512);
        let opts = |skip| PerfOptions {
            skip,
            multiplex: Some(MultiplexOptions {
                hw_counters: 6,
                quantum: 512,
            }),
            ..PerfOptions::default()
        };
        let mut core = boom_core(&w);
        let off = Perf::with_options(opts(SkipPolicy::Off))
            .run(&mut core)
            .unwrap();
        let mut core = boom_core(&w);
        let on = Perf::with_options(opts(SkipPolicy::On))
            .run(&mut core)
            .unwrap();
        assert_reports_identical(&off, &on);
    }

    #[test]
    fn skip_mode_budget_errors_fire_on_the_same_cycle() {
        let w = micro::mergesort(1 << 10);
        for skip in [SkipPolicy::Off, SkipPolicy::On] {
            let mut core = rocket_core(&w);
            let err = Perf::with_options(PerfOptions {
                max_cycles: 100,
                skip,
                ..PerfOptions::default()
            })
            .run(&mut core)
            .unwrap_err();
            assert!(matches!(err, PerfError::CycleBudget { budget: 100, .. }));
            // The core must stop exactly at the budget, not beyond it.
            assert_eq!(core.cycle(), 100, "skip {skip} overshot the budget");
        }
    }

    /// A core that only answers the questions `CounterSession::new`
    /// asks; the tests below hand-feed the session its vectors.
    struct StubCore {
        cycle: u64,
    }

    impl EventCore for StubCore {
        fn step(&mut self) -> &EventVector {
            unimplemented!("stub cores are never stepped")
        }
        fn is_done(&self) -> bool {
            true
        }
        fn cycle(&self) -> u64 {
            self.cycle
        }
        fn commit_width(&self) -> usize {
            3
        }
        fn issue_width(&self) -> usize {
            4
        }
        fn name(&self) -> &str {
            "stub"
        }
    }

    /// The per-cycle reference for batching: every view advances by
    /// exactly one cycle, through the one-cycle primitives rather than
    /// the closed forms a settled run uses.
    fn observe_unbatched(s: &mut CounterSession, vector: &EventVector) {
        if let Some(m) = &mut s.mux {
            m.advance(&mut s.csr, 1);
        }
        s.csr.tick(vector);
        s.perfect.observe(vector);
        if let Some(t) = &mut s.trace {
            t.record(vector);
        }
        for l in &mut s.lanes {
            l.observe(vector);
        }
    }

    /// A random vector over every event: the multi-lane events raise a
    /// random lane mask within the stub's widths, the rest a count of
    /// 1–2. A retire-free vector raises neither retire event.
    fn random_vector(rng: &mut icicle_workloads::XorShift, retires: bool) -> EventVector {
        let mut v = EventVector::new();
        for e in EventId::ALL {
            if rng.below(3) != 0 {
                continue;
            }
            if !retires && matches!(e, EventId::InstrRetired | EventId::UopsRetired) {
                continue;
            }
            let lanes = match e {
                EventId::UopsIssued => 4,
                EventId::FetchBubbles | EventId::UopsRetired | EventId::DCacheBlocked => 3,
                _ => {
                    v.raise_n(e, 1 + rng.below(2) as u16);
                    continue;
                }
            };
            for lane in 0..lanes {
                if rng.below(2) == 0 {
                    v.raise_lane(e, lane);
                }
            }
        }
        v
    }

    fn batching_options(arch: CounterArch, multiplex: Option<MultiplexOptions>) -> PerfOptions {
        PerfOptions {
            arch,
            trace: Some(
                TraceConfig::new(vec![
                    TraceChannel::scalar(EventId::DCacheBlocked),
                    TraceChannel::lane(EventId::FetchBubbles, 1),
                    TraceChannel::scalar(EventId::InstrRetired),
                    TraceChannel::lane(EventId::UopsIssued, 3),
                ])
                .unwrap(),
            ),
            trace_capacity: Some(128),
            lane_events: vec![EventId::FetchBubbles, EventId::UopsIssued],
            multiplex,
            ..PerfOptions::default()
        }
    }

    #[test]
    fn batched_sessions_match_per_cycle_counting() {
        let muxes = [
            None,
            Some(MultiplexOptions {
                hw_counters: 6,
                quantum: 1,
            }),
            Some(MultiplexOptions {
                hw_counters: 6,
                quantum: 7,
            }),
            Some(MultiplexOptions {
                hw_counters: 6,
                quantum: 512,
            }),
        ];
        let mut seed = 0;
        for arch in CounterArch::ALL {
            for multiplex in muxes {
                for start in [0, 1_000_003] {
                    seed += 1;
                    let mut rng = icicle_workloads::XorShift::new(seed);
                    let core = StubCore { cycle: start };
                    let options = batching_options(arch, multiplex);
                    let mut batched = CounterSession::new(&core, &options).unwrap();
                    let mut reference = CounterSession::new(&core, &options).unwrap();
                    // A few uneven warm-up cycles move the distributed
                    // arbiter off its reset position.
                    let warm = random_vector(&mut rng, true);
                    for _ in 0..1 + rng.below(5) {
                        batched.observe(&warm);
                        observe_unbatched(&mut reference, &warm);
                    }
                    let mut alphabet = vec![EventVector::new(), random_vector(&mut rng, false)];
                    alphabet.extend((0..4).map(|_| random_vector(&mut rng, true)));
                    for _ in 0..40 {
                        let v = &alphabet[rng.below(alphabet.len() as u64) as usize];
                        let mut run = match rng.below(3) {
                            0 => 1 + rng.below(3),
                            _ => 1 + rng.below(600),
                        };
                        for _ in 0..run {
                            observe_unbatched(&mut reference, v);
                        }
                        // Half the runs take the skip path's shape: one
                        // observation, then a span capped at the
                        // rotation limit that stood before it.
                        if run >= 2 && rng.below(2) == 0 {
                            let span = run.min(batched.span_limit());
                            batched.observe(v);
                            batched.repeat_last(span - 1);
                            run -= span;
                        }
                        for _ in 0..run {
                            batched.observe(v);
                        }
                    }
                    let context = format!("{arch:?}, {multiplex:?}, start {start}");
                    let (b, r) = (batched.finish().unwrap(), reference.finish().unwrap());
                    assert!(b.cycles > 0, "{context}");
                    assert_eq!(b.trace.as_ref().unwrap().len(), 128, "{context}");
                    assert_reports_identical(&r, &b);
                }
            }
        }
    }

    #[test]
    fn finish_settles_the_pending_run() {
        let core = StubCore { cycle: 5 };
        let options = batching_options(CounterArch::Distributed, None);
        let mut rng = icicle_workloads::XorShift::new(7);
        let (a, b) = (
            random_vector(&mut rng, true),
            random_vector(&mut rng, false),
        );
        let mut batched = CounterSession::new(&core, &options).unwrap();
        let mut reference = CounterSession::new(&core, &options).unwrap();
        for (v, cycles) in [(&a, 3), (&b, 200)] {
            for _ in 0..cycles {
                batched.observe(v);
                observe_unbatched(&mut reference, v);
            }
        }
        // The 200-cycle run of `b` is still pending here.
        assert_eq!(batched.run_cycles, 200);
        let (b, r) = (batched.finish().unwrap(), reference.finish().unwrap());
        assert_eq!(b.cycles, 203);
        assert_reports_identical(&r, &b);
    }

    #[test]
    fn skip_policy_parsing_round_trips() {
        assert_eq!(SkipPolicy::from_name("on"), Some(SkipPolicy::On));
        assert_eq!(SkipPolicy::from_name("1"), Some(SkipPolicy::On));
        assert_eq!(SkipPolicy::from_name("TRUE"), Some(SkipPolicy::On));
        assert_eq!(SkipPolicy::from_name("off"), Some(SkipPolicy::Off));
        assert_eq!(SkipPolicy::from_name("0"), Some(SkipPolicy::Off));
        assert_eq!(SkipPolicy::from_name("maybe"), None);
        assert_eq!(SkipPolicy::On.to_string(), "on");
    }

    #[test]
    fn tma_shapes_match_workload_character() {
        // qsort: Bad Speculation dominates lost slots (Fig. 7a).
        let w = micro::qsort(1 << 10);
        let mut core = rocket_core(&w);
        let q = Perf::new().run(&mut core).unwrap();
        // rsort: near-ideal retiring (Fig. 7a).
        let w = micro::rsort(1 << 10);
        let mut core = rocket_core(&w);
        let r = Perf::new().run(&mut core).unwrap();
        assert!(
            q.tma.top.bad_speculation > 2.0 * r.tma.top.bad_speculation,
            "qsort bad-spec {} vs rsort {}",
            q.tma.top.bad_speculation,
            r.tma.top.bad_speculation
        );
        // rsort's loop-centric control flow wastes almost nothing on
        // speculation: the paper calls it "near-ideal IPC".
        assert!(r.tma.top.bad_speculation < 0.02);
        assert!(r.tma.top.retiring > 0.6);
    }
}
