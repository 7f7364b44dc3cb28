//! Command implementations.

use std::error::Error;
use std::io::IsTerminal;
use std::sync::Arc;
use std::time::Instant;

use icicle::events::EventId;
use icicle::prelude::*;

use crate::args::{Command, CoreSelect, USAGE};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Writes the registry snapshot to `path` (atomically, so a reader or a
/// crash never sees a torn file), with the process-wide simulator
/// tallies folded in as `sim.*` counters so one document carries both
/// clock domains' totals. The tallies are settled as the delta since
/// `baseline` — they are cumulative process globals, and adding the
/// running total would double-count everything simulated before this
/// command's own work.
fn write_metrics(
    path: &str,
    registry: &MetricsRegistry,
    baseline: icicle::obs::SimCounts,
) -> Result<()> {
    let delta = icicle::obs::sim_stats().counts().since(baseline);
    registry
        .counter("sim.rocket_cycles")
        .add(delta.rocket_cycles);
    registry.counter("sim.boom_cycles").add(delta.boom_cycles);
    icicle::obs::write_atomic(path, &registry.render())
        .map_err(|e| format!("cannot write metrics `{path}`: {e}"))?;
    Ok(())
}

/// `1h02m`, `3m09s`, or `42s` — wide enough for campaign ETAs.
fn format_eta(seconds: f64) -> String {
    let s = seconds.max(0.0).round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

/// Executes a parsed command.
///
/// # Errors
///
/// Returns an error for unknown workloads or measurement failures.
pub fn run(cmd: Command) -> Result<()> {
    // One trace per CLI invocation: anything the command emits (spans,
    // events, flight-recorder records) correlates under this id unless
    // a harness below mints its own run-scoped trace.
    let invocation_trace = icicle::obs::TraceId::mint();
    let _scope = icicle::obs::enter(icicle::obs::TraceContext::root(invocation_trace));
    // The flight recorder is always on: bounded per-thread rings that
    // only see harness-granularity emit sites (never the simulator's
    // step loop), so the bench overhead gate holds with it armed.
    icicle::obs::arm_flight_recorder(0);
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::List { json } => list(json),
        cmd @ Command::Campaign { .. } => campaign(cmd),
        Command::Faults {
            seed,
            cases,
            demo,
            report,
            json,
        } => faults(seed, cases, demo, report.as_deref(), json),
        Command::Chaos {
            seed,
            cases,
            connections,
            weaken,
            report,
            json,
        } => chaos(
            seed,
            cases,
            connections,
            weaken.as_deref(),
            report.as_deref(),
            json,
        ),
        Command::Tma {
            workload,
            core,
            arch,
            json,
        } => tma(&workload, core, arch, json),
        Command::Disasm { workload } => {
            let w = lookup(&workload)?;
            print!("{}", w.program().disassemble());
            Ok(())
        }
        Command::Trace {
            workload,
            core,
            window,
            start,
        } => trace(&workload, core, window, start),
        Command::TraceExport { cell, out, window } => trace_export(&cell, out.as_deref(), window),
        Command::Lanes { workload, core } => lanes(&workload, core),
        Command::Mix { workload } => {
            let w = lookup(&workload)?;
            let stream = w.execute()?;
            let total = stream.len() as f64;
            println!("{}: {} dynamic instructions", w.name(), stream.len());
            for (class, count) in stream.class_mix() {
                println!(
                    "{:>10?} {:>10} {:>6.1}%",
                    class,
                    count,
                    100.0 * count as f64 / total
                );
            }
            Ok(())
        }
        Command::Profile {
            workload,
            core,
            period,
            event,
        } => profile(&workload, core, period, event),
        Command::Soc { pairs } => soc(&pairs),
        Command::Counters { workload, core } => counters(&workload, core),
        Command::Verify {
            matrix,
            fuzz,
            pdes,
            seed,
            bound,
            jobs,
            report,
            json,
            metrics_out,
        } => verify(
            matrix,
            fuzz,
            pdes,
            seed,
            bound,
            jobs,
            report.as_deref(),
            json,
            metrics_out.as_deref(),
        ),
        Command::Bench {
            json,
            json_path,
            baseline,
            warmup,
            repeats,
            metrics_out,
        } => bench(
            json,
            json_path.as_deref(),
            baseline.as_deref(),
            warmup,
            repeats,
            metrics_out.as_deref(),
        ),
        Command::BenchCompare {
            old,
            new,
            tolerance,
        } => bench_compare(&old, &new, tolerance),
        Command::Vlsi => vlsi(),
        Command::Serve {
            addr,
            data_dir,
            jobs,
            executors,
            capacity,
            per_client,
        } => serve(&addr, &data_dir, jobs, executors, capacity, per_client),
        cmd @ Command::Submit { .. } => submit(cmd),
        Command::Status { addr, id } => status(&addr, id),
        Command::JobResult { addr, id } => job_result(&addr, id),
        Command::Cancel { addr, id } => cancel(&addr, id),
    }
}

/// `serve`: run the analysis server until the process is killed.
fn serve(
    addr: &str,
    data_dir: &str,
    jobs: usize,
    executors: usize,
    capacity: usize,
    per_client: usize,
) -> Result<()> {
    use icicle_serve::{AnalysisService, SchedulerConfig, Server, ServiceConfig};
    let service = Arc::new(
        AnalysisService::open(ServiceConfig {
            data_dir: data_dir.into(),
            jobs,
            executors,
            scheduler: SchedulerConfig {
                capacity,
                per_client,
            },
        })
        .map_err(|e| format!("cannot open data dir `{data_dir}`: {e}"))?,
    );
    let executor_pool = service.start();
    let server = Server::bind(Arc::clone(&service), addr)
        .map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    // SIGTERM (and `POST /v1/shutdown`) trigger the same graceful
    // drain: stop accepting, cancel cooperatively at cell boundaries,
    // flush checkpoints, exit 0 — acknowledged work survives a restart.
    let shutdown = server.shutdown_handle()?;
    watch_sigterm(shutdown);
    // The resolved address goes to stderr (port 0 binds ephemerally);
    // stdout stays clean for scripted consumers.
    eprintln!("icicle-tma serving on {}", server.local_addr()?);
    server.run()?;
    for handle in executor_pool {
        let _ = handle.join();
    }
    service.flush();
    eprintln!("icicle-tma drained cleanly");
    Ok(())
}

/// Translates SIGTERM into a graceful server drain.
///
/// Installed with raw `signal(2)` — the workspace links no signal
/// crate — and kept async-signal-safe by doing nothing in the handler
/// but a store; a watcher thread turns the flag into the actual
/// shutdown trigger (which allocates and takes locks).
#[cfg(unix)]
fn watch_sigterm(shutdown: icicle_serve::ShutdownHandle) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static TERM: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term);
    }
    std::thread::spawn(move || loop {
        if TERM.load(Ordering::SeqCst) {
            eprintln!("icicle-tma caught SIGTERM; draining");
            shutdown.trigger();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    });
}

#[cfg(not(unix))]
fn watch_sigterm(_shutdown: icicle_serve::ShutdownHandle) {}

/// `submit`: POST a job and print its id, or `--wait` for the result.
fn submit(cmd: Command) -> Result<()> {
    use icicle::obs::Json;
    use icicle_serve::{Client, JobKind, Submission};
    let Command::Submit {
        addr,
        spec,
        verify,
        bench,
        bound,
        warmup,
        repeats,
        priority,
        client,
        wait,
    } = cmd
    else {
        unreachable!("run() dispatches only Submit here");
    };
    let kind = if verify {
        JobKind::Verify { flat_bound: bound }
    } else if bench {
        JobKind::Bench { warmup, repeats }
    } else {
        let path = spec.expect("the parser requires a spec path");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read campaign spec `{path}`: {e}"))?;
        JobKind::Campaign { spec: text }
    };
    let submission = Submission {
        kind,
        priority,
        client: client.unwrap_or_else(|| "anonymous".to_string()),
        // The server picks its own skip policy and SoC engine; results
        // are identical either way, so the CLI does not forward its
        // local `--skip` / `--soc-jobs`.
        skip: None,
        soc_jobs: None,
        // The client stamps a fresh key per submit call.
        idempotency_key: None,
    };
    let api = Client::new(addr);
    let id = api.submit(&submission)?;
    if !wait {
        // Just the id on stdout, so scripts can capture it.
        println!("{id}");
        return Ok(());
    }
    eprintln!("job {id} submitted; waiting");
    let status = api.wait(id, std::time::Duration::from_millis(200))?;
    match status.get("state").and_then(Json::as_str) {
        Some("done") => {
            // The canonical bytes, exactly as the direct command would
            // have printed them.
            print!("{}", api.result(id)?);
            // A job that finished with failing cells still fails the
            // command, mirroring the direct CLI's exit semantics.
            if matches!(status.get("passed"), Some(Json::Bool(false))) {
                return Err("job finished with failures (see the report)".into());
            }
            Ok(())
        }
        Some("cancelled") => Err(format!("job {id} was cancelled").into()),
        _ => Err(format!(
            "job {id} failed: {}",
            status
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error")
        )
        .into()),
    }
}

/// `status`: one job's status document, or one JSONL line per job.
fn status(addr: &str, id: Option<u64>) -> Result<()> {
    use icicle_serve::Client;
    let api = Client::new(addr);
    match id {
        Some(id) => println!("{}", api.status(id)?.render()),
        None => {
            for doc in api.jobs()? {
                println!("{}", doc.render_compact());
            }
        }
    }
    Ok(())
}

/// `result`: a finished job's canonical output, verbatim.
fn job_result(addr: &str, id: u64) -> Result<()> {
    use icicle_serve::Client;
    print!("{}", Client::new(addr).result(id)?);
    Ok(())
}

/// `cancel`: request cancellation and print the status after it.
fn cancel(addr: &str, id: u64) -> Result<()> {
    use icicle_serve::Client;
    println!("{}", Client::new(addr).cancel(id)?.render());
    Ok(())
}

fn bench(
    json: bool,
    json_path: Option<&str>,
    baseline_path: Option<&str>,
    warmup: u32,
    repeats: u32,
    metrics_out: Option<&str>,
) -> Result<()> {
    use icicle_bench::ledger::{self, Ledger, LedgerOptions};
    if cfg!(debug_assertions) {
        eprintln!(
            "warning: this is a debug build; ledger timings will not be \
             comparable to release numbers"
        );
    }
    let baseline = match baseline_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline ledger `{path}`: {e}"))?;
            Some(Ledger::parse(&text).map_err(|e| format!("bad baseline ledger `{path}`: {e}"))?)
        }
        None => None,
    };
    let registry = Arc::new(MetricsRegistry::new());
    let sim_baseline = icicle::obs::sim_stats().counts();
    if metrics_out.is_some() {
        icicle::obs::set_sim_stats(true);
    }
    // Progress ticks are ephemeral terminal feedback; skip them when
    // stderr is redirected so logs stay clean.
    let ticks = std::io::stderr().is_terminal();
    let options = LedgerOptions {
        warmup,
        repeats,
        progress: if ticks {
            Some(Box::new(|done, total, key| {
                eprint!("\r[{done}/{total}] {key:<40}");
            }))
        } else {
            None
        },
        metrics: Some(Arc::clone(&registry)),
        ..LedgerOptions::default()
    };
    let mut ledger = ledger::run_grid(&ledger::default_grid(), &options)?;
    if ticks {
        eprintln!();
    }
    if let Some(base) = &baseline {
        ledger = ledger.with_baseline(base);
    }
    // Under --json, stdout carries exactly the canonical ledger and
    // nothing else; the human table moves to stderr.
    if json {
        print!("{}", ledger.to_json());
        eprint!("{ledger}");
    } else {
        print!("{ledger}");
    }
    if let Some(path) = json_path {
        icicle::obs::write_atomic(path, &ledger.to_json())
            .map_err(|e| format!("cannot write ledger `{path}`: {e}"))?;
    }
    if let Some(path) = metrics_out {
        write_metrics(path, &registry, sim_baseline)?;
    }
    Ok(())
}

fn bench_compare(old_path: &str, new_path: &str, tolerance: f64) -> Result<()> {
    use icicle_bench::ledger::{compare, Ledger};
    let read = |path: &str| -> Result<Ledger> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read ledger `{path}`: {e}"))?;
        Ok(Ledger::parse(&text).map_err(|e| format!("bad ledger `{path}`: {e}"))?)
    };
    let old = read(old_path)?;
    let new = read(new_path)?;
    let report = compare(&old, &new, tolerance);
    print!("{report}");
    if !report.passed() {
        return Err(format!(
            "throughput regression: {} cells beyond {:.0}% tolerance, {} missing",
            report.regressions(),
            tolerance * 100.0,
            report.missing.len()
        )
        .into());
    }
    Ok(())
}

fn lookup(name: &str) -> Result<Workload> {
    icicle::workloads::by_name(name)
        .ok_or_else(|| format!("unknown workload `{name}` (see `icicle-tma list`)").into())
}

fn measure(workload: &Workload, core: CoreSelect, perf: Perf) -> Result<PerfReport> {
    let mut c = core
        .build_core(workload, workload.execute()?)
        .ok_or_else(|| {
            format!(
                "`{core}` is a multi-core mix; run it through `icicle-tma campaign` \
                 (or compose cores with `icicle-tma soc`)"
            )
        })?;
    Ok(perf.run(c.as_mut())?)
}

fn list(json: bool) -> Result<()> {
    use icicle::campaign::json::Json;
    let workloads: Vec<String> = icicle::workloads::catalog()
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    let cores: Vec<String> = CoreSelect::all()
        .into_iter()
        .map(CoreSelect::name)
        .collect();
    let archs: Vec<String> = CounterArch::ALL
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    if json {
        let as_strings =
            |names: &[String]| Json::Array(names.iter().map(|n| Json::Str(n.clone())).collect());
        let doc = Json::object(vec![
            ("workloads", as_strings(&workloads)),
            ("cores", as_strings(&cores)),
            ("archs", as_strings(&archs)),
        ]);
        println!("{}", doc.render());
        return Ok(());
    }
    println!("workloads:");
    for w in &workloads {
        println!("  {w}");
    }
    println!("\ncores:");
    for c in &cores {
        println!("  {c}");
    }
    println!("\ncounter archs:");
    for a in &archs {
        println!("  {a}");
    }
    Ok(())
}

fn campaign(cmd: Command) -> Result<()> {
    use icicle::campaign::{
        run_campaign, CampaignSpec, CheckpointLog, Progress, ResultCache, RunOptions,
    };
    let Command::Campaign {
        spec: path,
        jobs,
        no_cache,
        cache_dir,
        keep_going,
        retries,
        resume,
        json,
        csv,
        metrics_out,
    } = cmd
    else {
        unreachable!("run() dispatches only Campaign here");
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read campaign spec `{path}`: {e}"))?;
    let spec = CampaignSpec::parse(&text)?;
    let cache = if no_cache {
        None
    } else {
        Some(Arc::new(ResultCache::with_disk(&cache_dir).map_err(
            |e| format!("cannot open cache dir `{cache_dir}`: {e}"),
        )?))
    };
    // Completed cells are checkpointed next to the disk cache so a
    // killed campaign can `--resume`; corrupt logs are quarantined by
    // the open itself, never fatal.
    let checkpoint = if no_cache {
        None
    } else {
        let log_path = std::path::Path::new(&cache_dir).join(format!("{}.checkpoint", spec.name));
        let log = CheckpointLog::open(&log_path)
            .map_err(|e| format!("cannot open checkpoint `{}`: {e}", log_path.display()))?;
        if let Some(quarantined) = log.quarantined() {
            eprintln!(
                "warning: corrupt checkpoint entries quarantined to {}",
                quarantined.display()
            );
        }
        Some(Arc::new(log))
    };
    // Machine-readable modes keep stdout clean; progress ticks go to
    // stderr, and only when it is a live terminal — piped JSON/CSV and
    // redirected logs see none of them.
    let quiet = json || csv;
    let ticks = !quiet && std::io::stderr().is_terminal();
    let registry = Arc::new(MetricsRegistry::new());
    let sim_baseline = icicle::obs::sim_stats().counts();
    if metrics_out.is_some() {
        icicle::obs::set_sim_stats(true);
    }
    // The tick line is rendered from the metrics registry: the progress
    // callback folds each report into gauges, then formats from those
    // same gauges, so the ETA shown is exactly what --metrics-out
    // records.
    let tick_registry = Arc::clone(&registry);
    let started = Instant::now();
    let options = RunOptions {
        jobs,
        cache,
        checkpoint,
        resume,
        retries,
        keep_going,
        progress: if ticks {
            Some(Box::new(move |p: Progress| {
                let done = p.done();
                let gauges = &tick_registry;
                gauges.gauge("campaign.progress.done").set(done as f64);
                gauges.gauge("campaign.progress.total").set(p.total as f64);
                let elapsed = started.elapsed().as_secs_f64();
                if done > 0 {
                    let eta = elapsed / done as f64 * (p.total - done) as f64;
                    gauges.gauge("campaign.progress.eta_seconds").set(eta);
                }
                let eta = match gauges.gauge("campaign.progress.eta_seconds").get() {
                    eta if done > 0 && done < p.total => format!(" eta {}", format_eta(eta)),
                    _ => String::new(),
                };
                eprint!(
                    "\r[{}/{}] {} simulated, {} cached, {} resumed, {} failed, {} skipped{}",
                    gauges.gauge("campaign.progress.done").get() as u64,
                    gauges.gauge("campaign.progress.total").get() as u64,
                    p.simulated,
                    p.cached,
                    p.resumed,
                    p.failed,
                    p.skipped,
                    eta
                );
            }))
        } else {
            None
        },
        metrics: Some(Arc::clone(&registry)),
        ..RunOptions::default()
    };
    let report = run_campaign(&spec, &options);
    if ticks {
        eprintln!();
    }
    if let Some(path) = &metrics_out {
        write_metrics(path, &registry, sim_baseline)?;
    }
    if json {
        print!("{}", report.to_json());
    } else if csv {
        print!("{}", report.to_csv());
    } else {
        println!("{report}");
    }
    // Completed cells are never discarded: the full report is emitted
    // above before the nonzero exit signals the failures.
    if !report.passed() {
        return Err(format!(
            "campaign completed with {} failed and {} skipped cells",
            report.failures.len(),
            report.skipped.len()
        )
        .into());
    }
    Ok(())
}

/// Restores the panic hook it displaced when dropped, so injected-fault
/// runs can't leave the process with a silenced hook on any exit path.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

struct PanicHookGuard(Option<PanicHook>);

impl PanicHookGuard {
    fn silence() -> PanicHookGuard {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        PanicHookGuard(Some(previous))
    }
}

impl Drop for PanicHookGuard {
    fn drop(&mut self) {
        if let Some(previous) = self.0.take() {
            std::panic::set_hook(previous);
        }
    }
}

fn faults(seed: u64, cases: u64, demo: bool, report_path: Option<&str>, json: bool) -> Result<()> {
    use icicle::campaign::{run_campaign, Progress, RunOptions};
    use icicle::faults::{FaultInjector, FaultPlan};
    use icicle::verify::{fault_fuzz_spec, run_fault_fuzz, FaultFuzzOptions};
    use std::sync::Arc;

    // Every injected panic is caught by the supervised runner and
    // reported as a typed failure; the default hook's backtraces would
    // only drown the report.
    let _hook = PanicHookGuard::silence();

    if demo {
        // One injected-fault campaign, narrated: the plan up front, the
        // degraded report after, and which faults actually fired.
        let spec = fault_fuzz_spec();
        let plan = FaultPlan::generate(seed, spec.cells().len());
        let injector = Arc::new(FaultInjector::new(plan.clone()));
        if !json {
            println!("{}", plan.describe());
        }
        let report = run_campaign(
            &spec,
            &RunOptions {
                jobs: 2,
                retries: 1,
                faults: Some(Arc::clone(&injector)),
                // Injected worker panics leave their flight-recorder
                // dump behind, same as a real crash would.
                postmortem_dir: Some(std::path::PathBuf::from(".icicle-postmortem")),
                ..RunOptions::default()
            },
        );
        if json {
            print!("{}", report.to_json());
        } else {
            println!("{report}");
            let fired = injector.fired();
            if !fired.is_empty() {
                println!("faults fired: {}", fired.join(", "));
            }
        }
        if let Some(path) = report_path {
            icicle::obs::write_atomic(path, &report.to_json())
                .map_err(|e| format!("cannot write report `{path}`: {e}"))?;
        }
        if !report.passed() {
            return Err(format!(
                "fault demo degraded gracefully: {} failed, {} skipped cells",
                report.failures.len(),
                report.skipped.len()
            )
            .into());
        }
        return Ok(());
    }

    let options = FaultFuzzOptions {
        cases,
        seed,
        progress: if json {
            None
        } else {
            Some(Box::new(|p: Progress| {
                eprint!(
                    "\r[{}/{}] fault plans, {} violating",
                    p.done(),
                    p.total,
                    p.failed
                );
            }))
        },
    };
    let report = run_fault_fuzz(&options);
    if !json {
        eprintln!();
    }
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{report}");
    }
    if let Some(path) = report_path {
        icicle::obs::write_atomic(path, &report.to_json())
            .map_err(|e| format!("cannot write report `{path}`: {e}"))?;
    }
    if !report.passed() {
        return Err(format!(
            "fault fuzzing found {} graceful-degradation violations",
            report.violations.len()
        )
        .into());
    }
    Ok(())
}

/// `chaos`: fuzz the analysis server through the fault-injecting proxy
/// against the no-lost-jobs contract.
fn chaos(
    seed: u64,
    cases: u64,
    connections: usize,
    weaken: Option<&str>,
    report_path: Option<&str>,
    json: bool,
) -> Result<()> {
    use icicle_serve::{run_chaos, ChaosOptions, Weaken};
    let weaken = match weaken {
        None => Weaken::None,
        Some("read-deadline") => Weaken::ReadDeadline,
        Some(other) => return Err(format!("unknown --weaken knob `{other}`").into()),
    };
    if !json {
        eprintln!("chaos: fuzzing {cases} fault schedule(s) from seed {seed}");
    }
    let report = run_chaos(&ChaosOptions {
        seed,
        cases,
        connections,
        weaken,
        data_root: None,
    });
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{report}");
    }
    if let Some(path) = report_path {
        icicle::obs::write_atomic(path, &report.to_json())
            .map_err(|e| format!("cannot write report `{path}`: {e}"))?;
    }
    if !report.passed() {
        return Err(format!(
            "chaos found {} contract-violating schedule(s)",
            report.violations.len()
        )
        .into());
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn verify(
    matrix: bool,
    fuzz: Option<u64>,
    pdes: Option<u64>,
    seed: u64,
    bound: Option<f64>,
    jobs: usize,
    report_path: Option<&str>,
    json: bool,
    metrics_out: Option<&str>,
) -> Result<()> {
    use icicle::campaign::Progress;
    use icicle::verify::{
        default_matrix, run_fuzz, run_matrix, run_pdes, FuzzOptions, MatrixOptions, PdesOptions,
    };

    // The machine artifact accumulates one JSON document per phase;
    // stdout mirrors it under --json, or carries the human summary.
    let mut artifact = String::new();
    let mut all_passed = true;
    let registry = Arc::new(MetricsRegistry::new());
    let sim_baseline = icicle::obs::sim_stats().counts();
    if metrics_out.is_some() {
        icicle::obs::set_sim_stats(true);
    }
    let ticks = !json && std::io::stderr().is_terminal();

    if matrix {
        let spec = default_matrix();
        let options = MatrixOptions {
            jobs,
            flat_bound: bound,
            progress: if ticks {
                Some(Box::new(|p: Progress| {
                    eprint!(
                        "\r[{}/{}] {} within bound, {} diverged or failed",
                        p.done(),
                        p.total,
                        p.simulated,
                        p.failed
                    );
                }))
            } else {
                None
            },
            metrics: Some(Arc::clone(&registry)),
            // `None`: the ambient policy (`--skip` / `ICICLE_SKIP`)
            // applies.
            skip: None,
        };
        let report = run_matrix(&spec, &options);
        if ticks {
            eprintln!();
        }
        if json {
            print!("{}", report.to_json());
        } else {
            print!("{report}");
        }
        artifact.push_str(&report.to_json());
        all_passed &= report.passed();
    }

    if let Some(cases) = fuzz {
        let options = FuzzOptions {
            cases,
            seed,
            flat_bound: bound,
            progress: if ticks {
                Some(Box::new(|p: Progress| {
                    eprint!(
                        "\r[{}/{}] fuzz cases, {} diverged or errored",
                        p.done(),
                        p.total,
                        p.failed
                    );
                }))
            } else {
                None
            },
            ..FuzzOptions::default()
        };
        let report = run_fuzz(&options);
        if ticks {
            eprintln!();
        }
        if json {
            print!("{}", report.to_json());
        } else {
            print!("{report}");
        }
        artifact.push_str(&report.to_json());
        all_passed &= report.passed();
    }

    if let Some(cases) = pdes {
        let options = PdesOptions {
            cases,
            seed,
            progress: if ticks {
                Some(Box::new(|p: Progress| {
                    eprint!(
                        "\r[{}/{}] PDES scenarios, {} diverged or errored",
                        p.done(),
                        p.total,
                        p.failed
                    );
                }))
            } else {
                None
            },
            // A divergence dumps the flight rings next to the report.
            postmortem_dir: Some(std::path::PathBuf::from(".icicle-postmortem")),
            ..PdesOptions::default()
        };
        let report = run_pdes(&options);
        if ticks {
            eprintln!();
        }
        if json {
            print!("{}", report.to_json());
        } else {
            print!("{report}");
        }
        artifact.push_str(&report.to_json());
        all_passed &= report.passed();
    }

    if let Some(path) = report_path {
        icicle::obs::write_atomic(path, &artifact)
            .map_err(|e| format!("cannot write report `{path}`: {e}"))?;
    }
    if let Some(path) = metrics_out {
        write_metrics(path, &registry, sim_baseline)?;
    }

    if !all_passed {
        return Err(
            "verification failed: a phase diverged (counter TMA vs the trace ground truth, \
             or the parallel SoC engine vs lockstep)"
                .into(),
        );
    }
    Ok(())
}

fn tma(name: &str, core: CoreSelect, arch: CounterArch, json: bool) -> Result<()> {
    let workload = lookup(name)?;
    let report = measure(
        &workload,
        core,
        Perf::with_options(PerfOptions {
            arch,
            ..PerfOptions::default()
        }),
    )?;
    if json {
        println!("{}", report_json(&workload, &report));
    } else {
        println!("{report}");
    }
    Ok(())
}

/// A machine-readable rendering of the report (hand-rolled: the
/// workspace keeps its dependency set to the simulation essentials).
fn report_json(workload: &Workload, r: &PerfReport) -> String {
    let t = &r.tma;
    format!(
        concat!(
            "{{\n",
            "  \"workload\": \"{}\",\n",
            "  \"core\": \"{}\",\n",
            "  \"cycles\": {},\n",
            "  \"instret\": {},\n",
            "  \"ipc\": {:.6},\n",
            "  \"tma\": {{\n",
            "    \"retiring\": {:.6},\n",
            "    \"bad_speculation\": {:.6},\n",
            "    \"frontend\": {:.6},\n",
            "    \"backend\": {:.6},\n",
            "    \"machine_clears\": {:.6},\n",
            "    \"branch_mispredicts\": {:.6},\n",
            "    \"fetch_latency\": {:.6},\n",
            "    \"pc_resteers\": {:.6},\n",
            "    \"mem_bound\": {:.6},\n",
            "    \"core_bound\": {:.6},\n",
            "    \"itlb_bound\": {:.6},\n",
            "    \"dtlb_bound\": {:.6}\n",
            "  }}\n",
            "}}"
        ),
        workload.name(),
        r.core_name,
        r.cycles,
        r.instret,
        r.ipc(),
        t.top.retiring,
        t.top.bad_speculation,
        t.top.frontend,
        t.top.backend,
        t.bad_spec.machine_clears,
        t.bad_spec.branch_mispredicts,
        t.frontend.fetch_latency,
        t.frontend.pc_resteers,
        t.backend.mem_bound,
        t.backend.core_bound,
        r.tlb.itlb_bound,
        r.tlb.dtlb_bound,
    )
}

fn trace(name: &str, core: CoreSelect, window: u64, start: Option<u64>) -> Result<()> {
    let workload = lookup(name)?;
    let channels = vec![
        TraceChannel::scalar(EventId::ICacheMiss),
        TraceChannel::scalar(EventId::ICacheBlocked),
        TraceChannel::scalar(EventId::FetchBubbles),
        TraceChannel::scalar(EventId::Recovering),
        TraceChannel::scalar(EventId::BranchMispredict),
        TraceChannel::scalar(EventId::DCacheMiss),
    ];
    let report = measure(
        &workload,
        core,
        Perf::new().trace(TraceConfig::new(channels.clone())?),
    )?;
    let trace = report.trace.as_ref().expect("tracing enabled");
    let begin = start
        .or_else(|| trace.windows(0).first().map(|w| w.start.saturating_sub(4)))
        .unwrap_or(0)
        .min(trace.len() as u64);
    let end = (begin + window).min(trace.len() as u64);
    println!(
        "{} on {}: cycles {begin}..{end} of {}",
        workload.name(),
        report.core_name,
        trace.len()
    );
    for (bit, ch) in channels.iter().enumerate() {
        let mut row = String::new();
        for cycle in begin..end {
            row.push(if trace.is_high(bit, cycle) { '*' } else { '.' });
        }
        println!("{:>14} |{row}|", ch.to_string());
    }
    Ok(())
}

/// `trace export`: run one cell and emit its cycle timeline as a Chrome
/// `trace_events` document for ui.perfetto.dev.
fn trace_export(cell: &str, out: Option<&str>, window: Option<u64>) -> Result<()> {
    use icicle::campaign::CellSpec;
    let parts: Vec<&str> = cell.split('/').collect();
    let [workload, core, arch] = parts.as_slice() else {
        return Err(format!("--cell expects workload/core/arch, got `{cell}`").into());
    };
    let spec = CellSpec {
        workload: (*workload).to_string(),
        core: CoreSelect::from_name(core).ok_or_else(|| format!("unknown core `{core}`"))?,
        arch: CounterArch::from_name(arch)
            .ok_or_else(|| format!("unknown counter arch `{arch}`"))?,
        seed: 0,
        repeat: 0,
        max_cycles: 100_000_000,
    };
    let doc = icicle::verify::export_cell_timeline(&spec, window.map(|w| w as usize))?;
    let rendered = doc.render();
    match out {
        Some(path) => {
            icicle::obs::write_atomic(path, &rendered)
                .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
            eprintln!("wrote {path}; open it in ui.perfetto.dev");
        }
        None => println!("{rendered}"),
    }
    Ok(())
}

fn lanes(name: &str, core: CoreSelect) -> Result<()> {
    let workload = lookup(name)?;
    let report = measure(
        &workload,
        core,
        Perf::new()
            .lanes(EventId::FetchBubbles)
            .lanes(EventId::DCacheBlocked)
            .lanes(EventId::UopsIssued)
            .lanes(EventId::UopsRetired),
    )?;
    println!(
        "{} on {}: per-lane rates over {} cycles",
        workload.name(),
        report.core_name,
        report.cycles
    );
    for acc in &report.lanes {
        print!("{:>14}:", acc.event().name());
        for lane in 0..icicle::events::MAX_LANES {
            if acc.lane_total(lane) > 0 || lane < 2 {
                print!(" {:.3}", acc.lane_rate(lane));
            }
        }
        println!();
    }
    Ok(())
}

fn counters(name: &str, core: CoreSelect) -> Result<()> {
    let workload = lookup(name)?;
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>14}",
        "event", "stock", "scalar", "add-wires", "distributed"
    );
    let mut reports = Vec::new();
    for arch in [
        CounterArch::Stock,
        CounterArch::Scalar,
        CounterArch::AddWires,
        CounterArch::Distributed,
    ] {
        reports.push(measure(
            &workload,
            core,
            Perf::with_options(PerfOptions {
                arch,
                ..PerfOptions::default()
            }),
        )?);
    }
    for event in [
        EventId::UopsIssued,
        EventId::UopsRetired,
        EventId::FetchBubbles,
        EventId::DCacheBlocked,
        EventId::Recovering,
        EventId::ICacheBlocked,
    ] {
        print!("{:<14}", event.name());
        for r in &reports {
            print!(" {:>14}", r.hw_counts.get(event));
        }
        println!();
    }
    Ok(())
}

fn profile(name: &str, core: CoreSelect, period: u64, event: Option<EventId>) -> Result<()> {
    let workload = lookup(name)?;
    let profiler = Profiler::new(period);
    let stream = workload.execute()?;
    let mut c = core.build_core(&workload, stream).ok_or_else(|| {
        format!(
            "`{core}` is a multi-core mix; the sampling profiler attributes \
             PCs on a single core — profile each core's workload separately"
        )
    })?;
    let profile = match event {
        Some(e) => profiler.profile_event(c.as_mut(), workload.program(), e)?,
        None => profiler.profile(c.as_mut(), workload.program())?,
    };
    if let Some(e) = event {
        println!("sampling on `{e}` (PC skid applies):");
    }
    print!("{profile}");
    Ok(())
}

fn soc(pairs: &[(String, CoreSelect)]) -> Result<()> {
    let mut builder = SocBuilder::new();
    for (name, core) in pairs {
        let w = lookup(name)?;
        builder = match core {
            CoreSelect::Rocket => builder.rocket(RocketConfig::default(), &w)?,
            CoreSelect::Boom(size) => builder.boom(BoomConfig::for_size(*size), &w)?,
            CoreSelect::Soc(mix) => {
                return Err(format!(
                    "`{mix}` is itself a mix; list individual cores (rocket, \
                     small-boom, medium-boom, large-boom) to compose an SoC"
                )
                .into())
            }
        };
    }
    let mut soc = builder.build();
    // `run_auto` honours the ambient engine choice (`--soc-jobs` /
    // ICICLE_SOC_JOBS); results are byte-identical at any thread count.
    let reports = soc.run_auto(1_000_000_000)?;
    println!(
        "{:<18} {:<12} {:>10} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "workload", "core", "cycles", "ipc", "retiring", "bad-spec", "frontend", "backend"
    );
    for r in &reports {
        println!(
            "{:<18} {:<12} {:>10} {:>6.2} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            r.workload,
            r.report.core_name,
            r.report.cycles,
            r.report.ipc(),
            100.0 * r.report.tma.top.retiring,
            100.0 * r.report.tma.top.bad_speculation,
            100.0 * r.report.tma.top.frontend,
            100.0 * r.report.tma.top.backend,
        );
    }
    println!(
        "shared L2: {} accesses, {} bus-queueing cycles",
        soc.shared_l2().accesses(),
        soc.shared_l2().contention_cycles()
    );
    Ok(())
}

fn vlsi() -> Result<()> {
    println!(
        "{:<8} {:<12} {:>8} {:>8} {:>12} {:>10} {:>8}",
        "size", "impl", "power", "area", "wirelength", "csr-path", "200MHz"
    );
    for size in BoomSize::ALL {
        for arch in [
            CounterArch::Scalar,
            CounterArch::AddWires,
            CounterArch::Distributed,
        ] {
            let r = icicle::vlsi::evaluate(size, arch);
            println!(
                "{:<8} {:<12} {:>7.2}% {:>7.2}% {:>11.2}% {:>9.3}x {:>8}",
                size.name(),
                format!("{arch:?}"),
                r.power_overhead_pct(),
                r.area_overhead_pct(),
                r.wirelength_overhead_pct(),
                r.normalized_csr_delay(),
                if r.meets_200mhz() { "pass" } else { "FAIL" }
            );
        }
    }
    Ok(())
}
