//! The `serve-mixed` workload: an in-process `AnalysisService` and
//! `Server` on `127.0.0.1:0`, driven by two closed-loop clients. Each
//! client submits, waits for the job with the service's own
//! `Job::wait` (no status polling, so no poll-interval floor), then
//! fetches the result bytes over HTTP. By a seeded draw one job in every
//! five is cold (a never-used seed: interpret, simulate, store, journal)
//! and four are warm (a multi-cell spec already in the store: admission,
//! store lookup, report render).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use icicle_campaign::fingerprint::mix_seed;
use icicle_campaign::{run_campaign, CampaignSpec, RunOptions};
use icicle_obs::Json;
use icicle_serve::{
    AnalysisService, Client, ClientError, JobState, Server, ServiceConfig, ShutdownHandle,
    Submission,
};

use crate::layers::{self, Counts};
use crate::spans::Scope;
use crate::{fresh_dir, metric, stats, Env, Outcome};

/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// One job in this many is cold.
const MIX_BLOCK: u64 = 5;
/// Set-up (open, bind, prime) is repeated this many times and its
/// median reported.
const SETUP_REPEATS: usize = 5;
/// `campaign_s` on this workload: the wall time of this many
/// consecutive job completions.
const BATCH: usize = 50;
/// Jobs per traced pass: a fixed prefix of the seeded job sequence, so
/// the pass's work counts are exact.
const TRACED_JOBS: u64 = 100;
/// Jobs served per `--seconds` of the run: about two thirds of what two
/// clients complete in a second on a 2-vCPU host, since the output check
/// that follows takes about half as long again. The job count, not a
/// clock, ends the run, so every commit serves the same jobs (the service
/// keeps each finished job in memory, so peak memory grows with the
/// count).
const JOBS_PER_SECOND: u64 = 120;
/// Jobs served however short `--seconds` is: with one job in five
/// cold, 1,200 warm jobs put 12 samples beyond the warm p99 and 300
/// cold jobs 30 beyond the cold p90.
const MIN_JOBS: u64 = 1_500;

/// The warm specs: multi-cell campaigns primed into the store during
/// set-up, then resubmitted unchanged.
fn warm_specs(seed: u64) -> Vec<String> {
    vec![
        format!(
            "name = warm-a\nworkloads = qsort, towers\ncores = rocket, medium-boom\narchs = add-wires\nseeds = {seed}\n"
        ),
        format!(
            "name = warm-b\nworkloads = mergesort, vvadd\ncores = rocket, medium-boom\narchs = distributed\nseeds = {seed}\n"
        ),
    ]
}

/// The `k`-th job of the sequence: a cold 1-cell qsort/rocket spec with
/// a seed no other job uses, or a warm spec.
fn job_spec(seed: u64, k: u64, warm: &[String]) -> (bool, String) {
    let block = k / MIX_BLOCK;
    let cold_slot = mix_seed(seed, block) % MIX_BLOCK;
    if k % MIX_BLOCK == cold_slot {
        // Distinct from the warm seed and from every other cold job.
        let cold_seed = mix_seed(seed ^ 0xc01d_5eed, k) | 1 << 63;
        (
            true,
            format!("name = cold\nworkloads = qsort\ncores = rocket\narchs = add-wires\nseeds = {cold_seed}\n"),
        )
    } else {
        (
            false,
            warm[(block as usize + (k % MIX_BLOCK) as usize) % warm.len()].clone(),
        )
    }
}

/// A running service plus its HTTP front-end.
struct Service {
    service: Arc<AnalysisService>,
    addr: String,
    shutdown: ShutdownHandle,
    server: JoinHandle<std::io::Result<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl Service {
    fn open(env: &Env, name: &str) -> Result<Service, String> {
        let data_dir = fresh_dir(env, name)?;
        let service = Arc::new(
            AnalysisService::open(ServiceConfig {
                data_dir,
                ..ServiceConfig::default()
            })
            .map_err(|e| format!("open service: {e}"))?,
        );
        let executors = service.start();
        let server =
            Server::bind(Arc::clone(&service), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let shutdown = server.shutdown_handle().map_err(|e| e.to_string())?;
        let server = std::thread::spawn(move || server.run());
        Ok(Service {
            service,
            addr,
            shutdown,
            server,
            executors,
        })
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone()).with_retries(0)
    }

    /// Submits every warm spec and waits for it.
    fn prime(&self, warm: &[String]) -> Result<(), String> {
        let client = self.client();
        for text in warm {
            let id = client
                .submit(&Submission::campaign(text.clone()))
                .map_err(|e| format!("prime submit: {e}"))?;
            let job = self.service.job(id).ok_or("primed job vanished")?;
            if job.wait() != JobState::Done {
                return Err(format!("priming job {id} ended {:?}", job.state()));
            }
        }
        Ok(())
    }

    /// Graceful stop: drain, join the accept loop and every executor,
    /// flush the journals.
    fn stop(self) -> Result<(), String> {
        self.shutdown.trigger();
        let served = self.server.join().map_err(|_| "server thread panicked")?;
        self.service.shutdown();
        for executor in self.executors {
            executor.join().map_err(|_| "executor thread panicked")?;
        }
        self.service.flush();
        served.map_err(|e| format!("server: {e}"))
    }
}

/// One finished job as a client saw it.
struct Record {
    cold: bool,
    spec: String,
    latency_ms: f64,
    done_at: Instant,
    /// Length and digest of the result bytes (the bytes themselves are
    /// not kept, so the benchmark's own memory does not grow with the run).
    result: Result<(usize, u64), String>,
    shed: bool,
    simulated: u64,
    reused: u64,
}

fn status_count(status: &Json, key: &str) -> u64 {
    status.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Submit → `Job::wait` → `Client::result` for job `k`.
fn one_job(
    svc: &Service,
    client: &Client,
    seed: u64,
    k: u64,
    warm: &[String],
    scope: Scope<'_>,
) -> Record {
    let (cold, spec) = job_spec(seed, k, warm);
    let start = Instant::now();
    let mut record = Record {
        cold,
        spec: spec.clone(),
        latency_ms: 0.0,
        done_at: start,
        result: Err(String::new()),
        shed: false,
        simulated: 0,
        reused: 0,
    };
    let outcome = scope.nest("request", Some(scope.tracer().fresh_id()), |scope| {
        let id = scope
            .time("serve.submit", || {
                client.submit(&Submission::campaign(spec))
            })
            .map_err(|e| {
                if let ClientError::Http {
                    status: 429 | 503, ..
                } = e
                {
                    record.shed = true;
                }
                format!("submit: {e}")
            })?;
        let job = svc.service.job(id).ok_or("submitted job vanished")?;
        let state = scope.time(
            if cold {
                "serve.exec_cold"
            } else {
                "serve.exec_warm"
            },
            || job.wait(),
        );
        let bytes = scope
            .time("serve.result", || client.result(id))
            .map_err(|e| format!("result of job {id} ({state:?}): {e}"))?;
        let status = job.status_json();
        record.simulated = status_count(&status, "simulated");
        record.reused = status_count(&status, "cached") + status_count(&status, "resumed");
        Ok::<_, String>((bytes.len(), stats::fnv1a(bytes.as_bytes())))
    });
    record.latency_ms = start.elapsed().as_secs_f64() * 1e3;
    record.done_at = Instant::now();
    record.result = outcome;
    record
}

/// Runs the closed loop: `CLIENTS` threads take job indices from one
/// shared counter while `more(index)` says so.
fn drive(
    svc: &Service,
    seed: u64,
    warm: &[String],
    scope: Scope<'_>,
    more: &(dyn Fn(u64) -> bool + Sync),
) -> Vec<Record> {
    let next = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    std::thread::scope(|threads| {
        for _ in 0..CLIENTS {
            threads.spawn(|| {
                let client = svc.client();
                loop {
                    let k = next.fetch_add(1, Ordering::SeqCst);
                    if !more(k) {
                        break;
                    }
                    let record = one_job(svc, &client, seed, k, warm, scope);
                    records.lock().expect("records poisoned").push(record);
                }
            });
        }
    });
    records.into_inner().expect("records poisoned")
}

/// What `run_campaign` in-process makes of one spec: the digest of its
/// report document and the instructions its cells retired.
struct Reference {
    digest: u64,
    instret: u64,
}

/// A reference for each distinct spec among `records`, computed with
/// `run_campaign` over a fresh in-memory cache, on `CLIENTS` threads.
fn references(records: &[Record]) -> Result<HashMap<String, Reference>, String> {
    let mut specs: Vec<&str> = records.iter().map(|r| r.spec.as_str()).collect();
    specs.sort_unstable();
    specs.dedup();
    let chunks: Vec<&[&str]> = specs.chunks(specs.len().div_ceil(CLIENTS).max(1)).collect();
    std::thread::scope(|threads| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                threads.spawn(move || {
                    chunk
                        .iter()
                        .map(|text| {
                            let spec = CampaignSpec::parse(text).map_err(|e| e.to_string())?;
                            let report = run_campaign(&spec, &RunOptions::default());
                            let reference = Reference {
                                digest: stats::fnv1a(report.to_json().as_bytes()),
                                instret: report.cells.iter().map(layers::instret).sum(),
                            };
                            Ok((text.to_string(), reference))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut all = HashMap::new();
        for handle in handles {
            all.extend(
                handle
                    .join()
                    .map_err(|_| "reference thread panicked".to_string())??,
            );
        }
        Ok(all)
    })
}

/// Checks every record against its reference, counting attempts and
/// failures into `outcome`; returns the references.
fn check(records: &[Record], outcome: &mut Outcome) -> Result<HashMap<String, Reference>, String> {
    let expected = references(records)?;
    for record in records {
        outcome.attempted += 1;
        let problem = match &record.result {
            Err(error) => Some(error.clone()),
            Ok((_, digest)) if Some(*digest) != expected.get(&record.spec).map(|r| r.digest) => {
                Some(format!(
                    "result bytes differ from run_campaign for spec:\n{}",
                    record.spec
                ))
            }
            Ok(_) => None,
        };
        if let Some(problem) = problem {
            outcome.failed += 1;
            if outcome.problems.len() < 5 {
                outcome.problems.push(problem);
            }
        }
    }
    Ok(expected)
}

/// `--trace 0`: the end-to-end metrics.
pub fn run(env: &Env) -> Result<Outcome, String> {
    let warm = warm_specs(env.seed);
    let mut setup = Vec::new();
    let mut svc = None;
    for repeat in 0..SETUP_REPEATS {
        if let Some(previous) = svc.take() {
            Service::stop(previous)?;
        }
        let start = Instant::now();
        let opened = Service::open(env, &format!("serve-{repeat}"))?;
        opened.prime(&warm)?;
        setup.push(start.elapsed().as_secs_f64());
        svc = Some(opened);
    }
    let svc = svc.expect("set up at least once");

    let tracer = crate::spans::Tracer::new(false);
    let jobs = (JOBS_PER_SECOND * env.seconds).max(MIN_JOBS);
    let start = Instant::now();
    let records = drive(&svc, env.seed, &warm, tracer.root(0), &|k| k < jobs);
    let window_s = records
        .iter()
        .map(|r| r.done_at)
        .max()
        .map_or(0.0, |end| (end - start).as_secs_f64());
    // Read before the output check, whose reference runs are the
    // benchmark's own work.
    let peak_rss_mb = stats::peak_rss_mb();
    let peak_heap_mb = stats::peak_heap_mb();
    svc.stop()?;

    let mut outcome = Outcome::default();
    let expected = check(&records, &mut outcome)?;
    let warm_ms: Vec<f64> = records
        .iter()
        .filter(|r| !r.cold)
        .map(|r| r.latency_ms)
        .collect();
    let cold_ms: Vec<f64> = records
        .iter()
        .filter(|r| r.cold)
        .map(|r| r.latency_ms)
        .collect();
    let mut done: Vec<Instant> = records.iter().map(|r| r.done_at).collect();
    done.sort();
    let batches: Vec<f64> = done
        .chunks_exact(BATCH)
        .scan(start, |from, chunk| {
            let end = *chunk.last().expect("non-empty chunk");
            let wall = (end - *from).as_secs_f64();
            *from = end;
            Some(wall)
        })
        .collect();
    let instrs: u64 = records
        .iter()
        .filter(|r| r.cold && r.result.is_ok())
        .filter_map(|r| expected.get(&r.spec).map(|e| e.instret))
        .sum();
    outcome.notes.push(stats::tail_note("warm", &warm_ms));
    outcome.notes.push(stats::tail_note("cold", &cold_ms));
    outcome.notes.push(format!(
        "jobs={} warm={} cold={} shed={} window_s={window_s:.3} batches={} peak_rss_mb={peak_rss_mb:.3}",
        records.len(),
        warm_ms.len(),
        cold_ms.len(),
        records.iter().filter(|r| r.shed).count(),
        batches.len()
    ));
    outcome.metrics = vec![
        metric("setup_s", stats::median(&setup), "s"),
        metric("campaign_s", stats::median(&batches), "s"),
        metric("sim_minst_per_s", instrs as f64 / window_s / 1e6, "Minst/s"),
        metric("jobs_per_s", records.len() as f64 / window_s, "1/s"),
        metric("cold_p50_ms", stats::median(&cold_ms), "ms"),
        metric("cold_p90_ms", stats::quantile(&cold_ms, 0.9), "ms"),
        metric("warm_p50_ms", stats::median(&warm_ms), "ms"),
        metric("peak_heap_mb", peak_heap_mb, "MB"),
    ];
    Ok(outcome)
}

/// `--trace 1`: the per-layer split. Each pass opens a fresh service,
/// primes it, serves the first `TRACED_JOBS` jobs of the sequence under
/// request spans, then re-derives every warm and cold cell serially
/// layer by layer and round-trips them through a fresh cache.
pub fn traced(env: &Env) -> Result<Outcome, String> {
    let warm = warm_specs(env.seed);
    let mut pass =
        |scope: Scope<'_>, counts: &mut Counts, problems: &mut Vec<String>| -> Result<(), String> {
            let svc = scope.time("serve.setup", || {
                let svc = Service::open(env, "serve")?;
                svc.prime(&warm).map(|()| svc)
            })?;
            let records = drive(&svc, env.seed, &warm, scope, &|k| k < TRACED_JOBS);
            scope.time("serve.stop", || svc.stop())?;
            let mut checked = Outcome::default();
            scope.time("bench.check", || check(&records, &mut checked))?;
            problems.extend(checked.problems);
            counts.add("checks.failed", checked.failed);
            counts.add("serve.jobs", records.len() as u64);
            for record in &records {
                counts.add("serve.cells_simulated", record.simulated);
                counts.add("serve.cells_reused", record.reused);
                counts.add("serve.shed", u64::from(record.shed));
                counts.add(
                    "serve.result_bytes",
                    record.result.as_ref().map_or(0, |(len, _)| *len as u64),
                );
            }
            // Every distinct spec the pass served, re-derived layer by layer.
            let mut specs: Vec<&str> = records.iter().map(|r| r.spec.as_str()).collect();
            specs.sort_unstable();
            specs.dedup();
            let mut cells = Vec::new();
            for text in specs {
                let spec = CampaignSpec::parse(text).map_err(|e| e.to_string())?;
                cells.extend(spec.cells());
            }
            layers::count_streams(&cells, counts);
            let results = cells
                .iter()
                .map(|cell| layers::rederive_cell(cell, scope, true, counts))
                .collect::<Result<Vec<_>, _>>()?;
            let dir = fresh_dir(env, "roundtrip")?;
            let mut bad = layers::cache_roundtrip(scope, &dir, &results)?;
            // Each warm spec, rendered from the re-derivation and re-run warm
            // over the round-trip cache, must equal what the service served.
            for text in &warm {
                let spec = CampaignSpec::parse(text).map_err(|e| e.to_string())?;
                let grid = spec.cells();
                let mine = results
                    .iter()
                    .filter(|r| grid.contains(&r.cell))
                    .cloned()
                    .collect();
                let rendered = layers::render(scope, &spec.name, mine);
                let rerun = layers::warm_campaign(scope, &dir, &spec, counts)?;
                let served = records
                    .iter()
                    .find(|r| r.spec == *text)
                    .and_then(|r| r.result.as_ref().ok());
                let digest = stats::fnv1a(rendered.as_bytes());
                if rerun != rendered || served.is_some_and(|(_, served)| *served != digest) {
                    bad += 1;
                }
            }
            if bad > 0 {
                problems.push(format!(
                "{bad} checks failed between the cache, the service and the serial re-derivation"
            ));
            }
            counts.add("checks.failed", bad);
            Ok(())
        };
    crate::traced_run(env, &mut pass)
}
