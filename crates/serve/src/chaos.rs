//! Network chaos engineering: fuzz fault schedules against the
//! no-lost-jobs contract.
//!
//! Each case boots a real server on an ephemeral port, interposes the
//! deterministic [`FaultProxy`] from `icicle-faults`, and drives one
//! logical submission through the storm with the hardened [`Client`].
//! The contract checked afterwards has five points:
//!
//! 1. **No acknowledged job lost** — every job the server admitted
//!    reaches a terminal state within a deadline.
//! 2. **No double work** — across every job the case created (including
//!    proxy-duplicated submissions), each grid cell simulated at most
//!    once.
//! 3. **Byte identity** — whatever the client managed to retrieve
//!    through the faults is byte-for-byte the direct engine output (or
//!    a typed error — never silent corruption); and a resend under the
//!    same idempotency key answers with the *original* job.
//! 4. **Deadlines hold** — a slow-trickled request trips the server's
//!    read deadline instead of being served late (this is the check a
//!    deliberately weakened server fails, see [`Weaken`]), and the
//!    server is still answering direct requests after the storm.
//! 5. **Quotas settle** — after a graceful drain nothing is leaked:
//!    outstanding quota slots return to zero and the server exits
//!    cleanly.
//!
//! A violating schedule is [shrunk][shrink_net_plan] greedily — drop
//! one fault at a time, keep the drop whenever the contract still
//! breaks — so the report names a *minimal* violating plan, the same
//! idiom the in-process fault fuzzer uses.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use icicle_campaign::{run_campaign, CampaignSpec, RunOptions};
use icicle_faults::net::{FaultProxy, NetFaultPlan};
use icicle_obs::{self as obs, Json};

use crate::client::Client;
use crate::job::{JobState, Submission};
use crate::scheduler::SchedulerConfig;
use crate::server::{Server, ServerConfig};
use crate::service::{AnalysisService, ServiceConfig};

/// The campaign every chaos case submits: two cells, small enough that
/// a case completes in well under a second of simulation.
pub const CHAOS_SPEC: &str =
    "name = chaos-net\nworkloads = vvadd\ncores = rocket\narchs = add-wires\nseeds = 0, 1\n";

/// Distinct cells in [`CHAOS_SPEC`]; the double-work ceiling.
const CHAOS_CELLS: u64 = 2;

/// The server's read deadline during chaos: shorter than the proxy's
/// trickle hold, so a slow-trickled request *must* 408 on a correct
/// server. (`TRICKLE_HOLD` is 600 ms.)
const CHAOS_READ_DEADLINE: Duration = Duration::from_millis(200);

/// How long a case waits for every admitted job to settle.
const TERMINAL_DEADLINE: Duration = Duration::from_secs(60);

/// Deliberate server weakenings, used to prove the harness catches a
/// regression rather than vacuously passing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Weaken {
    /// The hardened server as shipped.
    None,
    /// Disable the per-connection read deadline — the pre-hardening
    /// behaviour where a slow sender parks a worker thread forever and
    /// eventually gets served. Chaos must flag this.
    ReadDeadline,
}

/// Knobs for a chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// Root seed; each case derives its own plan seed from it.
    pub seed: u64,
    /// Fault schedules to try.
    pub cases: u64,
    /// Connection horizon faults are scattered over per case.
    pub connections: usize,
    /// Server weakening under test (normally [`Weaken::None`]).
    pub weaken: Weaken,
    /// Durable-state root; a subdirectory is wiped and reused per case.
    /// Defaults to a per-process temp directory.
    pub data_root: Option<PathBuf>,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions {
            seed: 0,
            cases: 8,
            connections: 8,
            weaken: Weaken::None,
            data_root: None,
        }
    }
}

/// One schedule that broke the contract, shrunk to a minimal plan.
#[derive(Debug)]
pub struct ChaosViolation {
    /// Case index within the run.
    pub case: u64,
    /// The case's derived plan seed (replay with `--seed`).
    pub case_seed: u64,
    /// The *shrunk* plan, human-readable.
    pub plan: String,
    /// Which contract points failed, and how.
    pub details: Vec<String>,
}

/// The outcome of a chaos run.
#[derive(Debug)]
pub struct ChaosReport {
    /// The root seed the run derived its cases from.
    pub seed: u64,
    /// Cases executed.
    pub cases: u64,
    /// The run's trace id (hex) — every span and event the chaos
    /// harness emitted is reachable from it.
    pub trace: String,
    /// Path of the flight-recorder dump written when the contract was
    /// violated; `None` on a clean run.
    pub postmortem: Option<String>,
    /// Violating schedules, shrunk; empty on a healthy server.
    pub violations: Vec<ChaosViolation>,
}

impl ChaosReport {
    /// Whether every schedule upheld the contract.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The canonical JSON document (`--report` / `--json`).
    pub fn to_json(&self) -> String {
        let violations = self
            .violations
            .iter()
            .map(|v| {
                Json::object(vec![
                    ("case", Json::Int(v.case)),
                    ("case_seed", Json::Int(v.case_seed)),
                    ("plan", Json::Str(v.plan.clone())),
                    (
                        "details",
                        Json::Array(v.details.iter().map(|d| Json::Str(d.clone())).collect()),
                    ),
                ])
            })
            .collect();
        let mut pairs = vec![
            ("seed", Json::Int(self.seed)),
            ("cases", Json::Int(self.cases)),
            ("trace", Json::Str(self.trace.clone())),
            ("passed", Json::Bool(self.passed())),
        ];
        if let Some(path) = &self.postmortem {
            pairs.push(("postmortem", Json::Str(path.clone())));
        }
        pairs.push(("violations", Json::Array(violations)));
        Json::object(pairs).render()
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos: {} cases from seed {}: {}",
            self.cases,
            self.seed,
            if self.passed() {
                "contract held".to_string()
            } else {
                format!("{} violating schedule(s)", self.violations.len())
            }
        )?;
        for v in &self.violations {
            writeln!(f, "  case {} (seed {}): {}", v.case, v.case_seed, v.plan)?;
            for d in &v.details {
                writeln!(f, "    - {d}")?;
            }
        }
        Ok(())
    }
}

/// Runs `plan` against a freshly booted server (weakened per `weaken`)
/// and returns every contract violation it caused — empty means the
/// schedule was survived.
///
/// `data_dir` is wiped first so each check starts from a cold store.
pub fn check_net_plan(plan: &NetFaultPlan, weaken: Weaken, data_dir: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    let _ = std::fs::remove_dir_all(data_dir);

    let service = match AnalysisService::open(ServiceConfig {
        data_dir: data_dir.to_path_buf(),
        jobs: 1,
        executors: 1,
        scheduler: SchedulerConfig::default(),
    }) {
        Ok(service) => Arc::new(service),
        Err(e) => return vec![format!("cannot open service state: {e}")],
    };
    let executors = service.start();
    let config = ServerConfig {
        read_deadline: match weaken {
            Weaken::None => Some(CHAOS_READ_DEADLINE),
            Weaken::ReadDeadline => None,
        },
        write_deadline: Some(Duration::from_secs(1)),
        max_connections: 64,
    };
    let server = match Server::bind_with(Arc::clone(&service), "127.0.0.1:0", config) {
        Ok(server) => server,
        Err(e) => return vec![format!("cannot bind server: {e}")],
    };
    let addr = server.local_addr().expect("bound listener has an address");
    let shutdown = server.shutdown_handle().expect("shutdown handle");
    let server_thread = std::thread::spawn(move || server.run());

    let mut proxy = match FaultProxy::start(addr, plan.clone()) {
        Ok(proxy) => proxy,
        Err(e) => return vec![format!("cannot start proxy: {e}")],
    };
    // Through the storm: generous retries (a plan holds at most four
    // faults, each burning one connection) and deadlines that outlast
    // the injected latency but not the test.
    let via_proxy = Client::new(proxy.addr().to_string())
        .with_retries(5)
        .with_timeouts(Some(Duration::from_secs(1)), Some(Duration::from_secs(2)))
        .with_metrics(Arc::clone(service.metrics()));
    let direct = Client::new(addr.to_string()).with_retries(2);

    // The one logical submission under test, under an explicit key so
    // client retries *and* proxy-injected duplicates collapse onto it.
    let submission = Submission::campaign(CHAOS_SPEC);
    let key = format!("chaos-{:016x}", plan.seed);
    let acked = via_proxy.submit_with_key(&submission, &key).ok();

    // Contract 3a: whatever the client reads back through the faults is
    // the direct engine output, byte for byte — or a typed error.
    let direct_bytes = {
        let spec = CampaignSpec::parse(CHAOS_SPEC).expect("chaos spec parses");
        run_campaign(&spec, &RunOptions::default()).to_json()
    };
    if let Some(id) = acked {
        match direct.wait(id, Duration::from_millis(25)) {
            Ok(status) => {
                if status.get("state").and_then(Json::as_str) == Some("done") {
                    if let Ok(bytes) = via_proxy.result(id) {
                        if bytes != direct_bytes {
                            violations
                                .push("result read through the proxy differs from the direct engine output".to_string());
                        }
                    }
                    match direct.result(id) {
                        Ok(bytes) if bytes == direct_bytes => {}
                        Ok(_) => violations.push(
                            "stored result differs from the direct engine output".to_string(),
                        ),
                        Err(e) => violations.push(format!("done job has no readable result: {e}")),
                    }
                }
            }
            Err(e) => violations.push(format!("acknowledged job {id} unpollable directly: {e}")),
        }
    }

    // Fire every remaining planned fault: health probes burn connection
    // indices until the proxy has accepted past the last faulted one.
    if let Some(max_conn) = plan.max_conn() {
        let mut probes = 0;
        while proxy.connections() <= max_conn && probes < 64 {
            let _ = via_proxy.health();
            probes += 1;
        }
    }

    // Contract 3b: a resend of the same logical submission dedupes onto
    // the original job — no new work, no new quota charge.
    if let Some(id) = acked {
        match direct.submit_with_key(&submission, &key) {
            Ok(dup) if dup == id => {}
            Ok(dup) => violations.push(format!(
                "resend under the same idempotency key created job {dup}, expected original {id}"
            )),
            Err(e) => violations.push(format!("resend under the same key rejected: {e}")),
        }
    }

    // Contract 1: every admitted job settles; none is lost mid-fault.
    let deadline = Instant::now() + TERMINAL_DEADLINE;
    loop {
        let pending: Vec<u64> = service
            .jobs()
            .iter()
            .filter(|j| {
                !matches!(
                    j.state(),
                    JobState::Done | JobState::Failed | JobState::Cancelled
                )
            })
            .map(|j| j.id)
            .collect();
        if pending.is_empty() {
            break;
        }
        if Instant::now() >= deadline {
            violations.push(format!("jobs never reached a terminal state: {pending:?}"));
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Contract 2: across every job this case created — including any
    // the proxy duplicated — each cell simulated at most once.
    let simulated: u64 = service
        .jobs()
        .iter()
        .map(|j| j.metrics.counter("campaign.cells.simulated").get())
        .sum();
    if simulated > CHAOS_CELLS {
        violations.push(format!(
            "{simulated} cells simulated for a {CHAOS_CELLS}-cell grid: duplicated work"
        ));
    }

    // Contract 4a: a correct server cut every slow-trickled request at
    // the read deadline instead of serving it late. The weakened server
    // (no deadline) is caught exactly here. A relay records its fault
    // as its last act, so the log is only complete once the proxy
    // quiesces — without this, a just-finished trickle can be missing
    // from `fired` and the violation silently skipped.
    if !proxy.quiesce(Duration::from_secs(10)) {
        violations.push("fault-proxy relays failed to quiesce".to_string());
    }
    let fired = proxy.fired();
    if fired.iter().any(|f| f.contains("slow-trickle"))
        && service
            .metrics()
            .counter("server.http.requests_timed_out")
            .get()
            == 0
    {
        violations.push(
            "a slow-trickled request was served instead of tripping the read deadline".to_string(),
        );
    }

    // Contract 4b: the storm is over; the server still answers.
    proxy.stop();
    if !direct.health() {
        violations.push("server stopped answering after the fault schedule".to_string());
    }

    // Contract 5: graceful shutdown — drain, join, flush; quota slots
    // all return and the accept loop exits cleanly.
    shutdown.trigger();
    match server_thread.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => violations.push(format!("server exited with an error: {e}")),
        Err(_) => violations.push("server thread panicked".to_string()),
    }
    for handle in executors {
        if handle.join().is_err() {
            violations.push("executor thread panicked".to_string());
        }
    }
    service.flush();
    let outstanding = service.outstanding();
    if outstanding != 0 {
        violations.push(format!(
            "{outstanding} quota slot(s) still outstanding after drain"
        ));
    }
    violations
}

/// Greedily shrinks a violating `plan`: repeatedly drop single faults
/// while the contract still breaks. Returns the minimal plan and the
/// violations it still causes. (The fault-fuzz harness's idiom, lifted
/// to the network layer.)
pub fn shrink_net_plan(
    plan: &NetFaultPlan,
    weaken: Weaken,
    data_dir: &Path,
) -> (NetFaultPlan, Vec<String>) {
    let mut violations = check_net_plan(plan, weaken, data_dir);
    if violations.is_empty() {
        return (plan.clone(), violations);
    }
    // A plan never shrinks below one fault.
    let (minimal, _) = icicle_faults::shrink(
        plan.clone(),
        |p| match p.faults.len() {
            0 | 1 => Vec::new(),
            n => (0..n).map(|i| p.without(i)).collect(),
        },
        |candidate| {
            let caused = check_net_plan(candidate, weaken, data_dir);
            let fails = !caused.is_empty();
            if fails {
                violations = caused;
            }
            fails
        },
        None,
    );
    (minimal, violations)
}

/// Fuzzes `options.cases` derived fault schedules against the contract,
/// shrinking every violating one.
pub fn run_chaos(options: &ChaosOptions) -> ChaosReport {
    let data_dir = options.data_root.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("icicle-chaos-{}", std::process::id()))
    });
    // One trace spans the whole run so a violation's flight-recorder
    // dump — and the report naming it — correlates every case.
    let trace = obs::TraceId::mint();
    let _scope = obs::enter(obs::TraceContext::root(trace));
    let was_armed = obs::flight_armed();
    if !was_armed {
        obs::arm_flight_recorder(0);
    }
    let _span = obs::span_with(obs::Level::Info, "chaos.run", || {
        vec![
            ("seed", options.seed.into()),
            ("cases", options.cases.into()),
        ]
    });
    let mut violations = Vec::new();
    for case in 0..options.cases {
        // The fault fuzzer's per-case seed derivation: distinct,
        // deterministic, replayable in isolation.
        let case_seed = options
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(case);
        let plan = NetFaultPlan::generate(case_seed, options.connections);
        let caused = check_net_plan(&plan, options.weaken, &data_dir);
        obs::event_with(obs::Level::Info, "chaos.case", || {
            vec![
                ("case", case.into()),
                ("case_seed", case_seed.into()),
                ("violations", caused.len().into()),
            ]
        });
        if !caused.is_empty() {
            let (minimal, details) = shrink_net_plan(&plan, options.weaken, &data_dir);
            violations.push(ChaosViolation {
                case,
                case_seed,
                plan: minimal.describe(),
                details,
            });
        }
    }
    let _ = std::fs::remove_dir_all(&data_dir);
    // A broken contract writes the flight rings out post-mortem; the
    // dump lands *next to* the (wiped) case data so it survives.
    let postmortem = if violations.is_empty() {
        None
    } else {
        let dump_dir = data_dir.with_extension("postmortem");
        let extra = vec![
            ("seed", Json::Int(options.seed)),
            ("violations", Json::Int(violations.len() as u64)),
        ];
        obs::write_postmortem(&dump_dir, trace, "fault_violation", extra)
            .ok()
            .map(|path| path.display().to_string())
    };
    ChaosReport {
        seed: options.seed,
        cases: options.cases,
        trace: trace.to_hex(),
        postmortem,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape() {
        let report = ChaosReport {
            seed: 7,
            cases: 2,
            trace: "00000000deadbeef".to_string(),
            postmortem: Some("/tmp/pm/00000000deadbeef.jsonl".to_string()),
            violations: vec![ChaosViolation {
                case: 1,
                case_seed: 99,
                plan: "slow-trickle on conn 0".to_string(),
                details: vec!["served late".to_string()],
            }],
        };
        let doc = Json::parse(&report.to_json()).unwrap();
        assert_eq!(doc.get("passed"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("seed"), Some(&Json::Int(7)));
        assert_eq!(
            doc.get("trace").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        assert!(doc
            .get("postmortem")
            .and_then(Json::as_str)
            .is_some_and(|p| p.ends_with(".jsonl")));
        let rendered = format!("{report}");
        assert!(rendered.contains("1 violating"));
        assert!(rendered.contains("slow-trickle on conn 0"));
    }

    #[test]
    fn passing_report_renders_clean() {
        let report = ChaosReport {
            seed: 0,
            cases: 3,
            trace: "0000000000000001".to_string(),
            postmortem: None,
            violations: Vec::new(),
        };
        assert!(report.passed());
        assert!(format!("{report}").contains("contract held"));
        let doc = Json::parse(&report.to_json()).unwrap();
        assert_eq!(doc.get("passed"), Some(&Json::Bool(true)));
        assert!(doc.get("postmortem").is_none(), "clean runs dump nothing");
    }
}
