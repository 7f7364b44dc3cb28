//! The per-cell differential: counter-based Table II vs slot-granular
//! temporal TMA on the *same* run.
//!
//! One simulation produces both views — the PMU counters feed the
//! Table II model exactly as software would read them (including any
//! distributed-counter quantization), while the recorded trace feeds
//! [`SlotTemporalTma`]. Their per-class difference must stay within the
//! [`DivergenceBound`] derived from the same trace.

use icicle_campaign::json::Json;
use icicle_campaign::{data_seed, CellSpec};
use icicle_events::{EventCore, EventId};
use icicle_perf::{Perf, PerfOptions, SkipPolicy};
use icicle_pmu::CounterArch;
use icicle_tma::TopLevel;
use icicle_trace::{SlotReport, SlotTemporalTma, TraceChannel, TraceConfig};
use icicle_workloads::{self as workloads, Workload};

use crate::bound::{BoundDerivation, DivergenceBound};

/// Canonical class order, shared by reports and snapshots.
pub const CLASS_NAMES: [&str; 4] = ["retiring", "bad_speculation", "frontend", "backend"];

/// One TMA class seen from both sides.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ClassReading {
    /// Canonical class name (one of [`CLASS_NAMES`]).
    pub name: &'static str,
    /// Counter-based Table II fraction.
    pub counter: f64,
    /// Trace-based slot-granular fraction.
    pub temporal: f64,
    /// The divergence this class is allowed.
    pub bound: f64,
}

impl ClassReading {
    /// Absolute counter-vs-temporal divergence.
    pub fn divergence(&self) -> f64 {
        (self.counter - self.temporal).abs()
    }

    /// Whether the divergence respects the bound.
    pub fn within_bound(&self) -> bool {
        self.divergence() <= self.bound
    }

    /// Divergence as a fraction of the allowed bound (the severity used
    /// to rank cells; > 1 means failure).
    pub fn ratio(&self) -> f64 {
        self.divergence() / self.bound.max(f64::MIN_POSITIVE)
    }
}

/// The verdict for one campaign cell.
#[derive(Clone, Debug)]
pub struct CellVerdict {
    pub cell: CellSpec,
    pub cycles: u64,
    /// `cycles × commit width`.
    pub slots: u64,
    /// The four classes in [`CLASS_NAMES`] order.
    pub classes: [ClassReading; 4],
    /// The measured bound ingredients (flat bounds keep them for
    /// context).
    pub derivation: BoundDerivation,
}

impl CellVerdict {
    /// Whether every class is within its bound.
    pub fn passed(&self) -> bool {
        self.classes.iter().all(ClassReading::within_bound)
    }

    /// The class closest to (or past) its bound.
    pub fn worst(&self) -> &ClassReading {
        self.classes
            .iter()
            .max_by(|a, b| a.ratio().total_cmp(&b.ratio()))
            .expect("four classes")
    }

    /// The worst class's bound-consumption ratio.
    pub fn worst_ratio(&self) -> f64 {
        self.worst().ratio()
    }

    /// The full verdict as a canonical JSON node (used by the divergence
    /// report).
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("cell", Json::Str(self.cell.label())),
            ("cycles", Json::Int(self.cycles)),
            ("slots", Json::Int(self.slots)),
            (
                "classes",
                Json::Array(
                    self.classes
                        .iter()
                        .map(|c| {
                            Json::object(vec![
                                ("class", Json::Str(c.name.to_string())),
                                ("counter", Json::Num(c.counter)),
                                ("temporal", Json::Num(c.temporal)),
                                ("divergence", Json::Num(c.divergence())),
                                ("bound", Json::Num(c.bound)),
                                ("within_bound", Json::Bool(c.within_bound())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("worst_class", Json::Str(self.worst().name.to_string())),
            ("worst_ratio", Json::Num(self.worst_ratio())),
        ])
    }

    /// The two breakdowns only — the golden-snapshot payload, which must
    /// not churn when bound derivation details evolve.
    pub fn snapshot_json(&self) -> Json {
        let side = |pick: fn(&ClassReading) -> f64| {
            Json::object(
                self.classes
                    .iter()
                    .map(|c| (c.name, Json::Num(pick(c))))
                    .collect(),
            )
        };
        Json::object(vec![
            ("cell", Json::Str(self.cell.label())),
            ("cycles", Json::Int(self.cycles)),
            ("slots", Json::Int(self.slots)),
            ("counter", side(|c| c.counter)),
            ("temporal", side(|c| c.temporal)),
        ])
    }
}

/// Verifies one campaign cell: resolve the workload (with the cell's
/// deterministic data seed), then run [`verify_workload`].
///
/// # Errors
///
/// Returns a description of the failure: unknown workload, stock
/// counters (which cannot support TMA at all), or a measurement error.
pub fn verify_cell(cell: &CellSpec, flat_bound: Option<f64>) -> Result<CellVerdict, String> {
    verify_cell_with(cell, flat_bound, None)
}

/// [`verify_cell`] with an explicit cycle-skipping policy (`None` defers
/// to the ambient [`SkipPolicy::resolve`]).
///
/// # Errors
///
/// See [`verify_cell`].
pub fn verify_cell_with(
    cell: &CellSpec,
    flat_bound: Option<f64>,
    skip: Option<SkipPolicy>,
) -> Result<CellVerdict, String> {
    let workload = workloads::by_name_seeded(&cell.workload, data_seed(cell))
        .ok_or_else(|| format!("unknown workload `{}`", cell.workload))?;
    verify_workload_with(&workload, cell, flat_bound, skip)
}

/// Verifies one (workload, cell) pair; the workload may be synthetic
/// (the fuzzer's cases are not in the catalog).
///
/// # Errors
///
/// See [`verify_cell`].
pub fn verify_workload(
    workload: &Workload,
    cell: &CellSpec,
    flat_bound: Option<f64>,
) -> Result<CellVerdict, String> {
    verify_workload_with(workload, cell, flat_bound, None)
}

/// [`verify_workload`] with an explicit cycle-skipping policy.
///
/// # Errors
///
/// See [`verify_cell`].
pub fn verify_workload_with(
    workload: &Workload,
    cell: &CellSpec,
    flat_bound: Option<f64>,
    skip: Option<SkipPolicy>,
) -> Result<CellVerdict, String> {
    if cell.arch == CounterArch::Stock {
        return Err(
            "stock counters OR concurrent events and cannot support TMA; \
             verify sweeps scalar/add-wires/distributed (use `counters` to see the undercount)"
                .to_string(),
        );
    }
    let stream = workload
        .execute()
        .map_err(|e| format!("architectural execution failed: {e}"))?;
    let mut core = cell.core.build_core(workload, stream).ok_or_else(|| {
        format!(
            "multi-core cells ({}) verify through the PDES engine differential \
             (`verify --pdes`), not the per-core counter-vs-trace differential",
            cell.core
        )
    })?;
    verify_run(core.as_mut(), cell, flat_bound, skip)
}

fn verify_run(
    core: &mut dyn EventCore,
    cell: &CellSpec,
    flat_bound: Option<f64>,
    skip: Option<SkipPolicy>,
) -> Result<CellVerdict, String> {
    let width = core.commit_width();
    let issue_width = core.issue_width();

    // Slot-TMA channels plus the scalar signals the Table VI overlap
    // analysis needs.
    let mut channels = SlotTemporalTma::required_channels(width);
    channels.push(TraceChannel::scalar(EventId::ICacheMiss));
    channels.push(TraceChannel::scalar(EventId::FetchBubbles));
    let config = TraceConfig::new(channels).map_err(|e| format!("trace config: {e}"))?;

    let report = Perf::with_options(PerfOptions {
        arch: cell.arch,
        max_cycles: cell.max_cycles,
        trace: Some(config),
        skip: skip.unwrap_or_else(SkipPolicy::resolve),
        ..PerfOptions::default()
    })
    .run(core)
    .map_err(|e| format!("measurement failed: {e}"))?;

    let trace = report.trace.as_ref().expect("trace was requested");
    let slot_tma = SlotTemporalTma::for_trace(trace, width)
        .ok_or_else(|| "trace is missing slot-TMA channels".to_string())?;
    let temporal = slot_tma.analyze(trace);

    let derivation = BoundDerivation::measure(
        trace,
        width,
        &report.hw_counts,
        icicle_tma::TmaModel::for_commit_width(width),
        cell.arch,
        issue_width,
    )
    .ok_or_else(|| "trace is missing bound-derivation channels".to_string())?;
    let bound = match flat_bound {
        Some(fraction) => DivergenceBound::flat(fraction),
        None => derivation.bound(),
    };

    let verdict = CellVerdict {
        cell: cell.clone(),
        cycles: report.cycles,
        slots: temporal.slots,
        classes: readings(&report.tma.top, &temporal, &bound),
        derivation,
    };
    icicle_obs::event_with(icicle_obs::Level::Debug, "verify.divergence", || {
        let worst = verdict.worst();
        vec![
            ("cell", verdict.cell.label().into()),
            ("passed", verdict.passed().into()),
            ("worst_class", worst.name.into()),
            ("worst_divergence", worst.divergence().into()),
            ("worst_bound", worst.bound.into()),
        ]
    });
    Ok(verdict)
}

fn readings(
    counter: &TopLevel,
    temporal: &SlotReport,
    bound: &DivergenceBound,
) -> [ClassReading; 4] {
    [
        ClassReading {
            name: CLASS_NAMES[0],
            counter: counter.retiring,
            temporal: temporal.retiring_fraction(),
            bound: bound.retiring,
        },
        ClassReading {
            name: CLASS_NAMES[1],
            counter: counter.bad_speculation,
            temporal: temporal.bad_speculation_fraction(),
            bound: bound.bad_speculation,
        },
        ClassReading {
            name: CLASS_NAMES[2],
            counter: counter.frontend,
            temporal: temporal.frontend_fraction(),
            bound: bound.frontend,
        },
        ClassReading {
            name: CLASS_NAMES[3],
            counter: counter.backend,
            temporal: temporal.backend_fraction(),
            bound: bound.backend,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use icicle_boom::BoomSize;
    use icicle_campaign::CoreSelect;

    fn cell(workload: &str, core: CoreSelect, arch: CounterArch) -> CellSpec {
        CellSpec {
            workload: workload.to_string(),
            core,
            arch,
            seed: 0,
            repeat: 0,
            max_cycles: 10_000_000,
        }
    }

    #[test]
    fn rocket_cell_verifies_within_derived_bound() {
        let v = cell("vvadd", CoreSelect::Rocket, CounterArch::AddWires);
        let verdict = verify_cell(&v, None).unwrap();
        assert!(verdict.passed(), "worst {:?}", verdict.worst());
        // Retiring is structurally identical on exact counters.
        assert!(verdict.classes[0].divergence() < 1e-9);
        assert_eq!(verdict.slots, verdict.cycles);
    }

    #[test]
    fn boom_cell_verifies_within_derived_bound() {
        let v = cell(
            "qsort",
            CoreSelect::Boom(BoomSize::Large),
            CounterArch::AddWires,
        );
        let verdict = verify_cell(&v, None).unwrap();
        assert!(verdict.passed(), "worst {:?}", verdict.worst());
        // Superscalar: several slots per cycle, an exact multiple.
        assert!(verdict.slots > verdict.cycles);
        assert_eq!(verdict.slots % verdict.cycles, 0);
    }

    #[test]
    fn distributed_counters_widen_but_respect_the_bound() {
        let v = cell(
            "rsort",
            CoreSelect::Boom(BoomSize::Medium),
            CounterArch::Distributed,
        );
        let verdict = verify_cell(&v, None).unwrap();
        assert!(verdict.derivation.quantization > 0.0);
        assert!(verdict.passed(), "worst {:?}", verdict.worst());
    }

    #[test]
    fn stock_counters_are_rejected() {
        let v = cell("vvadd", CoreSelect::Rocket, CounterArch::Stock);
        let err = verify_cell(&v, None).unwrap_err();
        assert!(err.contains("stock"), "{err}");
    }

    #[test]
    fn an_absurdly_tight_flat_bound_fails() {
        let v = cell(
            "qsort",
            CoreSelect::Boom(BoomSize::Small),
            CounterArch::AddWires,
        );
        let verdict = verify_cell(&v, Some(1e-12)).unwrap();
        assert!(!verdict.passed());
        assert!(verdict.worst_ratio() > 1.0);
    }

    #[test]
    fn unknown_workloads_error_cleanly() {
        let v = cell(
            "no-such-workload",
            CoreSelect::Rocket,
            CounterArch::AddWires,
        );
        assert!(verify_cell(&v, None)
            .unwrap_err()
            .contains("unknown workload"));
    }
}
