//! Cycle-domain Perfetto export for one campaign cell — the paper's
//! temporal TMA rendered as a timeline.
//!
//! One simulation with slot-TMA trace channels (plus the recovery and
//! miss/mispredict signals a human wants alongside them) feeds
//! [`icicle_obs::cycle_timeline`], which classifies every slot through
//! the same [`SlotTemporalTma`] the differential uses — so the exported
//! slices reproduce the verify report's classification exactly, and the
//! export is golden-snapshot safe.

use icicle_campaign::{data_seed, CellSpec};
use icicle_events::{EventCore, EventId};
use icicle_obs::{cycle_timeline, trace_events_document, Json};
use icicle_perf::{Perf, PerfOptions, SkipPolicy};
use icicle_pmu::CounterArch;
use icicle_trace::{SlotTemporalTma, TraceChannel, TraceConfig};
use icicle_workloads::{self as workloads};

/// Runs `cell` once with tracing on and renders the trace as a complete
/// Chrome `trace_events` document. `window` bounds the trace to a ring
/// of the last N cycles (unbounded when `None`) — long workloads would
/// otherwise produce timelines no viewer enjoys.
///
/// # Errors
///
/// Returns a description of the failure: unknown workload, stock
/// counters, or a measurement error.
pub fn export_cell_timeline(cell: &CellSpec, window: Option<usize>) -> Result<Json, String> {
    export_cell_timeline_with(cell, window, None)
}

/// [`export_cell_timeline`] with an explicit cycle-skipping policy
/// (`None` defers to the ambient [`SkipPolicy::resolve`]). The rendered
/// document is byte-identical under either policy — fast-forwarded spans
/// replay into the trace ring via bulk settlement.
///
/// # Errors
///
/// Same failure modes as [`export_cell_timeline`].
pub fn export_cell_timeline_with(
    cell: &CellSpec,
    window: Option<usize>,
    skip: Option<SkipPolicy>,
) -> Result<Json, String> {
    if cell.arch == CounterArch::Stock {
        return Err(
            "stock counters cannot support TMA; export with scalar/add-wires/distributed"
                .to_string(),
        );
    }
    let workload = workloads::by_name_seeded(&cell.workload, data_seed(cell))
        .ok_or_else(|| format!("unknown workload `{}`", cell.workload))?;
    let stream = workload
        .execute()
        .map_err(|e| format!("architectural execution failed: {e}"))?;
    let mut core = cell.core.build_core(&workload, stream).ok_or_else(|| {
        format!(
            "multi-core cells ({}) have no single-core timeline; export a per-core cell",
            cell.core
        )
    })?;
    export_run(core.as_mut(), cell, window, skip)
}

fn export_run(
    core: &mut dyn EventCore,
    cell: &CellSpec,
    window: Option<usize>,
    skip: Option<SkipPolicy>,
) -> Result<Json, String> {
    let width = core.commit_width();
    let mut channels = SlotTemporalTma::required_channels(width);
    channels.push(TraceChannel::scalar(EventId::ICacheMiss));
    channels.push(TraceChannel::scalar(EventId::DCacheMiss));
    channels.push(TraceChannel::scalar(EventId::BranchMispredict));
    let config = TraceConfig::new(channels).map_err(|e| format!("trace config: {e}"))?;

    let report = Perf::with_options(PerfOptions {
        arch: cell.arch,
        max_cycles: cell.max_cycles,
        trace: Some(config),
        trace_capacity: window,
        skip: skip.unwrap_or_else(SkipPolicy::resolve),
        ..PerfOptions::default()
    })
    .run(core)
    .map_err(|e| format!("measurement failed: {e}"))?;

    let trace = report.trace.as_ref().expect("trace was requested");
    let events = cycle_timeline(trace, width, &cell.label())
        .expect("trace carries the slot-TMA channels it was configured with");
    Ok(trace_events_document(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use icicle_campaign::CoreSelect;
    use icicle_trace::SlotClass;

    fn cell(workload: &str, core: CoreSelect) -> CellSpec {
        CellSpec {
            workload: workload.to_string(),
            core,
            arch: CounterArch::AddWires,
            seed: 0,
            repeat: 0,
            max_cycles: 10_000_000,
        }
    }

    #[test]
    fn export_is_deterministic_and_wellformed() {
        let c = cell("vvadd", CoreSelect::Rocket);
        let a = export_cell_timeline(&c, Some(64)).unwrap();
        let b = export_cell_timeline(&c, Some(64)).unwrap();
        assert_eq!(a.render(), b.render());
        let parsed = Json::parse(&a.render()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.get("ph").is_some()));
    }

    #[test]
    fn windowed_export_covers_exactly_the_tail_slots() {
        let c = cell("vvadd", CoreSelect::Rocket);
        let doc = export_cell_timeline(&c, Some(32)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Rocket is 1-wide: the lane track's slice durations must sum to
        // the 32-cycle window.
        let class_names = [
            SlotClass::Retiring.name(),
            SlotClass::BadSpeculation.name(),
            SlotClass::Frontend.name(),
            SlotClass::Backend.name(),
        ];
        let total: u64 = events
            .iter()
            .filter(|e| {
                e.get("tid").and_then(Json::as_u64) == Some(1)
                    && e.get("name")
                        .and_then(Json::as_str)
                        .is_some_and(|n| class_names.contains(&n))
            })
            .map(|e| e.get("dur").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn stock_cells_are_rejected() {
        let mut c = cell("vvadd", CoreSelect::Rocket);
        c.arch = CounterArch::Stock;
        assert!(export_cell_timeline(&c, None)
            .unwrap_err()
            .contains("stock"));
    }
}
