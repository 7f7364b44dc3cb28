//! The cycle-skipping equivalence proof harness.
//!
//! Event-driven cycle skipping (`SkipPolicy::On`) is only admissible if
//! it is *unobservable* in every simulated quantity: final counter
//! state, per-cell cycles and instret, TMA classifications, slot
//! timelines, and every byte of every rendered report. This suite runs
//! the verify matrix, the seeded fuzzer, a cache-less campaign, and the
//! timeline exporter in both modes and diffs the outputs byte-for-byte.
//! A fuzz divergence is shrunk to a minimal reproducer before the test
//! panics, so a failure here is directly actionable.
//!
//! The sub-grid below is deliberately stall-heavy (`ptrchase` misses the
//! D-cache on every hop, `muldiv` serializes on the long-latency unit):
//! those are the cells where fast-forwarded spans dominate, so they are
//! where an unsound skip would actually diverge. Set `ICICLE_SKIP_FULL=1`
//! to widen the sweep to the full 135-cell default matrix plus a
//! 100-case dual-mode fuzz run (the CI skip-equivalence job does).

use std::sync::OnceLock;

use icicle::campaign::{run_campaign, CampaignSpec, CellSpec, CoreSelect, RunOptions};
use icicle::pmu::CounterArch;
use icicle::prelude::{
    Boom, BoomConfig, BoomSize, Perf, PerfOptions, Rocket, RocketConfig, SkipPolicy,
};
use icicle::verify::{
    default_matrix, export_cell_timeline_with, run_fuzz, run_matrix, verify_workload_with,
    FuzzCase, FuzzOptions, MatrixOptions,
};
use icicle::workloads::micro;

/// Stall-heavy sub-grid: 4 workloads x 2 cores x 2 archs = 16 cells.
fn sub_grid() -> CampaignSpec {
    CampaignSpec::new("skip-equivalence")
        .workloads(["vvadd", "qsort", "ptrchase", "muldiv"])
        .cores([CoreSelect::Rocket, CoreSelect::Boom(BoomSize::Small)])
        .archs([CounterArch::AddWires, CounterArch::Distributed])
}

/// The skip-off rendering of the sub-grid, computed once: `(to_json,
/// snapshot)`. Every dual-mode test diffs against these bytes.
fn skip_off_baseline() -> &'static (String, String) {
    static BASELINE: OnceLock<(String, String)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let report = run_matrix(
            &sub_grid(),
            &MatrixOptions {
                skip: Some(SkipPolicy::Off),
                ..MatrixOptions::default()
            },
        );
        assert!(
            report.passed(),
            "the skip-off sub-grid must verify before equivalence means anything:\n{}",
            report.to_json()
        );
        (report.to_json(), report.snapshot())
    })
}

#[test]
fn skip_on_matrix_is_byte_identical_to_skip_off() {
    let (off_json, off_snapshot) = skip_off_baseline();
    let on = run_matrix(
        &sub_grid(),
        &MatrixOptions {
            skip: Some(SkipPolicy::On),
            ..MatrixOptions::default()
        },
    );
    assert_eq!(
        &on.to_json(),
        off_json,
        "skip-on matrix JSON diverged from skip-off"
    );
    assert_eq!(
        &on.snapshot(),
        off_snapshot,
        "skip-on matrix snapshot diverged from skip-off"
    );
}

#[test]
fn equivalence_holds_at_any_worker_count() {
    let (off_json, off_snapshot) = skip_off_baseline();
    for jobs in [2, 4] {
        let on = run_matrix(
            &sub_grid(),
            &MatrixOptions {
                jobs,
                skip: Some(SkipPolicy::On),
                ..MatrixOptions::default()
            },
        );
        assert_eq!(&on.to_json(), off_json, "jobs={jobs}");
        assert_eq!(&on.snapshot(), off_snapshot, "jobs={jobs}");
    }
}

#[test]
fn per_cell_counters_and_instret_match_exactly() {
    // Direct harness runs, no differential in the way: every field the
    // perf session settles in bulk must land on the same value it would
    // have accumulated cycle-by-cycle.
    let workloads = [micro::ptrchase(1024, 2_000), micro::muldiv(500)];
    for workload in &workloads {
        for arch in [CounterArch::AddWires, CounterArch::Distributed] {
            let run = |skip: SkipPolicy, boom: bool| {
                let stream = workload.execute().expect("architectural execution");
                let options = PerfOptions {
                    arch,
                    skip,
                    ..PerfOptions::default()
                };
                if boom {
                    let mut core = Boom::new(BoomConfig::small(), stream, workload.program_arc());
                    Perf::with_options(options).run(&mut core).expect("measure")
                } else {
                    let mut core = Rocket::new(RocketConfig::default(), stream);
                    Perf::with_options(options).run(&mut core).expect("measure")
                }
            };
            for boom in [false, true] {
                let off = run(SkipPolicy::Off, boom);
                let on = run(SkipPolicy::On, boom);
                let tag = format!(
                    "{}/{}/{arch:?}",
                    workload.name(),
                    if boom { "small-boom" } else { "rocket" }
                );
                assert_eq!(off.cycles, on.cycles, "{tag}: cycles");
                assert_eq!(off.instret, on.instret, "{tag}: instret");
                assert_eq!(off.hw_counts, on.hw_counts, "{tag}: hardware counters");
                assert_eq!(
                    off.perfect_counts, on.perfect_counts,
                    "{tag}: perfect counts"
                );
                assert_eq!(
                    format!("{off}"),
                    format!("{on}"),
                    "{tag}: rendered report (TMA/TLB rollups)"
                );
            }
        }
    }
}

#[test]
fn slot_timelines_are_byte_identical() {
    // The trace ring is settled via `record_many` inside skipped spans;
    // the exported Chrome trace document must not be able to tell.
    let cells = [
        ("ptrchase", CoreSelect::Rocket, CounterArch::AddWires),
        (
            "muldiv",
            CoreSelect::Boom(BoomSize::Small),
            CounterArch::Distributed,
        ),
    ];
    for (workload, core, arch) in cells {
        let cell = CellSpec {
            workload: workload.to_string(),
            core,
            arch,
            seed: 0,
            repeat: 0,
            max_cycles: 10_000_000,
        };
        let off = export_cell_timeline_with(&cell, Some(256), Some(SkipPolicy::Off))
            .expect("skip-off export");
        let on = export_cell_timeline_with(&cell, Some(256), Some(SkipPolicy::On))
            .expect("skip-on export");
        assert_eq!(
            off.render(),
            on.render(),
            "{}: timeline diverged between modes",
            cell.label()
        );
    }
}

#[test]
fn campaign_reports_are_byte_identical_without_cache() {
    // `cache: None` forces both runs to actually simulate: the skip-free
    // fingerprint would otherwise let the second run serve the first
    // run's bytes and the comparison would prove nothing.
    let run = |skip| {
        run_campaign(
            &sub_grid(),
            &RunOptions {
                cache: None,
                skip: Some(skip),
                ..RunOptions::default()
            },
        )
        .to_json()
    };
    assert_eq!(
        run(SkipPolicy::Off),
        run(SkipPolicy::On),
        "campaign JSON diverged between modes"
    );
}

/// Cross-mode greedy shrink: the shared greedy shrinker with the same
/// 200-attempt budget as `icicle_verify::shrink`, but the property
/// preserved is "skip-on and skip-off disagree" rather than
/// "the differential bound fails". Built from the same public
/// [`FuzzCase`] machinery (drop ops, halve iterations, shrink the data
/// table) so a reproducer is as small as the fuzzer's own.
fn shrink_cross_mode(case: &FuzzCase, options: &FuzzOptions) -> (FuzzCase, u32) {
    fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
        let mut out = Vec::new();
        for drop in 0..case.ops.len() {
            if case.ops.len() > 1 {
                let mut c = case.clone();
                c.ops.remove(drop);
                out.push(c);
            }
        }
        if case.iterations > 1 {
            let mut c = case.clone();
            c.iterations /= 2;
            out.push(c);
        }
        if case.table.len() > 1 {
            let mut c = case.clone();
            c.table.truncate(case.table.len() / 2);
            out.push(c);
        }
        out
    }
    icicle::faults::shrink(
        case.clone(),
        candidates,
        |c| modes_disagree(c, options),
        Some(200),
    )
}

/// Runs `case` through the differential in both modes and reports
/// whether any rendered byte differs.
fn modes_disagree(case: &FuzzCase, options: &FuzzOptions) -> bool {
    let verdict = |skip| {
        let workload = case.workload();
        let cell = CellSpec {
            workload: workload.name().to_string(),
            core: options.core,
            arch: options.arch,
            seed: case.seed,
            repeat: 0,
            max_cycles: options.max_cycles,
        };
        verify_workload_with(&workload, &cell, options.flat_bound, Some(skip))
            .map(|v| v.to_json().render())
    };
    verdict(SkipPolicy::Off) != verdict(SkipPolicy::On)
}

fn fuzz_both_modes(cases: u64, seed: u64) {
    let options = |skip| FuzzOptions {
        cases,
        seed,
        skip: Some(skip),
        ..FuzzOptions::default()
    };
    let off = run_fuzz(&options(SkipPolicy::Off));
    let on = run_fuzz(&options(SkipPolicy::On));
    if off.to_json() == on.to_json() {
        return;
    }
    // The aggregate reports disagree: find the first diverging case and
    // shrink it so the failure message is a minimal reproducer.
    let hunt = options(SkipPolicy::Off);
    for index in 0..cases {
        let case = FuzzCase::generate(seed, index);
        if !modes_disagree(&case, &hunt) {
            continue;
        }
        let (shrunk, steps) = shrink_cross_mode(&case, &hunt);
        panic!(
            "skip-on diverged from skip-off on fuzz case {} — after {steps} shrink \
             steps the minimal reproducer is {}",
            case.describe(),
            shrunk.describe()
        );
    }
    panic!(
        "fuzz reports diverged between modes but no single case did; \
         off:\n{}\non:\n{}",
        off.to_json(),
        on.to_json()
    );
}

#[test]
fn fuzzed_cases_are_byte_identical_across_modes() {
    fuzz_both_modes(60, 2026);
}

#[test]
fn skip_spans_actually_occur_on_the_sub_grid() {
    // Guard against vacuity: the equivalence above only means something
    // if skip-on genuinely fast-forwards. A pointer chase that misses
    // the D-cache on every hop must expose multi-cycle quiescent spans.
    use icicle::events::EventCore;
    let workload = micro::ptrchase(1024, 500);
    let stream = workload.execute().expect("architectural execution");
    let mut core = Rocket::new(RocketConfig::default(), stream);
    let mut best = 0u64;
    while !core.is_done() && core.cycle() < 100_000 {
        if let Some(n) = core.time_until_next_event() {
            best = best.max(n);
        }
        core.step();
    }
    assert!(
        best >= 2,
        "ptrchase never exposed a skippable span (best claim {best}); \
         the equivalence suite is vacuous"
    );
}

#[test]
fn full_matrix_and_fuzz_sweep_when_requested() {
    if std::env::var("ICICLE_SKIP_FULL").is_err() {
        eprintln!("skipping full-matrix dual-mode sweep (set ICICLE_SKIP_FULL=1)");
        return;
    }
    let spec = default_matrix();
    let run = |skip| {
        let report = run_matrix(
            &spec,
            &MatrixOptions {
                jobs: 4,
                skip: Some(skip),
                ..MatrixOptions::default()
            },
        );
        (report.to_json(), report.snapshot())
    };
    let off = run(SkipPolicy::Off);
    let on = run(SkipPolicy::On);
    assert_eq!(off.0, on.0, "full matrix JSON diverged between modes");
    assert_eq!(off.1, on.1, "full matrix snapshot diverged between modes");
    fuzz_both_modes(100, 7);
}
