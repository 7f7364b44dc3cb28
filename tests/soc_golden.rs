//! Golden snapshot of multi-core (SoC) cell output.
//!
//! One qsort cell per named [`SocMix`] (seed 0, add-wires counters) is
//! rendered as its canonical campaign record — per-core cycles, instret,
//! hardware counters and TMA — together with every core's perfect
//! (validation) counts, and compared byte-for-byte against
//! `tests/golden/soc_cells.json` (regenerate with
//! `ICICLE_UPDATE_GOLDEN=1`). The lockstep and PDES engines must both
//! reproduce the snapshot, so a change to the shared counter path shows
//! up here even when the two engines move together.

use std::path::Path;

use icicle::campaign::fingerprint::mix_seed;
use icicle::campaign::{data_seed, simulate_cell_with, CellSpec, CoreSelect, SocJobs, SocMix};
use icicle::events::EventId;
use icicle::perf::SkipPolicy;
use icicle::prelude::CounterArch;
use icicle::verify::compare_or_update;
use icicle::workloads;
use icicle_obs::Json;

const MAX_CYCLES: u64 = 5_000_000;

fn cell(mix: SocMix) -> CellSpec {
    CellSpec {
        workload: "qsort".into(),
        core: CoreSelect::Soc(mix),
        arch: CounterArch::AddWires,
        seed: 0,
        repeat: 0,
        max_cycles: MAX_CYCLES,
    }
}

/// Every core's perfect counts, from a direct run of the same SoC the
/// campaign cell builds (core 0 keeps the cell's data seed, core `k`
/// mixes in `k`).
fn perfect_counts(cell: &CellSpec, mix: SocMix, jobs: SocJobs) -> Json {
    let seed = data_seed(cell);
    let per_core: Vec<_> = (0..mix.num_cores() as u64)
        .map(|k| {
            let core_seed = if k == 0 { seed } else { mix_seed(seed, k) };
            workloads::by_name_seeded(&cell.workload, core_seed).expect("catalog workload")
        })
        .collect();
    let reports = mix
        .build(&per_core)
        .expect("soc builds")
        .run_with(MAX_CYCLES, jobs)
        .expect("soc finishes");
    Json::Array(
        reports
            .iter()
            .map(|r| {
                Json::Object(
                    EventId::ALL
                        .iter()
                        .map(|e| {
                            (
                                e.name().to_string(),
                                Json::Int(r.report.perfect_counts.get(*e)),
                            )
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

fn render(jobs: SocJobs) -> String {
    let cells = SocMix::ALL
        .into_iter()
        .map(|mix| {
            let cell = cell(mix);
            let result =
                simulate_cell_with(&cell, Some(SkipPolicy::Off), Some(jobs)).expect("soc cell");
            Json::object(vec![
                ("cell", result.to_json()),
                ("perfect", perfect_counts(&cell, mix, jobs)),
            ])
        })
        .collect();
    Json::object(vec![("cells", Json::Array(cells))]).render()
}

#[test]
fn soc_cells_match_golden_snapshot() {
    let lockstep = render(SocJobs::Lockstep);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/soc_cells.json");
    compare_or_update(&path, &lockstep).unwrap_or_else(|e| panic!("{e}"));
    // The PDES engine must render the very same bytes.
    assert_eq!(
        render(SocJobs::Parallel(2)),
        lockstep,
        "pdes diverged from lockstep"
    );
}
