//! Declarative campaign specifications.
//!
//! A campaign is the cross product *workloads × cores × counter
//! architectures × data seeds × repeats*, minus exclusion filters — the
//! shape of every figure and table in the paper (Fig. 7 is workloads ×
//! cores, Table VI is workloads × architectures, Fig. 9 is sizes ×
//! architectures). Specs can be built programmatically or parsed from a
//! small line-based text format:
//!
//! ```text
//! # fig7.campaign — Rocket vs large BOOM over the micro suite
//! name = fig7
//! workloads = qsort, rsort, mergesort, vvadd
//! cores = rocket, large-boom
//! archs = add-wires, distributed
//! seeds = 0, 1, 2
//! repeats = 1
//! max-cycles = 100000000
//! exclude = vvadd:rocket
//! ```

use std::fmt;

use icicle_boom::{Boom, BoomConfig, BoomSize};
use icicle_events::EventCore;
use icicle_isa::DynStream;
use icicle_pmu::CounterArch;
use icicle_rocket::{Rocket, RocketConfig};
use icicle_soc::SocMix;
use icicle_workloads::Workload;

/// Which core model a cell runs on.
///
/// This is the campaign-level twin of the CLI's core flag; the CLI
/// re-uses it so the two layers cannot drift apart. The `Soc` variants
/// run a whole multi-core topology as one cell: every core runs the
/// cell's workload with a distinct derived seed, sharing the L2.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CoreSelect {
    Rocket,
    Boom(BoomSize),
    Soc(SocMix),
}

impl CoreSelect {
    /// Every selectable *single* core, Rocket first, BOOMs
    /// smallest-first. SoC mixes are deliberately excluded: the default
    /// verify/campaign grids (and their goldens) sweep single cores,
    /// and multi-core cells opt in by name.
    pub fn all() -> Vec<CoreSelect> {
        let mut cores = vec![CoreSelect::Rocket];
        cores.extend(BoomSize::ALL.into_iter().map(CoreSelect::Boom));
        cores
    }

    /// Every selectable SoC mix, in canonical order.
    pub fn socs() -> Vec<CoreSelect> {
        SocMix::ALL.into_iter().map(CoreSelect::Soc).collect()
    }

    /// The kebab-case name (`rocket`, `large-boom`, `soc-2xrocket`, …).
    pub fn name(self) -> String {
        match self {
            CoreSelect::Rocket => "rocket".to_string(),
            CoreSelect::Boom(size) => format!("{size}-boom"),
            CoreSelect::Soc(mix) => mix.name().to_string(),
        }
    }

    /// Parses a [`CoreSelect::name`] back into the enum.
    pub fn from_name(name: &str) -> Option<CoreSelect> {
        if name == "rocket" {
            return Some(CoreSelect::Rocket);
        }
        if let Some(mix) = SocMix::from_name(name) {
            return Some(CoreSelect::Soc(mix));
        }
        let size = name.strip_suffix("-boom")?;
        BoomSize::ALL
            .into_iter()
            .find(|s| s.name() == size)
            .map(CoreSelect::Boom)
    }

    /// Builds the single core this selection names, running `workload`'s
    /// `stream`; `None` for a multi-core mix (those build through
    /// [`SocMix::build`]).
    pub fn build_core(self, workload: &Workload, stream: DynStream) -> Option<Box<dyn EventCore>> {
        match self {
            CoreSelect::Rocket => Some(Box::new(Rocket::new(RocketConfig::default(), stream))),
            CoreSelect::Boom(size) => Some(Box::new(Boom::new(
                BoomConfig::for_size(size),
                stream,
                workload.program_arc(),
            ))),
            CoreSelect::Soc(_) => None,
        }
    }
}

impl fmt::Display for CoreSelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// A malformed spec, with the offending line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// The declarative description of one experiment campaign.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignSpec {
    /// Campaign name, echoed in reports.
    pub name: String,
    /// Workload names (`icicle-tma list`).
    pub workloads: Vec<String>,
    /// Core models to sweep.
    pub cores: Vec<CoreSelect>,
    /// Counter implementations to sweep.
    pub archs: Vec<CounterArch>,
    /// Data seeds; seed 0 is the workload's canonical dataset.
    pub seeds: Vec<u64>,
    /// Measurements per (workload, core, arch, seed) cell.
    pub repeats: u32,
    /// Per-cell cycle budget.
    pub max_cycles: u64,
    /// `(workload, core)` pairs to skip.
    pub exclude: Vec<(String, CoreSelect)>,
}

impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        CampaignSpec {
            name: "campaign".to_string(),
            workloads: Vec::new(),
            cores: vec![CoreSelect::Rocket, CoreSelect::Boom(BoomSize::Large)],
            archs: vec![CounterArch::AddWires],
            seeds: vec![0],
            repeats: 1,
            max_cycles: 100_000_000,
            exclude: Vec::new(),
        }
    }
}

impl CampaignSpec {
    /// An empty spec with defaults (Rocket + large BOOM, add-wires,
    /// canonical seed, one repeat).
    pub fn new(name: impl Into<String>) -> CampaignSpec {
        CampaignSpec {
            name: name.into(),
            ..CampaignSpec::default()
        }
    }

    /// Adds workloads by name.
    #[must_use]
    pub fn workloads<I, S>(mut self, names: I) -> CampaignSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.workloads.extend(names.into_iter().map(Into::into));
        self
    }

    /// Replaces the core sweep.
    #[must_use]
    pub fn cores(mut self, cores: impl IntoIterator<Item = CoreSelect>) -> CampaignSpec {
        self.cores = cores.into_iter().collect();
        self
    }

    /// Replaces the counter-architecture sweep.
    #[must_use]
    pub fn archs(mut self, archs: impl IntoIterator<Item = CounterArch>) -> CampaignSpec {
        self.archs = archs.into_iter().collect();
        self
    }

    /// Replaces the seed sweep.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> CampaignSpec {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the repeat count.
    #[must_use]
    pub fn repeats(mut self, repeats: u32) -> CampaignSpec {
        self.repeats = repeats.max(1);
        self
    }

    /// Skips one `(workload, core)` combination.
    #[must_use]
    pub fn exclude(mut self, workload: impl Into<String>, core: CoreSelect) -> CampaignSpec {
        self.exclude.push((workload.into(), core));
        self
    }

    /// Parses the `key = value` spec format (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first malformed line, unknown
    /// key, or unknown core/arch name.
    pub fn parse(text: &str) -> Result<CampaignSpec, SpecError> {
        let mut spec = CampaignSpec::default();
        let mut saw_workloads = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| SpecError(format!("line {}: expected `key = value`", lineno + 1)))?;
            let key = key.trim();
            let value = value.trim();
            let items = || value.split(',').map(str::trim).filter(|s| !s.is_empty());
            match key {
                "name" => spec.name = value.to_string(),
                "workloads" => {
                    saw_workloads = true;
                    spec.workloads = items().map(str::to_string).collect();
                }
                "cores" => {
                    spec.cores = items()
                        .map(|c| {
                            CoreSelect::from_name(c)
                                .ok_or_else(|| SpecError(format!("unknown core `{c}`")))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "archs" => {
                    spec.archs = items()
                        .map(|a| {
                            CounterArch::from_name(a)
                                .ok_or_else(|| SpecError(format!("unknown counter arch `{a}`")))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "seeds" => {
                    spec.seeds = items()
                        .map(|s| s.parse().map_err(|_| SpecError(format!("bad seed `{s}`"))))
                        .collect::<Result<_, _>>()?;
                }
                "repeats" => {
                    spec.repeats = value
                        .parse()
                        .map_err(|_| SpecError(format!("bad repeats `{value}`")))?;
                }
                "max-cycles" | "max_cycles" => {
                    spec.max_cycles = value
                        .parse()
                        .map_err(|_| SpecError(format!("bad max-cycles `{value}`")))?;
                }
                "exclude" => {
                    spec.exclude = items()
                        .map(|pair| {
                            let (w, c) = pair.split_once(':').ok_or_else(|| {
                                SpecError(format!("exclude expects workload:core, got `{pair}`"))
                            })?;
                            let core = CoreSelect::from_name(c)
                                .ok_or_else(|| SpecError(format!("unknown core `{c}`")))?;
                            Ok((w.to_string(), core))
                        })
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(SpecError(format!("unknown key `{other}`"))),
            }
        }
        if !saw_workloads || spec.workloads.is_empty() {
            return Err(SpecError("spec needs a non-empty `workloads` list".into()));
        }
        if spec.cores.is_empty() || spec.archs.is_empty() || spec.seeds.is_empty() {
            return Err(SpecError(
                "cores, archs, and seeds must be non-empty".into(),
            ));
        }
        spec.repeats = spec.repeats.max(1);
        Ok(spec)
    }

    /// Expands the grid into concrete cells, in the canonical order
    /// (workload-major, repeat-minor) that reports aggregate in.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for workload in &self.workloads {
            for &core in &self.cores {
                if self
                    .exclude
                    .iter()
                    .any(|(w, c)| w == workload && *c == core)
                {
                    continue;
                }
                for &arch in &self.archs {
                    for &seed in &self.seeds {
                        for repeat in 0..self.repeats.max(1) {
                            cells.push(CellSpec {
                                workload: workload.clone(),
                                core,
                                arch,
                                seed,
                                repeat,
                                max_cycles: self.max_cycles,
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One point of the campaign grid: a single simulation to run.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CellSpec {
    pub workload: String,
    pub core: CoreSelect,
    pub arch: CounterArch,
    /// Data seed (0 = the workload's canonical dataset).
    pub seed: u64,
    /// Repeat index within the (workload, core, arch, seed) cell.
    pub repeat: u32,
    /// Cycle budget for the run.
    pub max_cycles: u64,
}

impl CellSpec {
    /// A compact human-readable label (`qsort/rocket/add-wires/s0/r0`).
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/s{}/r{}",
            self.workload,
            self.core.name(),
            self.arch.name(),
            self.seed,
            self.repeat
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
# demo
name = fig7
workloads = qsort, rsort
cores = rocket, large-boom
archs = add-wires, distributed
seeds = 0, 7
repeats = 2
max-cycles = 5000000
exclude = rsort:rocket
";

    #[test]
    fn parses_the_documented_format() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        assert_eq!(spec.name, "fig7");
        assert_eq!(spec.workloads, vec!["qsort", "rsort"]);
        assert_eq!(
            spec.cores,
            vec![CoreSelect::Rocket, CoreSelect::Boom(BoomSize::Large)]
        );
        assert_eq!(
            spec.archs,
            vec![CounterArch::AddWires, CounterArch::Distributed]
        );
        assert_eq!(spec.seeds, vec![0, 7]);
        assert_eq!(spec.repeats, 2);
        assert_eq!(spec.max_cycles, 5_000_000);
        assert_eq!(
            spec.exclude,
            vec![("rsort".to_string(), CoreSelect::Rocket)]
        );
    }

    #[test]
    fn grid_expansion_honors_filters_and_order() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        let cells = spec.cells();
        // 2 workloads × 2 cores × 2 archs × 2 seeds × 2 repeats = 32,
        // minus the excluded rsort:rocket block (2 × 2 × 2 = 8).
        assert_eq!(cells.len(), 24);
        assert!(cells
            .iter()
            .all(|c| !(c.workload == "rsort" && c.core == CoreSelect::Rocket)));
        // Canonical order: first cell is the first workload on the first
        // core with the first arch/seed/repeat.
        assert_eq!(cells[0].label(), "qsort/rocket/add-wires/s0/r0");
        assert_eq!(cells[1].label(), "qsort/rocket/add-wires/s0/r1");
        // Expansion is deterministic.
        assert_eq!(cells, spec.cells());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "workloads = ",
            "cores = warp-drive\nworkloads = qsort",
            "archs = imaginary\nworkloads = qsort",
            "frobnicate = 3\nworkloads = qsort",
            "workloads = qsort\nseeds = banana",
            "no equals sign",
        ] {
            assert!(CampaignSpec::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn core_names_round_trip() {
        for core in CoreSelect::all().into_iter().chain(CoreSelect::socs()) {
            assert_eq!(CoreSelect::from_name(&core.name()), Some(core));
        }
        assert_eq!(CoreSelect::from_name("warp-drive"), None);
    }

    #[test]
    fn soc_mixes_stay_out_of_the_default_grid() {
        assert!(CoreSelect::all()
            .into_iter()
            .all(|c| !matches!(c, CoreSelect::Soc(_))));
        assert_eq!(CoreSelect::socs().len(), icicle_soc::SocMix::ALL.len());
        // Specs reach the mixes by name, like any other core.
        let spec = CampaignSpec::parse("workloads = qsort\ncores = rocket, soc-2xrocket").unwrap();
        assert_eq!(
            spec.cores,
            vec![
                CoreSelect::Rocket,
                CoreSelect::Soc(icicle_soc::SocMix::DualRocket)
            ]
        );
    }

    #[test]
    fn builder_composes() {
        let spec = CampaignSpec::new("t")
            .workloads(["qsort"])
            .cores([CoreSelect::Rocket])
            .archs([CounterArch::Stock])
            .seeds([1, 2])
            .repeats(3)
            .exclude("other", CoreSelect::Rocket);
        assert_eq!(spec.cells().len(), 6);
    }
}
