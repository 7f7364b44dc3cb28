//! The Table II formulas.

use icicle_events::{EventCounts, EventId};

use crate::breakdown::{BackendLevel, BadSpecLevel, FrontendLevel, TmaBreakdown, TopLevel};

/// Raw counter values the TMA model consumes, named after Table II's
/// `C_*` quantities.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct TmaInput {
    /// `C_cycle`.
    pub cycles: u64,
    /// `C_issued`: µops issued, summed over issue lanes (new event).
    pub uops_issued: u64,
    /// `C_ret`: µops retired, summed over commit lanes (new event).
    pub uops_retired: u64,
    /// `C_fetch`: fetch bubbles, summed over decode lanes (new event).
    pub fetch_bubbles: u64,
    /// `C_rec`: cycles in the recovery state (new event).
    pub recovering: u64,
    /// `C_bm`: branch mispredictions.
    pub branch_mispredicts: u64,
    /// `C_flush`: machine flushes (machine clears).
    pub machine_flushes: u64,
    /// `C_fence`: fences retired (new event).
    pub fences_retired: u64,
    /// `C_iblk`: cycles the I-cache refill starved the fetch buffer (new
    /// event).
    pub icache_blocked: u64,
    /// `C_db`: D$-blocked, summed over commit lanes (new event).
    pub dcache_blocked: u64,
}

impl TmaInput {
    /// Extracts the model's counters from a perfect [`EventCounts`]
    /// accumulator.
    pub fn from_counts(counts: &EventCounts) -> TmaInput {
        TmaInput {
            cycles: counts.get(EventId::Cycles),
            uops_issued: counts.get(EventId::UopsIssued),
            uops_retired: counts.get(EventId::UopsRetired),
            fetch_bubbles: counts.get(EventId::FetchBubbles),
            recovering: counts.get(EventId::Recovering),
            branch_mispredicts: counts.get(EventId::BranchMispredict)
                + counts.get(EventId::CfTargetMispredict),
            machine_flushes: counts.get(EventId::Flush),
            fences_retired: counts.get(EventId::FenceRetired),
            icache_blocked: counts.get(EventId::ICacheBlocked),
            dcache_blocked: counts.get(EventId::DCacheBlocked),
        }
    }
}

/// The TMA model: Table II parameterized by core width and the measured
/// recovery length.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TmaModel {
    /// Commit width `W_C` (slots per cycle).
    pub commit_width: usize,
    /// `M_rl`: pipeline-refill depth from decode to issue, charged per
    /// branch mispredict. The paper's trace study (Fig. 8b) measures 4 on
    /// BOOM.
    pub recover_length: u64,
}

impl TmaModel {
    /// The BOOM model with the paper's `M_rl = 4`.
    ///
    /// # Panics
    ///
    /// Panics if `commit_width` is zero.
    pub fn boom(commit_width: usize) -> TmaModel {
        assert!(commit_width > 0, "commit width must be non-zero");
        TmaModel {
            commit_width,
            recover_length: 4,
        }
    }

    /// The Rocket model: width 1, shallow refill.
    pub fn rocket() -> TmaModel {
        TmaModel {
            commit_width: 1,
            recover_length: 2,
        }
    }

    /// The model for a core of commit width `width`: Rocket's for a
    /// scalar core, BOOM's otherwise (panics on width 0).
    pub fn for_commit_width(width: usize) -> TmaModel {
        if width == 1 {
            TmaModel::rocket()
        } else {
            TmaModel::boom(width)
        }
    }

    /// Evaluates Table II against `input`.
    ///
    /// The result's top level always sums to exactly 1: the Backend class
    /// is defined as the remainder (and the other three classes are
    /// clamped so the remainder cannot go negative, which the paper's
    /// model permits only through measurement noise).
    pub fn analyze(&self, input: &TmaInput) -> TmaBreakdown {
        let wc = self.commit_width as f64;
        let m_total = (input.cycles as f64 * wc).max(1.0);

        // Derived metrics.
        let c_bm = input.branch_mispredicts as f64;
        let c_flush = input.machine_flushes as f64;
        let c_fence = input.fences_retired as f64;
        let m_tf = (c_flush + c_bm + c_fence).max(1.0);
        let m_br_mr = c_bm / m_tf;
        let m_nf_r = (c_bm + c_fence) / m_tf;
        let m_fl_r = c_flush / m_tf;
        let m_rl = self.recover_length as f64;

        // Flushed µops: issued at 8 but never retired at 9.
        let flushed = input.uops_issued.saturating_sub(input.uops_retired) as f64;
        // Recovery slots: recovery cycles plus the decode-to-issue refill
        // per mispredict, both scaled to slots.
        let recovery_slots = (input.recovering as f64 + m_rl * c_bm) * wc;

        // Top level.
        let retiring = (input.uops_retired as f64 / m_total).min(1.0);
        let bad_spec = ((flushed * m_nf_r + recovery_slots) / m_total).min(1.0 - retiring);
        let frontend =
            (input.fetch_bubbles as f64 / m_total).min((1.0 - retiring - bad_spec).max(0.0));
        let backend = (1.0 - retiring - bad_spec - frontend).max(0.0);
        let top = TopLevel {
            retiring,
            bad_speculation: bad_spec,
            frontend,
            backend,
        };

        // Lower-level Bad Speculation.
        let machine_clears = flushed * m_fl_r / m_total;
        let resteers = flushed * m_br_mr / m_total;
        let recovery_bubbles = recovery_slots / m_total;
        let bad_spec_level = BadSpecLevel {
            machine_clears,
            branch_mispredicts: resteers + recovery_bubbles,
            resteers,
            recovery_bubbles,
        };

        // Lower-level Frontend.
        let fetch_latency = (input.icache_blocked as f64 * wc / m_total).min(frontend);
        let frontend_level = FrontendLevel {
            fetch_latency,
            pc_resteers: (frontend - fetch_latency).max(0.0),
        };

        // Lower-level Backend.
        let mem_bound = (input.dcache_blocked as f64 / m_total).min(backend);
        let backend_level = BackendLevel {
            mem_bound,
            core_bound: (backend - mem_bound).max(0.0),
        };

        TmaBreakdown {
            top,
            bad_spec: bad_spec_level,
            frontend: frontend_level,
            backend: backend_level,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn idle_free_input() -> TmaInput {
        TmaInput {
            cycles: 1_000,
            uops_issued: 3_000,
            uops_retired: 3_000,
            fetch_bubbles: 0,
            recovering: 0,
            branch_mispredicts: 0,
            machine_flushes: 0,
            fences_retired: 0,
            icache_blocked: 0,
            dcache_blocked: 0,
        }
    }

    #[test]
    fn perfect_machine_is_all_retiring() {
        let tma = TmaModel::boom(3).analyze(&idle_free_input());
        assert!((tma.top.retiring - 1.0).abs() < 1e-12);
        assert_eq!(tma.top.dominant().0, "retiring");
    }

    #[test]
    fn fetch_bubbles_show_as_frontend() {
        let input = TmaInput {
            uops_issued: 1_500,
            uops_retired: 1_500,
            fetch_bubbles: 1_200,
            ..idle_free_input()
        };
        let tma = TmaModel::boom(3).analyze(&input);
        assert!((tma.top.frontend - 0.4).abs() < 1e-12);
        assert!((tma.top.retiring - 0.5).abs() < 1e-12);
    }

    #[test]
    fn icache_blocked_splits_frontend() {
        let input = TmaInput {
            uops_issued: 1_500,
            uops_retired: 1_500,
            fetch_bubbles: 1_200,
            icache_blocked: 300, // cycles → 900 slots at W_C = 3
            ..idle_free_input()
        };
        let tma = TmaModel::boom(3).analyze(&input);
        assert!((tma.frontend.fetch_latency - 0.3).abs() < 1e-12);
        assert!((tma.frontend.pc_resteers - 0.1).abs() < 1e-12);
    }

    #[test]
    fn flushed_uops_split_by_flush_ratios() {
        let input = TmaInput {
            uops_issued: 2_000,
            uops_retired: 1_400, // 600 flushed
            branch_mispredicts: 30,
            machine_flushes: 10,
            ..idle_free_input()
        };
        let tma = TmaModel::boom(3).analyze(&input);
        // 1/4 of flushes are machine flushes → 150 slots of 3000.
        assert!((tma.bad_spec.machine_clears - 150.0 / 3000.0).abs() < 1e-12);
        // Resteers get the branch share: 450 slots.
        assert!((tma.bad_spec.resteers - 450.0 / 3000.0).abs() < 1e-9);
    }

    #[test]
    fn recovery_counts_with_refill_constant() {
        let input = TmaInput {
            uops_issued: 1_000,
            uops_retired: 1_000,
            recovering: 80,
            branch_mispredicts: 20,
            ..idle_free_input()
        };
        let tma = TmaModel::boom(3).analyze(&input);
        // (80 + 4*20) * 3 = 480 slots of 3000.
        assert!((tma.bad_spec.recovery_bubbles - 0.16).abs() < 1e-12);
    }

    #[test]
    fn memcpy_like_input_is_mem_bound() {
        let input = TmaInput {
            cycles: 1_000,
            uops_issued: 600,
            uops_retired: 600,
            fetch_bubbles: 100,
            dcache_blocked: 1_800,
            ..idle_free_input()
        };
        let tma = TmaModel::boom(3).analyze(&input);
        assert_eq!(tma.top.dominant().0, "backend");
        assert!(tma.backend.mem_bound > tma.backend.core_bound);
    }

    #[test]
    fn rocket_model_is_width_one() {
        let input = TmaInput {
            cycles: 1_000,
            uops_issued: 700,
            uops_retired: 700,
            fetch_bubbles: 100,
            recovering: 50,
            branch_mispredicts: 10,
            ..TmaInput::default()
        };
        let tma = TmaModel::rocket().analyze(&input);
        assert!((tma.top.retiring - 0.7).abs() < 1e-12);
        assert!((tma.top.frontend - 0.1).abs() < 1e-12);
        // (50 + 2*10) / 1000 = 0.07
        assert!((tma.top.bad_speculation - 0.07).abs() < 1e-12);
        assert!((tma.top.backend - 0.13).abs() < 1e-12);
    }

    #[test]
    fn from_counts_maps_events() {
        use icicle_events::{EventCounts, EventVector};
        let mut counts = EventCounts::new();
        let mut v = EventVector::new();
        v.raise(EventId::Cycles);
        v.raise_lane(EventId::UopsIssued, 0);
        v.raise_lane(EventId::UopsIssued, 1);
        v.raise_lane(EventId::UopsRetired, 0);
        v.raise(EventId::BranchMispredict);
        v.raise(EventId::CfTargetMispredict);
        counts.observe(&v);
        let input = TmaInput::from_counts(&counts);
        assert_eq!(input.cycles, 1);
        assert_eq!(input.uops_issued, 2);
        assert_eq!(input.uops_retired, 1);
        // Both mispredict kinds fold into C_bm.
        assert_eq!(input.branch_mispredicts, 2);
    }

    proptest! {
        #[test]
        fn top_level_always_sums_to_one(
            cycles in 1u64..1_000_000,
            issued in 0u64..3_000_000,
            retired_frac in 0.0f64..1.0,
            bubbles in 0u64..3_000_000,
            rec in 0u64..1_000_000,
            bm in 0u64..10_000,
            flush in 0u64..10_000,
            fence in 0u64..10_000,
            iblk in 0u64..1_000_000,
            db in 0u64..3_000_000,
        ) {
            let input = TmaInput {
                cycles,
                uops_issued: issued,
                uops_retired: (issued as f64 * retired_frac) as u64,
                fetch_bubbles: bubbles,
                recovering: rec,
                branch_mispredicts: bm,
                machine_flushes: flush,
                fences_retired: fence,
                icache_blocked: iblk,
                dcache_blocked: db,
            };
            for wc in [1usize, 3, 5] {
                let tma = TmaModel::boom(wc).analyze(&input);
                prop_assert!((tma.top.total() - 1.0).abs() < 1e-9);
                for v in [
                    tma.top.retiring, tma.top.bad_speculation,
                    tma.top.frontend, tma.top.backend,
                    tma.frontend.fetch_latency, tma.frontend.pc_resteers,
                    tma.backend.mem_bound, tma.backend.core_bound,
                ] {
                    prop_assert!((0.0..=1.0).contains(&v), "{v} out of range");
                }
            }
        }

        #[test]
        fn more_bubbles_never_decrease_frontend(
            bubbles_a in 0u64..1_000,
            extra in 0u64..1_000,
        ) {
            let mk = |b| TmaInput {
                uops_issued: 1_000,
                uops_retired: 1_000,
                fetch_bubbles: b,
                ..TmaInput { cycles: 1_000, ..TmaInput::default() }
            };
            let a = TmaModel::boom(3).analyze(&mk(bubbles_a));
            let b = TmaModel::boom(3).analyze(&mk(bubbles_a + extra));
            prop_assert!(b.top.frontend >= a.top.frontend - 1e-12);
        }
    }
}
