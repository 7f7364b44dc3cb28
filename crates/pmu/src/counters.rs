//! The three counter implementations of §IV-B.

/// Which counter implementation a counter slot uses (Fig. 6).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum CounterArch {
    /// Stock Chipyard semantics: events mapped to the same counter are
    /// ORed; concurrent assertions increment by at most one.
    #[default]
    Stock,
    /// One full counter per event source (lane).
    Scalar,
    /// Local adder chain producing a multi-bit increment (Fig. 6a).
    AddWires,
    /// Per-source local counters with rotating-arbiter overflow collection
    /// (Fig. 6b).
    Distributed,
}

impl CounterArch {
    /// Every implementation, in evaluation order.
    pub const ALL: [CounterArch; 4] = [
        CounterArch::Stock,
        CounterArch::Scalar,
        CounterArch::AddWires,
        CounterArch::Distributed,
    ];

    /// The kebab-case name used by the CLI and campaign specs.
    pub fn name(self) -> &'static str {
        match self {
            CounterArch::Stock => "stock",
            CounterArch::Scalar => "scalar",
            CounterArch::AddWires => "add-wires",
            CounterArch::Distributed => "distributed",
        }
    }

    /// Parses a [`CounterArch::name`] back into the enum.
    pub fn from_name(name: &str) -> Option<CounterArch> {
        CounterArch::ALL.into_iter().find(|a| a.name() == name)
    }
}

impl std::fmt::Display for CounterArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One architectural counter per event source.
///
/// Exact, but each lane consumes one of the 31 HPM counters, which is why
/// the paper calls this approach infeasible for wide designs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScalarBank {
    values: Vec<u64>,
}

impl ScalarBank {
    /// Creates a bank with one counter per source.
    ///
    /// # Panics
    ///
    /// Panics if `num_sources` is zero or exceeds 16.
    pub fn new(num_sources: usize) -> ScalarBank {
        assert!(
            (1..=16).contains(&num_sources),
            "source count {num_sources} out of range"
        );
        ScalarBank {
            values: vec![0; num_sources],
        }
    }

    /// Number of sources (and counters).
    pub fn num_sources(&self) -> usize {
        self.values.len()
    }

    /// Advances one cycle; bit `i` of `asserted` is source `i`'s signal.
    pub fn tick(&mut self, asserted: u16) {
        for (i, v) in self.values.iter_mut().enumerate() {
            if asserted & (1 << i) != 0 {
                *v += 1;
            }
        }
    }

    /// Advances `repeats` cycles that all carry the same assertion mask,
    /// bit-identically to calling [`tick`](ScalarBank::tick) that many
    /// times.
    pub fn tick_many(&mut self, asserted: u16, repeats: u64) {
        for (i, v) in self.values.iter_mut().enumerate() {
            if asserted & (1 << i) != 0 {
                *v += repeats;
            }
        }
    }

    /// The counter of a single source.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn lane_value(&self, source: usize) -> u64 {
        self.values[source]
    }

    /// Sum over all per-source counters (the software-visible total).
    pub fn total(&self) -> u64 {
        self.values.iter().sum()
    }
}

/// A single counter fed by a multi-bit increment from a local adder chain
/// (Fig. 6a).
///
/// Exact: the increment each cycle equals the number of asserted sources.
/// The chain's combinational depth — modelled by
/// [`HardwareFootprint`](crate::HardwareFootprint) — grows linearly with
/// the source count because the paper's Chisel implementation compiled to
/// a sequential chain rather than a tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AddWiresCounter {
    value: u64,
    num_sources: usize,
}

impl AddWiresCounter {
    /// Creates a counter aggregating `num_sources` sources.
    ///
    /// # Panics
    ///
    /// Panics if `num_sources` is zero or exceeds 16.
    pub fn new(num_sources: usize) -> AddWiresCounter {
        assert!(
            (1..=16).contains(&num_sources),
            "source count {num_sources} out of range"
        );
        AddWiresCounter {
            value: 0,
            num_sources,
        }
    }

    /// Number of aggregated sources.
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// Width in bits of the increment bus (`⌈log2(sources + 1)⌉`).
    pub fn increment_width(&self) -> u32 {
        usize::BITS - self.num_sources.leading_zeros()
    }

    /// Advances one cycle with the given per-source assertion mask.
    pub fn tick(&mut self, asserted: u16) {
        let masked = asserted & mask_for(self.num_sources);
        self.value += masked.count_ones() as u64;
    }

    /// Advances `repeats` cycles that all carry the same assertion mask,
    /// bit-identically to calling [`tick`](AddWiresCounter::tick) that
    /// many times.
    pub fn tick_many(&mut self, asserted: u16, repeats: u64) {
        let masked = asserted & mask_for(self.num_sources);
        self.value += masked.count_ones() as u64 * repeats;
    }

    /// The software-visible counter value.
    pub fn value(&self) -> u64 {
        self.value
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
struct LocalCounter {
    count: u64,
    overflow: bool,
}

/// Per-source local counters with a rotating one-hot overflow arbiter
/// (Fig. 6b).
///
/// Each local counter counts its own source and raises an overflow flag on
/// wrapping at `2^N`. The principal counter polls one flag per cycle with
/// a rotating mask; a granted flag clears (like a clear-on-read register)
/// and bumps the principal by one, so the principal counts *overflows*,
/// each representing `2^N` events. [`software_value`] applies the `× 2^N`
/// post-processing the artifact harness performs.
///
/// The local width satisfies `2^N ≥ sources`, so a local counter cannot
/// wrap twice between two of its arbiter grants — no events are ever lost;
/// they are only *delayed*, giving the bounded undercount of
/// [`worst_case_undercount`].
///
/// [`software_value`]: DistributedCounter::software_value
/// [`worst_case_undercount`]: DistributedCounter::worst_case_undercount
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DistributedCounter {
    locals: Vec<LocalCounter>,
    principal: u64,
    width: u32,
    grant: usize,
}

impl DistributedCounter {
    /// Creates a counter for `num_sources` sources with the minimum local
    /// width `N = max(1, ⌈log2(sources)⌉)`.
    ///
    /// # Panics
    ///
    /// Panics if `num_sources` is zero or exceeds 16.
    pub fn new(num_sources: usize) -> DistributedCounter {
        let width = (usize::BITS - (num_sources.max(2) - 1).leading_zeros()).max(1);
        DistributedCounter::with_width(num_sources, width)
    }

    /// Creates a counter with an explicit local width `N`.
    ///
    /// # Panics
    ///
    /// Panics if `num_sources` is zero or exceeds 16, or if `2^width` is
    /// smaller than the source count (a local counter could wrap twice
    /// between grants and lose events).
    pub fn with_width(num_sources: usize, width: u32) -> DistributedCounter {
        assert!(
            (1..=16).contains(&num_sources),
            "source count {num_sources} out of range"
        );
        assert!(
            (1u64 << width) >= num_sources as u64,
            "local width {width} too narrow for {num_sources} sources"
        );
        DistributedCounter {
            locals: vec![
                LocalCounter {
                    count: 0,
                    overflow: false
                };
                num_sources
            ],
            principal: 0,
            width,
            grant: 0,
        }
    }

    /// Number of sources.
    pub fn num_sources(&self) -> usize {
        self.locals.len()
    }

    /// The local counter width `N`.
    pub fn local_width(&self) -> u32 {
        self.width
    }

    /// Advances one cycle with the given per-source assertion mask.
    pub fn tick(&mut self, asserted: u16) {
        let wrap = 1u64 << self.width;
        for (i, local) in self.locals.iter_mut().enumerate() {
            if asserted & (1 << i) != 0 {
                local.count += 1;
                if local.count == wrap {
                    local.count = 0;
                    debug_assert!(
                        !local.overflow,
                        "local counter wrapped twice between grants"
                    );
                    local.overflow = true;
                }
            }
        }
        // Rotating one-hot arbiter: exactly one local is inspected per
        // cycle; its overflow register clears on select.
        let granted = &mut self.locals[self.grant];
        if granted.overflow {
            granted.overflow = false;
            self.principal += 1;
        }
        self.grant = (self.grant + 1) % self.locals.len();
    }

    /// Advances `repeats` cycles that all carry the same assertion mask,
    /// bit-identically to calling [`tick`](DistributedCounter::tick) that
    /// many times — in closed form, so fast-forwarding a long stall span
    /// does not loop the arbiter.
    ///
    /// The derivation leans on the width invariant `2^N ≥ S` (enforced at
    /// construction): an asserted local wraps at most once between two of
    /// its arbiter grants, so over `repeats` ticks every wrap except
    /// possibly the last is guaranteed to be harvested, and the last wrap
    /// and any initially-pending flag are decided by comparing their next
    /// grant tick against the span length.
    pub fn tick_many(&mut self, asserted: u16, repeats: u64) {
        match repeats {
            0 => return,
            // One tick is cheaper to step than to solve: the closed form
            // below costs several divisions per local.
            1 => return self.tick(asserted),
            _ => {}
        }
        let s = self.locals.len() as u64;
        let wrap = 1u64 << self.width;
        let k = repeats;
        let mut principal_delta = 0u64;
        for (i, local) in self.locals.iter_mut().enumerate() {
            // First tick (1-based, within the span) at which the arbiter
            // inspects this local, then every `s` ticks after.
            let d = (i as u64 + s - self.grant as u64) % s + 1;
            let visits = if k >= d { (k - d) / s + 1 } else { 0 };
            let hit = asserted & (1 << i) != 0;
            let wraps = if hit { (local.count + k) / wrap } else { 0 };
            let mut harvested = 0u64;
            if local.overflow && visits > 0 {
                // The initially-pending flag is collected at the first
                // visit (possibly re-set by a later wrap, counted below).
                harvested += 1;
            }
            if wraps > 0 {
                // All but the last wrap precede the span end by ≥ 2^N ≥ S
                // ticks, so each has a harvesting visit inside the span.
                harvested += wraps - 1;
                let first_wrap = wrap - local.count;
                let last_wrap = first_wrap + (wraps - 1) * wrap;
                // Increments precede the grant within a tick, so a visit
                // on the wrap tick itself harvests it.
                let next_visit = if last_wrap <= d {
                    d
                } else {
                    d + (last_wrap - d).div_ceil(s) * s
                };
                if next_visit <= k {
                    harvested += 1;
                }
            }
            let flags = u64::from(local.overflow) + wraps;
            debug_assert!(
                flags <= harvested + 1,
                "local counter wrapped twice between grants"
            );
            local.overflow = flags > harvested;
            if hit {
                local.count = (local.count + k) % wrap;
            }
            principal_delta += harvested;
        }
        self.principal += principal_delta;
        self.grant = ((self.grant as u64 + k) % s) as usize;
    }

    /// The raw principal counter (counts overflows, not events).
    pub fn raw_value(&self) -> u64 {
        self.principal
    }

    /// The software-visible value after the `× 2^N` post-processing.
    pub fn software_value(&self) -> u64 {
        self.principal << self.width
    }

    /// The exact event count including residuals still sitting in local
    /// counters and unharvested overflow flags. Only available to the
    /// validation flow — real hardware cannot read the locals.
    pub fn precise_value(&self) -> u64 {
        let residual: u64 = self
            .locals
            .iter()
            .map(|l| l.count + if l.overflow { 1u64 << self.width } else { 0 })
            .sum();
        self.software_value() + residual
    }

    /// Upper bound on `precise − software` at any instant, as derived in
    /// §IV-B: each of the `S` local counters can hold at most `2^N − 1`
    /// leftover events, plus one full unharvested overflow each.
    pub fn worst_case_undercount(&self) -> u64 {
        let per_local = (1u64 << self.width) - 1 + (1u64 << self.width);
        self.locals.len() as u64 * per_local
    }
}

fn mask_for(num_sources: usize) -> u16 {
    if num_sources >= 16 {
        u16::MAX
    } else {
        (1u16 << num_sources) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_bank_counts_each_lane() {
        let mut b = ScalarBank::new(3);
        b.tick(0b101);
        b.tick(0b001);
        assert_eq!(b.lane_value(0), 2);
        assert_eq!(b.lane_value(1), 0);
        assert_eq!(b.lane_value(2), 1);
        assert_eq!(b.total(), 3);
    }

    #[test]
    fn add_wires_counts_concurrency_exactly() {
        let mut c = AddWiresCounter::new(4);
        c.tick(0b1111);
        c.tick(0b0011);
        c.tick(0);
        assert_eq!(c.value(), 6);
    }

    #[test]
    fn add_wires_ignores_out_of_range_bits() {
        let mut c = AddWiresCounter::new(2);
        c.tick(0b1111); // only two sources exist
        assert_eq!(c.value(), 2);
    }

    #[test]
    fn add_wires_increment_width() {
        assert_eq!(AddWiresCounter::new(1).increment_width(), 1);
        assert_eq!(AddWiresCounter::new(3).increment_width(), 2);
        assert_eq!(AddWiresCounter::new(4).increment_width(), 3);
        assert_eq!(AddWiresCounter::new(8).increment_width(), 4);
    }

    #[test]
    fn distributed_width_defaults() {
        assert_eq!(DistributedCounter::new(1).local_width(), 1);
        assert_eq!(DistributedCounter::new(4).local_width(), 2);
        assert_eq!(DistributedCounter::new(5).local_width(), 3);
        assert_eq!(DistributedCounter::new(8).local_width(), 3);
    }

    #[test]
    #[should_panic(expected = "too narrow")]
    fn distributed_narrow_width_rejected() {
        let _ = DistributedCounter::with_width(4, 1);
    }

    #[test]
    fn distributed_never_loses_events() {
        // Saturate all 4 sources for many cycles: precise value must be
        // exact, software value within the undercount bound.
        let mut c = DistributedCounter::new(4);
        let cycles = 10_000u64;
        for _ in 0..cycles {
            c.tick(0b1111);
        }
        let exact = 4 * cycles;
        assert_eq!(c.precise_value(), exact);
        let under = exact - c.software_value();
        assert!(under <= c.worst_case_undercount(), "undercount {under}");
    }

    #[test]
    fn distributed_quiet_tail_drains_overflows() {
        let mut c = DistributedCounter::new(4);
        for _ in 0..100 {
            c.tick(0b1111);
        }
        // Quiet cycles let the arbiter harvest the remaining flags.
        for _ in 0..8 {
            c.tick(0);
        }
        let exact = 400;
        assert_eq!(c.precise_value(), exact);
        // After draining, only sub-2^N residuals remain.
        assert!(exact - c.software_value() <= 4 * 3);
    }

    #[test]
    fn distributed_single_source_halves_nothing() {
        let mut c = DistributedCounter::new(1);
        for _ in 0..64 {
            c.tick(1);
        }
        assert_eq!(c.precise_value(), 64);
        assert!(c.software_value() <= 64);
    }

    #[test]
    fn paper_worked_example_fetch_width_four() {
        // §IV-B: BOOM fetch width 4 → each local counts to 3 before
        // overflow (N = 2); the paper bounds the leftover at 12 events
        // when only residuals (not pending flags) remain.
        let c = DistributedCounter::new(4);
        assert_eq!(c.local_width(), 2);
        let residual_only = c.num_sources() as u64 * ((1u64 << c.local_width()) - 1);
        assert_eq!(residual_only, 12);
        // The error formula from the paper's smallest benchmark:
        let fetch_bubbles = 929.0;
        let err = residual_only as f64 / (fetch_bubbles + residual_only as f64);
        assert!((err - 0.0128).abs() < 0.0005, "error was {err}");
    }

    #[test]
    fn distributed_tick_many_matches_looped_ticks() {
        // Brute-force the closed form against the per-cycle arbiter over a
        // grid of source counts, widths, warm-up lengths (arbitrary local
        // counts, flags, and grant positions), constant masks, and span
        // lengths. Full-state equality, not just the software value.
        let mut x = 0x9e3779b9u32;
        let mut rand = move || {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            x >> 16
        };
        for sources in [1usize, 2, 3, 4, 7, 8] {
            let min_width = (usize::BITS - (sources.max(2) - 1).leading_zeros()).max(1);
            for width in [min_width, min_width + 1] {
                for _ in 0..40 {
                    let mut bulk = DistributedCounter::with_width(sources, width);
                    let warm_len = (rand() % 37) as usize;
                    let span_mask = (rand() as u16) & mask_for(sources);
                    for _ in 0..warm_len {
                        bulk.tick((rand() as u16) & mask_for(sources));
                    }
                    let mut stepped = bulk.clone();
                    let k = 1 + (rand() as u64 % 300);
                    bulk.tick_many(span_mask, k);
                    for _ in 0..k {
                        stepped.tick(span_mask);
                    }
                    assert_eq!(
                        bulk, stepped,
                        "sources={sources} width={width} mask={span_mask:#b} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn implementations_agree_on_bursty_pattern() {
        let mut scalar = ScalarBank::new(4);
        let mut wires = AddWiresCounter::new(4);
        let mut dist = DistributedCounter::new(4);
        let mut expected = 0u64;
        // Deterministic bursty pattern.
        let mut x = 0x12345678u32;
        for _ in 0..50_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let mask = (x >> 13) as u16 & 0b1111;
            expected += mask.count_ones() as u64;
            scalar.tick(mask);
            wires.tick(mask);
            dist.tick(mask);
        }
        assert_eq!(scalar.total(), expected);
        assert_eq!(wires.value(), expected);
        assert_eq!(dist.precise_value(), expected);
        assert!(expected - dist.software_value() <= dist.worst_case_undercount());
    }
}
