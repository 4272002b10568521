//! The trap-kinetics throughput kernel: phase-level rate hoisting and a
//! structure-of-arrays trap bank.
//!
//! Every experiment in the stack bottoms out in advancing trap
//! occupancies, and the two rate multipliers that drive a step depend
//! only on the [`DeviceCondition`] — not on the trap. Re-deriving them
//! per trap (two `exp` calls plus an Arrhenius factor each) would cost
//! millions of redundant transcendentals per run, so the hot path is
//! split in three:
//!
//! 1. [`PhaseRates`] evaluates the multipliers **once per condition**,
//!    so a 24 h stress phase over a whole chip computes its
//!    transcendentals once, not once per trap.
//! 2. [`PhaseRateCache`] memoizes `PhaseRates` across the handful of
//!    distinct conditions a fan-out produces (stressed / recovering /
//!    toggling devices under one environment), so higher layers can
//!    share one evaluation across thousands of devices.
//! 3. [`TrapBank`] stores a device's (or a fleet shard's) traps as
//!    flat arrays (structure-of-arrays) with **one** chunk loop over a
//!    [`LANES`]-chunked span of the bank, one phase per call.
//!    [`advance_range`](TrapBank::advance_range) computes each trap's
//!    decay `exp(-dt / tau)` and steps it;
//!    [`advance_all`](TrapBank::advance_all) is its whole-bank range.
//!    A caller that repeats one `(rates, dt)` step — a fleet chip
//!    between reports — stores the decays and equilibrium occupancies
//!    once with [`fill_decay`](TrapBank::fill_decay) and steps from them
//!    with [`advance_range_cached`](TrapBank::advance_range_cached): no
//!    `exp` and no division per trap. The bank's one reduction,
//!    [`delta_vth`](TrapBank::delta_vth) (or
//!    [`delta_vth_range`](TrapBank::delta_vth_range) over a chip's
//!    slice), is the `ΔVth` sum every caller reads.
//!
//! The bank is the workspace's only trap state: devices, populations
//! and fleet shards all hold one, and [`Trap`] values only go *into* a
//! bank (sampling, tests, benches), never back out.
//!
//! [`Trap::advance`] stays as the scalar oracle the kernel is pinned
//! against; nothing on a hot path calls it.
//!
//! # Bit-exactness contract
//!
//! The kernel is **bit-for-bit identical** to the scalar
//! [`Trap::advance`] path (pinned by `tests/kernel_equivalence.rs`):
//!
//! * The bank stores `tau` values, not reciprocals, and keeps the exact
//!   `multiplier / tau` division of the scalar path — precomputing
//!   `1/tau` would change rounding.
//! * Permanent traps are **not** partitioned into a separate segment
//!   (that would reorder the `delta_vth` summation); instead the bank
//!   stores an *effective* emission time constant of `f64::INFINITY`
//!   for them, which makes `emission_mult / tau_e` an exact `0.0` —
//!   the same value the scalar path's `if permanent` branch produces —
//!   while keeping the inner loop branch-free on that axis.
//! * Each per-trap step performs the same guards in the same order as
//!   [`Trap::advance`]: zero total rate and infinite `tau` freeze the
//!   trap, the relaxation uses `exp(-dt / tau)` (not `exp(-dt * rate)`),
//!   and the result is clamped to `[0, 1]` exactly as before.
//! * The step is split in two private functions, a decay part and a
//!   step part (`p∞ + (p − p∞)·decay`, clamped), which both entry points
//!   share, so the cached step is bit-identical to `advance_range`. A
//!   frozen trap (τ = ∞: a zero total rate, a permanent trap with no
//!   capture, a subnormal total rate, or `dt ≤ 0`) stores a negative
//!   marker in place of its decay — no `exp` of a non-positive argument
//!   is negative — and the step part returns its occupancy bit for bit
//!   (a decay of exactly `1.0` would not: `p∞ + (p − p∞)` can round).
//!   The cached step stores p∞ next to the decay, both from the one
//!   `relaxation` call the uncached step makes, so it divides nothing.
//! * The [`delta_vth`](TrapBank::delta_vth) sum accumulates in trap
//!   index order from `-0.0`, so it matches `Iterator::sum` over the
//!   scalar traps' contributions to the last ulp.

use selfheal_telemetry as telemetry;
use selfheal_units::{Millivolts, Seconds};

use crate::condition::DeviceCondition;

use super::kinetics::{capture_rate_multiplier, emission_rate_multiplier};
use super::trap::Trap;

/// Bump when the kernel's arithmetic or layout changes meaning.
///
/// Result-cache namespaces that store kernel-derived outputs (fabric
/// surveys, per-chip experiment runs) use this as their version, so a
/// kernel rewrite orphans stale entries instead of replaying them.
pub const KERNEL_VERSION: u32 = 3;

/// Fixed chunk width of the advance kernels, in traps.
///
/// The hot loop processes the `SoA` columns in blocks of this many lanes
/// (one AVX-512 register of `f64`, two AVX2 registers) with a scalar
/// tail, so the per-lane divisions and multiplies autovectorize.
/// Exposed so the equivalence tests can pin the chunk-boundary sizes
/// (`LANES − 1`, `LANES`, `LANES + 1`) explicitly.
pub const LANES: usize = 8;

/// The two condition-dependent rate multipliers, evaluated once per
/// phase instead of once per trap.
///
/// A `PhaseRates` is a pure function of its [`DeviceCondition`]; holding
/// one fixed over a phase loop is exactly equivalent to re-deriving it
/// per trap, because the per-trap arithmetic
/// (`capture_mult / tau_c0`, `emission_mult / tau_e`) is unchanged.
///
/// # Examples
///
/// ```
/// use selfheal_bti::td::PhaseRates;
/// use selfheal_bti::{DeviceCondition, Environment};
/// use selfheal_units::{Celsius, Volts};
///
/// let cond = DeviceCondition::dc_stress(Environment::new(
///     Volts::new(1.2),
///     Celsius::new(110.0),
/// ));
/// let rates = PhaseRates::for_condition(cond);
/// assert_eq!(rates.condition(), cond);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRates {
    cond: DeviceCondition,
    capture_mult: f64,
    emission_mult: f64,
}

impl PhaseRates {
    /// Evaluates both rate multipliers for `cond`.
    #[must_use]
    pub fn for_condition(cond: DeviceCondition) -> PhaseRates {
        PhaseRates {
            cond,
            capture_mult: capture_rate_multiplier(cond),
            emission_mult: emission_rate_multiplier(cond),
        }
    }

    /// The condition these rates were evaluated for.
    #[must_use]
    pub fn condition(&self) -> DeviceCondition {
        self.cond
    }

    /// The equilibrium occupancy and relaxation time constant for a trap
    /// with the given time constants under these rates.
    ///
    /// This is the arithmetic core shared by the scalar oracle
    /// ([`Trap::advance`]) and the bank kernel, so there is exactly one
    /// place the rate math lives.
    ///
    /// Returns `(p_inf, tau_eff)`: the equilibrium occupancy the trap
    /// relaxes towards and the exponential time constant of that
    /// relaxation, i.e. the exact solution of `dp/dt = (1−p)·rc − p·re`.
    /// When both effective rates are zero the trap is frozen: `tau_eff`
    /// is infinite and `p_inf` unused.
    #[must_use]
    pub fn relaxation(&self, tau_c0: f64, tau_e0: f64) -> (f64, f64) {
        let capture_rate = self.capture_mult / tau_c0;
        let emission_rate = self.emission_mult / tau_e0;
        let total_rate = capture_rate + emission_rate;
        if total_rate <= 0.0 {
            // Fully frozen: nothing drives the trap in either direction.
            return (0.0, f64::INFINITY);
        }
        (capture_rate / total_rate, 1.0 / total_rate)
    }
}

/// Past this many distinct conditions a [`PhaseRateCache`] is emptied,
/// so a stream of novel conditions (a fleet's reported duties) cannot
/// grow it unbounded.
const MAX_CACHED_RATES: usize = 256;

/// A tiny memo table of [`PhaseRates`] keyed by condition.
///
/// A chip-advance fans one environment out into at most a handful of
/// distinct conditions (stressed, recovering, and a toggling duty or
/// two), so a linear scan over a small vector beats any hashing —
/// especially since [`DeviceCondition`] carries floats and has no `Eq`.
#[derive(Debug, Clone, Default)]
pub struct PhaseRateCache {
    entries: Vec<PhaseRates>,
}

impl PhaseRateCache {
    /// An empty cache; rates populate on first use.
    #[must_use]
    pub fn new() -> PhaseRateCache {
        PhaseRateCache {
            entries: Vec::new(),
        }
    }

    /// The rates for `cond`, evaluating them on first sight. A full
    /// cache (256 conditions) is emptied first.
    pub fn rates(&mut self, cond: DeviceCondition) -> PhaseRates {
        if let Some(hit) = self.entries.iter().find(|r| r.cond == cond) {
            return *hit;
        }
        if self.entries.len() == MAX_CACHED_RATES {
            self.entries.clear();
        }
        let rates = PhaseRates::for_condition(cond);
        self.entries.push(rates);
        rates
    }
}

/// A device's traps in structure-of-arrays layout — the workspace's
/// only trap state.
///
/// Four parallel flat arrays (`tau_c0`, `tau_e`, `step_mv`, `occupancy`)
/// keep the advance kernel's loads contiguous and auto-vectorizable. A
/// transistor holds one bank; a fleet shard holds
/// the concatenated banks of its chips and addresses each chip by
/// index range. Banks are built from [`Trap`] values (by
/// [`sample`](TrapBank::sample), [`Extend`] or [`FromIterator`]), or
/// fresh from stored constant columns
/// ([`from_columns`](TrapBank::from_columns)); there is no way back out
/// to [`Trap`] values, because the kernel and the `ΔVth` sum read the
/// columns directly. See the module docs for the layout decisions the
/// bit-exactness contract forces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrapBank {
    /// Capture time constants at reference stress (s).
    tau_c0: Vec<f64>,
    /// *Effective* emission time constants (s): the sampled value for
    /// recoverable traps, `f64::INFINITY` for permanent ones.
    tau_e: Vec<f64>,
    /// Per-trap `ΔVth` contribution when occupied (mV).
    step_mv: Vec<f64>,
    /// Current capture probability of each trap, in `[0, 1]`.
    occupancy: Vec<f64>,
}

impl TrapBank {
    /// An empty bank — an ideal, ageless device.
    #[must_use]
    pub fn new() -> TrapBank {
        TrapBank::default()
    }

    /// Appends one trap to the bank.
    fn push(&mut self, trap: Trap) {
        self.tau_c0.push(trap.tau_c0().get());
        // `tau_e0()` already applies the permanent-trap freeze (INFINITY),
        // which is what makes the advance kernel branch-free on that axis.
        self.tau_e.push(trap.tau_e0().get());
        self.step_mv.push(trap.delta_vth_step().get());
        self.occupancy.push(trap.occupancy());
    }

    /// Number of traps in the bank.
    #[must_use]
    pub fn len(&self) -> usize {
        self.occupancy.len()
    }

    /// Whether the bank holds no traps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupancy.is_empty()
    }

    /// A new bank holding a copy of the traps in `range` — a chip's
    /// slice of a shard bank, to project forward without touching the
    /// live state.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank.
    #[must_use]
    pub fn copy_range(&self, range: std::ops::Range<usize>) -> TrapBank {
        TrapBank {
            tau_c0: self.tau_c0[range.clone()].to_vec(),
            tau_e: self.tau_e[range.clone()].to_vec(),
            step_mv: self.step_mv[range.clone()].to_vec(),
            occupancy: self.occupancy[range].to_vec(),
        }
    }

    /// Advances every trap by `dt` under pre-evaluated rates: the
    /// whole-bank [`advance_range`](TrapBank::advance_range).
    ///
    /// This is the device-level entry point, so it is the one place the
    /// kernel throughput counters `bti.td.kernel.traps_advanced` and
    /// `bti.td.kernel.advance_calls` are fed (whole counts, so their
    /// totals do not depend on the order pool jobs finish in). Fleet
    /// shards step chip ranges and count once per shard and epoch.
    pub fn advance_all(&mut self, rates: &PhaseRates, dt: Seconds) {
        self.advance_range(0..self.occupancy.len(), rates, dt);
        if telemetry::metrics::enabled() {
            telemetry::metrics::counter_add("bti.td.kernel.traps_advanced", self.len() as f64);
            telemetry::metrics::counter_add("bti.td.kernel.advance_calls", 1.0);
        }
    }

    /// Advances the traps in `range` by `dt` under pre-evaluated rates,
    /// leaving every trap outside the range untouched.
    ///
    /// This is the hot kernel: one division pair, one `exp`, and a
    /// clamp per trap — the transcendentals in the rate multipliers are
    /// already paid for in `rates`. Each trap's step is its `decay` part
    /// then its `step` part, the same two functions
    /// [`advance_range_cached`](TrapBank::advance_range_cached) splits
    /// across epochs.
    ///
    /// A fleet shard stores many chips' traps contiguously in one bank
    /// and advances each chip's slice under that chip's own condition.
    /// Each trap's step depends only on that trap, so advancing a bank
    /// range by range under one shared condition is bit-identical to one
    /// whole-bank advance.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank.
    pub fn advance_range(
        &mut self,
        range: std::ops::Range<usize>,
        rates: &PhaseRates,
        dt: Seconds,
    ) {
        let (tau_c0, tau_e, occupancy) = self.columns(range);
        if dt.is_zero_or_negative() {
            // Frozen step: nothing moves.
            return;
        }
        let neg_dt = -dt.get();
        step_chunked(occupancy, |k, p| {
            let (p_inf, tau) = rates.relaxation(tau_c0[k], tau_e[k]);
            step(p, p_inf, decay(tau, neg_dt))
        });
    }

    /// Writes what an `advance_range(range, rates, dt)` step computes
    /// before it touches an occupancy into two bank-aligned columns,
    /// both from one `relaxation` call per trap: the decay
    /// `exp(-dt / tau)` into `decay_column` (or a frozen marker for a
    /// trap that step leaves as it is: τ = ∞, or `dt ≤ 0`) and the
    /// equilibrium occupancy p∞ into `p_inf_column`. Entries outside
    /// `range` are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank or either column is not as
    /// long as the bank.
    pub fn fill_decay(
        &self,
        range: std::ops::Range<usize>,
        rates: &PhaseRates,
        dt: Seconds,
        decay_column: &mut [f64],
        p_inf_column: &mut [f64],
    ) {
        assert_eq!(
            decay_column.len(),
            self.len(),
            "decay column is not bank-aligned"
        );
        assert_eq!(
            p_inf_column.len(),
            self.len(),
            "p∞ column is not bank-aligned"
        );
        let start = range.start.min(range.end);
        let frozen = dt.is_zero_or_negative();
        let neg_dt = -dt.get();
        for (k, (decay_out, p_inf_out)) in decay_column[start..range.end]
            .iter_mut()
            .zip(&mut p_inf_column[start..range.end])
            .enumerate()
        {
            let (p_inf, tau) = rates.relaxation(self.tau_c0[start + k], self.tau_e[start + k]);
            *decay_out = if frozen { FROZEN } else { decay(tau, neg_dt) };
            *p_inf_out = p_inf;
        }
    }

    /// [`advance_range`](TrapBank::advance_range) from the two columns,
    /// bank-aligned, that [`fill_decay`](TrapBank::fill_decay) filled
    /// for the same `range`, `rates` and `dt`. Only the step part
    /// remains per trap — no `exp`, no division — and the result is
    /// bit-identical to `advance_range(range, rates, dt)`.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank or either column is not as
    /// long as the bank.
    pub fn advance_range_cached(
        &mut self,
        range: std::ops::Range<usize>,
        decay_column: &[f64],
        p_inf_column: &[f64],
    ) {
        assert_eq!(
            decay_column.len(),
            self.len(),
            "decay column is not bank-aligned"
        );
        assert_eq!(
            p_inf_column.len(),
            self.len(),
            "p∞ column is not bank-aligned"
        );
        let start = range.start.min(range.end);
        let decay_column = &decay_column[start..range.end];
        let p_inf_column = &p_inf_column[start..range.end];
        let (_, _, occupancy) = self.columns(range);
        step_chunked(occupancy, |k, p| step(p, p_inf_column[k], decay_column[k]));
    }

    /// The `tau_c0`, `tau_e` and mutable occupancy slices of `range`. A
    /// reversed range is empty, so it advances nothing.
    fn columns(&mut self, range: std::ops::Range<usize>) -> (&[f64], &[f64], &mut [f64]) {
        assert!(range.end <= self.occupancy.len(), "range out of bounds");
        let start = range.start.min(range.end);
        (
            &self.tau_c0[start..range.end],
            &self.tau_e[start..range.end],
            &mut self.occupancy[start..range.end],
        )
    }

    /// Total threshold-voltage shift of the bank: Σ occupancy · step.
    #[must_use]
    pub fn delta_vth(&self) -> Millivolts {
        self.delta_vth_range(0..self.len())
    }

    /// The [`delta_vth`](TrapBank::delta_vth) sum restricted to the
    /// traps in `range` — one chip's shift out of a shard bank.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank or starts after its end.
    #[must_use]
    pub fn delta_vth_range(&self, range: std::ops::Range<usize>) -> Millivolts {
        // Starts at -0.0 and adds in trap order, like
        // `Iterator::sum::<f64>()` over the scalar traps' contributions.
        let mut delta_vth_mv = -0.0;
        for (p, step) in self.occupancy[range.clone()]
            .iter()
            .zip(&self.step_mv[range])
        {
            delta_vth_mv += p * step;
        }
        Millivolts::new(delta_vth_mv)
    }

    /// A fresh bank (every trap empty) from its three constant columns,
    /// as [`tau_c0`](TrapBank::tau_c0), [`tau_e`](TrapBank::tau_e) and
    /// [`step_mv`](TrapBank::step_mv) read them: how a stored fleet
    /// image comes back without re-sampling.
    ///
    /// # Panics
    ///
    /// Panics if the columns differ in length.
    #[must_use]
    pub fn from_columns(tau_c0: Vec<f64>, tau_e: Vec<f64>, step_mv: Vec<f64>) -> TrapBank {
        assert!(
            tau_e.len() == tau_c0.len() && step_mv.len() == tau_c0.len(),
            "constant columns differ in length"
        );
        let occupancy = vec![0.0; tau_c0.len()];
        TrapBank {
            tau_c0,
            tau_e,
            step_mv,
            occupancy,
        }
    }

    /// Capture time constants at reference stress (s), in trap order.
    #[must_use]
    pub fn tau_c0(&self) -> &[f64] {
        &self.tau_c0
    }

    /// Effective emission time constants (s), in trap order: `∞` for a
    /// permanent trap.
    #[must_use]
    pub fn tau_e(&self) -> &[f64] {
        &self.tau_e
    }

    /// Per-trap `ΔVth` contributions when occupied (mV), in trap order.
    #[must_use]
    pub fn step_mv(&self) -> &[f64] {
        &self.step_mv
    }

    /// Raw occupancy slice, in trap order — the checkpointable mutable
    /// state of a bank (everything else is fixed at sampling time).
    #[must_use]
    pub fn occupancies(&self) -> &[f64] {
        &self.occupancy
    }

    /// Mutable occupancy slice, in trap order: a checkpoint resume
    /// overwrites it in place. It always spans the whole bank, so a
    /// snapshot of another shape cannot be spliced in.
    pub fn occupancies_mut(&mut self) -> &mut [f64] {
        &mut self.occupancy
    }
}

/// Appends traps in order — how a fleet shard packs its chips' traps
/// into one bank.
impl Extend<Trap> for TrapBank {
    fn extend<I: IntoIterator<Item = Trap>>(&mut self, traps: I) {
        for trap in traps {
            self.push(trap);
        }
    }
}

impl FromIterator<Trap> for TrapBank {
    fn from_iter<I: IntoIterator<Item = Trap>>(traps: I) -> TrapBank {
        let mut bank = TrapBank::new();
        bank.extend(traps);
        bank
    }
}

/// The decay a frozen trap (τ = ∞) stores in place of `exp(-dt / tau)`.
/// No `exp` of a non-positive argument is negative, so the marker never
/// collides with a real decay (nor with the NaN a NaN τ gives, which
/// [`step`] propagates like the scalar path).
pub(super) const FROZEN: f64 = -1.0;

/// The decay part of one trap's step: `exp(-dt / tau)` (not
/// `exp(-dt * rate)`), or [`FROZEN`] for an infinite relaxation time —
/// a zero total rate, a permanent trap with no capture, or a total rate
/// so small that `1 / rate` overflows.
#[inline(always)]
pub(super) fn decay(tau: f64, neg_dt: f64) -> f64 {
    if tau.is_infinite() {
        FROZEN
    } else {
        (neg_dt / tau).exp()
    }
}

/// The step part of one trap's step: occupancy `p` relaxed towards `p_inf`
/// by `decay`, clamped to `[0, 1]`; a [`FROZEN`] trap keeps `p` bit for
/// bit. With [`decay`], the same guards in the same order as
/// [`Trap::advance`].
#[inline(always)]
pub(super) fn step(p: f64, p_inf: f64, decay: f64) -> f64 {
    if decay < 0.0 {
        return p;
    }
    (p_inf + (p - p_inf) * decay).clamp(0.0, 1.0)
}

/// The one chunk loop: `next(k, p)` for every trap `k` of `occupancy`,
/// in [`LANES`]-wide blocks — every lane's next occupancy first (the
/// lanes are independent, so the block autovectorizes), then the stores
/// — plus a scalar tail.
#[inline(always)]
fn step_chunked(occupancy: &mut [f64], next: impl Fn(usize, f64) -> f64) {
    let n = occupancy.len();
    let whole = n - n % LANES;
    let mut i = 0;
    while i < whole {
        let mut block = [0.0f64; LANES];
        for (j, slot) in block.iter_mut().enumerate() {
            *slot = next(i + j, occupancy[i + j]);
        }
        occupancy[i..i + LANES].copy_from_slice(&block);
        i += LANES;
    }
    for (k, p) in occupancy.iter_mut().enumerate().skip(whole) {
        *p = next(k, *p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Environment;
    use selfheal_units::{Celsius, DutyCycle, Millivolts, Volts};

    fn stress() -> DeviceCondition {
        DeviceCondition::dc_stress(Environment::new(Volts::new(1.2), Celsius::new(110.0)))
    }

    fn recovery() -> DeviceCondition {
        DeviceCondition::recovery(Environment::new(Volts::new(-0.3), Celsius::new(110.0)))
    }

    fn sample_traps() -> Vec<Trap> {
        vec![
            Trap::new(
                Seconds::new(10.0),
                Seconds::new(1e4),
                Millivolts::new(0.2),
                false,
            ),
            Trap::new(
                Seconds::new(1e3),
                Seconds::new(50.0),
                Millivolts::new(0.1),
                true,
            ),
            Trap::new(
                Seconds::new(0.5),
                Seconds::new(f64::INFINITY),
                Millivolts::new(0.3),
                false,
            ),
        ]
    }

    fn bank() -> TrapBank {
        sample_traps().into_iter().collect()
    }

    #[test]
    fn phase_rates_match_kinetics_functions() {
        let cond = stress();
        let rates = PhaseRates::for_condition(cond);
        assert_eq!(rates.capture_mult, capture_rate_multiplier(cond));
        assert_eq!(rates.emission_mult, emission_rate_multiplier(cond));
    }

    #[test]
    fn rate_cache_evaluates_each_condition_once() {
        let mut cache = PhaseRateCache::new();
        let a = cache.rates(stress());
        let b = cache.rates(recovery());
        let a2 = cache.rates(stress());
        assert_eq!(cache.entries.len(), 2);
        assert_eq!(a, a2);
        assert_ne!(a.capture_mult, b.capture_mult);
    }

    #[test]
    fn a_full_rate_cache_is_emptied_and_stays_exact() {
        let mut cache = PhaseRateCache::new();
        let env = Environment::new(Volts::new(1.2), Celsius::new(90.0));
        for i in 0..=MAX_CACHED_RATES {
            #[allow(clippy::cast_precision_loss)]
            let cond = DeviceCondition::new(env, DutyCycle::new(i as f64 / 400.0));
            assert_eq!(cache.rates(cond), PhaseRates::for_condition(cond));
            assert!(cache.entries.len() <= MAX_CACHED_RATES);
        }
        assert_eq!(cache.entries.len(), 1, "the 257th condition emptied it");
    }

    #[test]
    fn advance_all_matches_scalar_trap_advance() {
        let mut traps = sample_traps();
        let mut bank = bank();
        let dt = Seconds::new(3600.0);
        for cond in [stress(), recovery()] {
            let rates = PhaseRates::for_condition(cond);
            for trap in &mut traps {
                trap.advance(cond, dt);
            }
            bank.advance_all(&rates, dt);
            for (trap, got) in traps.iter().zip(bank.occupancies()) {
                assert_eq!(got.to_bits(), trap.occupancy().to_bits());
            }
        }
    }

    #[test]
    fn zero_dt_is_a_frozen_step() {
        let mut bank = bank();
        let rates = PhaseRates::for_condition(stress());
        bank.advance_all(&rates, Seconds::new(3600.0));
        let snapshot = bank.clone();
        bank.advance_all(&rates, Seconds::new(0.0));
        bank.advance_all(&rates, Seconds::new(-5.0));
        assert_eq!(bank, snapshot);
    }

    /// Traps whose step leaves them as they are — permanent traps under
    /// recovery (zero total rate), any trap over `dt = 0` — store the
    /// frozen marker, and the cached step keeps them bit for bit. The p∞
    /// column holds `relaxation`'s p∞ for every trap, frozen or not.
    #[test]
    fn frozen_traps_store_the_marker_and_keep_their_occupancy() {
        let step_mv = Millivolts::new(0.2);
        let mut bank: TrapBank = [
            Trap::restore(Seconds::new(10.0), Seconds::new(1e4), step_mv, true, 0.3),
            Trap::restore(
                Seconds::new(f64::MAX),
                Seconds::new(1.0),
                step_mv,
                true,
                0.7,
            ),
            Trap::restore(Seconds::new(10.0), Seconds::new(1e4), step_mv, false, 0.4),
        ]
        .into_iter()
        .collect();
        let p_inf_of = |bank: &TrapBank, rates: &PhaseRates| -> Vec<u64> {
            (0..bank.len())
                .map(|k| rates.relaxation(bank.tau_c0[k], bank.tau_e[k]).0.to_bits())
                .collect()
        };
        let bits = |column: &[f64]| -> Vec<u64> { column.iter().map(|x| x.to_bits()).collect() };
        let heal = PhaseRates::for_condition(recovery());
        let mut decay = vec![0.0; bank.len()];
        let mut p_inf = vec![0.5; bank.len()];
        bank.fill_decay(0..3, &heal, Seconds::new(3600.0), &mut decay, &mut p_inf);
        assert_eq!(decay[..2], [FROZEN, FROZEN]);
        assert!((0.0..1.0).contains(&decay[2]));
        assert_eq!(bits(&p_inf), p_inf_of(&bank, &heal));
        let mut uncached = bank.clone();
        bank.advance_range_cached(0..3, &decay, &p_inf);
        uncached.advance_range(0..3, &heal, Seconds::new(3600.0));
        assert_eq!(bank, uncached);
        assert_eq!(bank.occupancies()[..2], [0.3, 0.7]);

        let before = bank.clone();
        let hot = PhaseRates::for_condition(stress());
        bank.fill_decay(0..3, &hot, Seconds::new(0.0), &mut decay, &mut p_inf);
        assert!(decay.iter().all(|&d| d == FROZEN));
        assert_eq!(bits(&p_inf), p_inf_of(&bank, &hot));
        bank.advance_range_cached(0..3, &decay, &p_inf);
        assert_eq!(bank, before);

        // A fill of one range leaves the other entries of both columns.
        let (old_decay, old_p_inf) = (bits(&decay), bits(&p_inf));
        bank.fill_decay(1..2, &heal, Seconds::new(60.0), &mut decay, &mut p_inf);
        assert_eq!(
            [bits(&decay)[0], bits(&decay)[2]],
            [old_decay[0], old_decay[2]]
        );
        assert_eq!(
            [bits(&p_inf)[0], bits(&p_inf)[2]],
            [old_p_inf[0], old_p_inf[2]]
        );
    }

    #[test]
    fn delta_vth_matches_the_scalar_sum() {
        let mut traps = sample_traps();
        let mut bank = bank();
        let cond = stress();
        bank.advance_all(&PhaseRates::for_condition(cond), Seconds::new(3600.0));
        for trap in &mut traps {
            trap.advance(cond, Seconds::new(3600.0));
        }
        let delta: f64 = traps.iter().map(|t| t.contribution().get()).sum();
        assert_eq!(bank.delta_vth().get().to_bits(), delta.to_bits());
        assert_eq!(
            TrapBank::new().delta_vth().get().to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn ranged_advance_composes_to_whole_bank_advance() {
        let mut whole: TrapBank = (0..3).flat_map(|_| sample_traps()).collect();
        let mut ranged = whole.clone();
        let rates = PhaseRates::for_condition(stress());
        let dt = Seconds::new(3600.0);
        whole.advance_all(&rates, dt);
        for chip in 0..3 {
            ranged.advance_range(chip * 3..(chip + 1) * 3, &rates, dt);
        }
        assert_eq!(whole, ranged);
    }

    #[test]
    fn ranged_advance_leaves_outside_traps_untouched() {
        let mut bank = bank();
        let rates = PhaseRates::for_condition(stress());
        bank.advance_all(&rates, Seconds::new(3600.0));
        let snapshot = bank.clone();
        bank.advance_range(1..2, &rates, Seconds::new(600.0));
        for i in [0usize, 2] {
            let got = bank.occupancies()[i];
            let want = snapshot.occupancies()[i];
            assert_eq!(got.to_bits(), want.to_bits(), "trap {i} moved");
        }
        assert_ne!(
            bank.occupancies()[1].to_bits(),
            snapshot.occupancies()[1].to_bits()
        );
    }

    #[test]
    fn copied_range_is_the_sub_bank() {
        let mut bank = bank();
        bank.advance_all(&PhaseRates::for_condition(stress()), Seconds::new(3600.0));
        let sub = bank.copy_range(1..bank.len());
        assert_eq!(sub.occupancies(), &bank.occupancies()[1..]);
        let want = sub.delta_vth();
        let got = bank.delta_vth_range(1..bank.len());
        assert_eq!(got.get().to_bits(), want.get().to_bits());
    }

    #[test]
    fn extend_appends_in_order() {
        let mut packed = bank();
        packed.extend(sample_traps());
        let twice: TrapBank = sample_traps().into_iter().chain(sample_traps()).collect();
        assert_eq!(packed, twice);
        assert_eq!(packed.len(), 6);
    }

    /// A fresh bank given an aged bank's occupancies is the aged bank.
    #[test]
    fn occupancy_snapshot_round_trips() {
        let mut aged = bank();
        aged.advance_all(&PhaseRates::for_condition(stress()), Seconds::new(3600.0));
        let mut bank = bank();
        assert_ne!(bank, aged);
        bank.occupancies_mut().copy_from_slice(aged.occupancies());
        assert_eq!(bank, aged);
    }

    /// A bank rebuilt from another's constant columns is that bank
    /// fresh: same constants, every trap empty.
    #[test]
    fn from_columns_rebuilds_the_fresh_bank() {
        let fresh = bank();
        let mut aged = bank();
        aged.advance_all(&PhaseRates::for_condition(stress()), Seconds::new(3600.0));
        let rebuilt = TrapBank::from_columns(
            aged.tau_c0().to_vec(),
            aged.tau_e().to_vec(),
            aged.step_mv().to_vec(),
        );
        assert_eq!(rebuilt, fresh);
    }
}
