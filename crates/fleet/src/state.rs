//! The live fleet: sharded trap banks advanced in epochs.
//!
//! A [`FleetState`] partitions its chips into [`Shard`]s, each owning one
//! SoA [`TrapBank`] holding the concatenated trap slices of a contiguous
//! chip block. Epochs advance every shard independently on the global
//! pool; because shards are reassembled by input index and each chip's
//! traps were sampled from a `SeedSequence`-split stream, the resulting
//! state is bit-for-bit identical at any worker count — the same
//! contract the rest of the workspace pins.
//!
//! Mutations arriving over the wire (`REPORT` duty-cycle observations)
//! are folded into a running FNV chain, [`FleetState::mutation_digest`],
//! so a checkpoint can prove it captured the same request history that
//! produced it.

use std::ops::Range;

use selfheal_bti::td::{ChipTier, PhaseRateCache, PhaseRates, TierCounts, TierPolicy, TrapBank};
use selfheal_bti::DeviceCondition;
use selfheal_runtime::{par_map_indexed, SeedSequence};
use selfheal_telemetry::{fnv1a, fnv1a_extend};
use selfheal_units::{DutyCycle, Millivolts, Seconds};

use crate::config::FleetConfig;

/// One chip's slot inside a shard: its trap slice, the stress duty
/// cycle it most recently reported, and its integration tier.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSlot {
    /// The chip's trap range inside the shard's bank.
    pub traps: Range<usize>,
    /// The chip's observed stress duty cycle (DC until reported).
    pub duty: DutyCycle,
    /// The chip's integration tier. Always `Hot` in an untiered fleet;
    /// in a tiered one, `Cold` chips' bank occupancies are frozen at
    /// their demotion epoch and their shift is served analytically.
    pub tier: ChipTier,
}

/// A contiguous block of chips sharing one trap bank.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Global id of the first chip in this shard.
    pub first_chip: usize,
    /// Per-chip slots, indexed by `global_id - first_chip`.
    pub chips: Vec<ChipSlot>,
    /// The concatenated trap state of every chip in the shard.
    pub bank: TrapBank,
}

impl Shard {
    /// Samples a fresh shard: each chip draws its traps from its own
    /// `seeds.rng(local_index)` stream straight into the shard bank, so
    /// the shard's contents depend only on `(config.seed, shard_index,
    /// local_index)` — never on execution order.
    #[must_use]
    pub fn sample(config: &FleetConfig, shard_index: usize, seeds: &SeedSequence) -> Shard {
        let chip_range = config.shard_chip_range(shard_index);
        let mut bank = TrapBank::new();
        let mut chips = Vec::with_capacity(chip_range.len());
        for local in 0..chip_range.len() {
            let start = bank.len();
            bank.extend(config.trap_params.sample_traps(&mut seeds.rng(local as u64)));
            chips.push(ChipSlot {
                traps: start..bank.len(),
                duty: DutyCycle::default(),
                tier: ChipTier::Hot,
            });
        }
        Shard {
            first_chip: chip_range.start,
            chips,
            bank,
        }
    }

    /// Advances every chip in the shard by `dt` under its own observed
    /// duty cycle at the fleet's active environment, into epoch
    /// `epoch_end`. A per-shard [`PhaseRateCache`] keeps the common case
    /// (most chips still at the default duty) at one rate computation
    /// per distinct condition.
    ///
    /// Without a [`TierPolicy`] every chip advances at full resolution.
    /// With one in force, cold chips cost one integer
    /// comparison: their occupancies stay frozen until `epoch_end`
    /// reaches their precomputed wake epoch, at which point the whole
    /// cold window replays as one fused
    /// [`advance_range`](TrapBank::advance_range) under the chip's
    /// (constant) condition. Hot chips that end the epoch outside the
    /// guard band demote; pinned chips never do. Returns the number of
    /// traps stepped (a cold chip that stays asleep steps none).
    pub fn advance(
        &mut self,
        config: &FleetConfig,
        dt: Seconds,
        epoch_end: u64,
        policy: Option<&TierPolicy>,
    ) -> usize {
        let mut rates = PhaseRateCache::new();
        let mut stepped = 0;
        let Shard { chips, bank, .. } = self;
        for chip in chips.iter_mut() {
            // The tier check comes first: at steady state almost every
            // chip is cold, and a cold epoch must stay at one integer
            // compare per chip — no condition or rate lookups.
            match (&chip.tier, policy) {
                (ChipTier::Cold(cold), Some(policy)) => {
                    if !policy.should_wake(cold, epoch_end) {
                        continue;
                    }
                    // Rehydrate: replay the whole cold window in one
                    // fused step. The window's mean rate is already the
                    // upper bound demotion needs, so the chip can go
                    // straight back to sleep instead of burning a hot
                    // epoch.
                    let anchor = cold.anchor;
                    let window = epoch_end.saturating_sub(cold.since_epoch).max(1);
                    let elapsed = policy.cold_elapsed(cold, epoch_end);
                    let cond = DeviceCondition::new(config.active_env, chip.duty);
                    let phase = rates.rates(cond);
                    bank.advance_range(chip.traps.clone(), &phase, elapsed);
                    let current = bank.summary_range(chip.traps.clone()).delta_vth;
                    chip.tier = match policy.try_demote(anchor, current, window, cond, epoch_end) {
                        Some(cold) => ChipTier::Cold(cold),
                        None => ChipTier::Hot,
                    };
                }
                (ChipTier::Hot, Some(policy)) => {
                    // Demotion needs the chip's observed per-epoch
                    // rate, so bracket the advance with two summary
                    // scans.
                    let cond = DeviceCondition::new(config.active_env, chip.duty);
                    let previous = bank.summary_range(chip.traps.clone()).delta_vth;
                    let phase = rates.rates(cond);
                    bank.advance_range(chip.traps.clone(), &phase, dt);
                    let current = bank.summary_range(chip.traps.clone()).delta_vth;
                    if let Some(cold) = policy.try_demote(previous, current, 1, cond, epoch_end) {
                        chip.tier = ChipTier::Cold(cold);
                    }
                }
                // No policy means "never demote": untiered chips, like
                // pinned ones, advance at full resolution.
                _ => {
                    let cond = DeviceCondition::new(config.active_env, chip.duty);
                    let phase = rates.rates(cond);
                    bank.advance_range(chip.traps.clone(), &phase, dt);
                }
            }
            stepped += chip.traps.len();
        }
        stepped
    }
}

/// Fleet-wide aggregates computed by one full scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetAggregates {
    /// Sum of per-chip ΔVth over the fleet.
    pub total_delta_vth: Millivolts,
    /// The single worst chip's ΔVth.
    pub worst_delta_vth: Millivolts,
    /// Chips whose ΔVth has already crossed the margin.
    pub over_budget_chips: usize,
}

/// The daemon's entire mutable world: shards plus epoch bookkeeping.
#[derive(Debug, Clone)]
pub struct FleetState {
    config: FleetConfig,
    shards: Vec<Shard>,
    epoch: u64,
    mutation_digest: u64,
}

impl FleetState {
    /// Builds a fresh fleet from the configuration. Shards sample in
    /// parallel on the global pool; the result is identical at any
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`FleetConfig::validate`]).
    #[must_use]
    pub fn build(config: FleetConfig) -> FleetState {
        if let Err(problem) = config.validate() {
            panic!("invalid fleet config: {problem}");
        }
        let seeds = SeedSequence::new(config.seed);
        let shard_configs: Vec<FleetConfig> = vec![config.clone(); config.shards];
        let shards = par_map_indexed(shard_configs, move |index, cfg| {
            Shard::sample(&cfg, index, &seeds.child(index as u64))
        });
        let mutation_digest = fnv1a(config.cache_key().as_bytes());
        FleetState {
            config,
            shards,
            epoch: 0,
            mutation_digest,
        }
    }

    /// The configuration the fleet was built from.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The shards, in chip order.
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Completed epoch count.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Simulated time elapsed: `epoch × epoch_dt`. Computed, not
    /// accumulated, so a resumed daemon reports the exact same value as
    /// an uninterrupted one.
    #[must_use]
    pub fn sim_time(&self) -> Seconds {
        #[allow(clippy::cast_precision_loss)]
        Seconds::new(self.epoch as f64 * self.config.epoch_dt.get())
    }

    /// The running FNV chain over every folded mutation (see module
    /// docs). Captured in checkpoints; equal digests mean equal request
    /// histories.
    #[must_use]
    pub fn mutation_digest(&self) -> u64 {
        self.mutation_digest
    }

    /// Advances the whole fleet by one epoch (`config.epoch_dt` of
    /// simulated time) in parallel over shards. With metrics on, each
    /// shard feeds the `bti.td.kernel.*` counters once, never per chip.
    pub fn advance_epoch(&mut self) {
        let config = self.config.clone();
        let dt = config.epoch_dt;
        let policy = config.tier_policy();
        let epoch_end = self.epoch + 1;
        let shards = std::mem::take(&mut self.shards);
        let timing = selfheal_telemetry::metrics::enabled();
        self.shards = par_map_indexed(shards, move |index, mut shard| {
            // Per-shard wall time as heat gauges: under the tiered
            // integrator shard costs diverge (hot-chip-heavy shards pay
            // per-trap resolution), and straggler shards bound epoch
            // latency. The clock is telemetry-only — the advance itself
            // is identical with timing off.
            let started = timing.then(selfheal_telemetry::trace_epoch_ns);
            let stepped = shard.advance(&config, dt, epoch_end, policy.as_ref());
            if let Some(started) = started {
                let elapsed_ns = selfheal_telemetry::trace_epoch_ns().saturating_sub(started);
                #[allow(clippy::cast_precision_loss)]
                selfheal_telemetry::metrics::gauge_set(
                    &format!("fleet.shard.{index}.epoch_us"),
                    elapsed_ns as f64 / 1e3,
                );
                #[allow(clippy::cast_precision_loss)]
                selfheal_telemetry::metrics::counter_add(
                    "bti.td.kernel.traps_advanced",
                    stepped as f64,
                );
                selfheal_telemetry::metrics::counter_add("bti.td.kernel.advance_calls", 1.0);
            }
            shard
        });
        self.epoch = epoch_end;
    }

    /// Locates a chip: `(shard index, local index)`.
    #[must_use]
    pub fn locate(&self, chip: usize) -> Option<(usize, usize)> {
        let shard = self.config.shard_of_chip(chip)?;
        Some((shard, chip - self.shards[shard].first_chip))
    }

    /// The shard holding `chip` together with the chip's trap range, for
    /// planner entry points that take bank views.
    #[must_use]
    pub fn chip_view(&self, chip: usize) -> Option<(&Shard, Range<usize>)> {
        let (shard, local) = self.locate(chip)?;
        let shard = &self.shards[shard];
        Some((shard, shard.chips[local].traps.clone()))
    }

    /// The duty cycle `chip` last reported (DC until reported).
    #[must_use]
    pub fn chip_duty(&self, chip: usize) -> Option<DutyCycle> {
        let (shard, local) = self.locate(chip)?;
        Some(self.shards[shard].chips[local].duty)
    }

    /// The chip's current integration tier.
    #[must_use]
    pub fn chip_tier(&self, chip: usize) -> Option<ChipTier> {
        let (shard, local) = self.locate(chip)?;
        Some(self.shards[shard].chips[local].tier)
    }

    /// The chip's consumed margin right now, tier-aware: hot and pinned
    /// chips read their exact bank slice; cold chips are served from the
    /// rate-anchored extrapolation fixed at their demotion point.
    #[must_use]
    pub fn chip_consumed(&self, chip: usize) -> Option<Millivolts> {
        let (shard, local) = self.locate(chip)?;
        let shard = &self.shards[shard];
        Some(self.slot_consumed(
            self.config.tier_policy().as_ref(),
            shard,
            &shard.chips[local],
        ))
    }

    /// The one place a chip's consumed margin is decided: the analytic
    /// line for a cold chip under `policy`, the bank slice otherwise.
    fn slot_consumed(
        &self,
        policy: Option<&TierPolicy>,
        shard: &Shard,
        slot: &ChipSlot,
    ) -> Millivolts {
        match (policy, &slot.tier) {
            (Some(policy), ChipTier::Cold(cold)) => policy.analytic_delta_vth(cold, self.epoch),
            _ => shard.bank.summary_range(slot.traps.clone()).delta_vth,
        }
    }

    /// Per-tier chip counts across the fleet (all-hot when untiered).
    #[must_use]
    pub fn tier_counts(&self) -> TierCounts {
        let mut counts = TierCounts::default();
        for shard in &self.shards {
            for chip in &shard.chips {
                counts.record(&chip.tier);
            }
        }
        counts
    }

    /// Folds a `REPORT` observation into the fleet: the chip's duty
    /// cycle is replaced (shaping its stress from the next epoch on) and
    /// the mutation digest is advanced over `(epoch, chip, duty)`.
    /// Returns `false` for a chip outside the fleet.
    ///
    /// In a tiered fleet a mutated duty is exactly the "near a decision"
    /// signal the tiers respect: a cold chip first replays its cold
    /// window under the *old* condition (the one it was demoted with),
    /// then the chip — whatever its tier was — is pinned at full
    /// resolution for the rest of the run, so its post-report trajectory
    /// is bit-identical to a never-tiered fleet's.
    pub fn fold_report(&mut self, chip: usize, duty: DutyCycle) -> bool {
        let Some((shard, local)) = self.locate(chip) else {
            return false;
        };
        if let Some(policy) = self.config.tier_policy() {
            let slot = &self.shards[shard].chips[local];
            if let ChipTier::Cold(cold) = slot.tier {
                let old_cond = DeviceCondition::new(self.config.active_env, slot.duty);
                let elapsed = policy.cold_elapsed(&cold, self.epoch);
                let traps = slot.traps.clone();
                self.shards[shard].bank.advance_range(
                    traps,
                    &PhaseRates::for_condition(old_cond),
                    elapsed,
                );
            }
            self.shards[shard].chips[local].tier = ChipTier::Pinned;
        }
        self.shards[shard].chips[local].duty = duty;
        let mut hash = fnv1a(&self.mutation_digest.to_be_bytes());
        hash = fnv1a_extend(hash, &self.epoch.to_be_bytes());
        hash = fnv1a_extend(hash, &(chip as u64).to_be_bytes());
        self.mutation_digest = fnv1a_extend(hash, &duty.get().to_bits().to_be_bytes());
        true
    }

    /// One full scan: fleet totals, the worst chip and the count already
    /// out of budget. Cold chips contribute their analytic shift.
    #[must_use]
    pub fn aggregates(&self) -> FleetAggregates {
        let margin = self.config.margin.get();
        let policy = self.config.tier_policy();
        let mut total = 0.0f64;
        let mut worst = 0.0f64;
        let mut over = 0usize;
        for shard in &self.shards {
            for chip in &shard.chips {
                let mv = self.slot_consumed(policy.as_ref(), shard, chip).get();
                total += mv;
                if mv > worst {
                    worst = mv;
                }
                if mv >= margin {
                    over += 1;
                }
            }
        }
        FleetAggregates {
            total_delta_vth: Millivolts::new(total),
            worst_delta_vth: Millivolts::new(worst),
            over_budget_chips: over,
        }
    }

    /// A digest of the complete observable state: every occupancy bit
    /// pattern, every reported duty, the epoch and the mutation chain.
    /// Two states with equal digests answer every request identically.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut hash = fnv1a(&self.epoch.to_be_bytes());
        hash = fnv1a_extend(hash, &self.mutation_digest.to_be_bytes());
        for shard in &self.shards {
            for occ in shard.bank.occupancies() {
                hash = fnv1a_extend(hash, &occ.to_bits().to_be_bytes());
            }
            for chip in &shard.chips {
                hash = fnv1a_extend(hash, &chip.duty.get().to_bits().to_be_bytes());
                match &chip.tier {
                    ChipTier::Hot => hash = fnv1a_extend(hash, &[0]),
                    ChipTier::Pinned => hash = fnv1a_extend(hash, &[1]),
                    ChipTier::Cold(cold) => {
                        hash = fnv1a_extend(hash, &[2]);
                        hash = fnv1a_extend(hash, &cold.anchor.get().to_bits().to_be_bytes());
                        hash = fnv1a_extend(hash, &cold.rate_mv_per_s.to_bits().to_be_bytes());
                        hash = fnv1a_extend(hash, &cold.since_epoch.to_be_bytes());
                        hash = fnv1a_extend(hash, &cold.wake_epoch.to_be_bytes());
                    }
                }
            }
        }
        hash
    }

    /// Total traps across all shards.
    #[must_use]
    pub fn trap_count(&self) -> usize {
        self.shards.iter().map(|s| s.bank.len()).sum()
    }

    /// Overwrites the mutable state from a checkpoint: per-shard
    /// occupancies, per-chip duties and tiers, epoch and mutation
    /// digest. The caller (the checkpoint module) has already verified
    /// shapes.
    pub(crate) fn overlay(
        &mut self,
        epoch: u64,
        mutation_digest: u64,
        occupancies: &[Vec<f64>],
        duties: &[Vec<f64>],
        tiers: &[Vec<ChipTier>],
    ) {
        for (((shard, occ), duty), tier) in self
            .shards
            .iter_mut()
            .zip(occupancies)
            .zip(duties)
            .zip(tiers)
        {
            shard.bank.restore_occupancies(occ);
            for ((chip, d), t) in shard.chips.iter_mut().zip(duty).zip(tier) {
                chip.duty = DutyCycle::new(*d);
                chip.tier = *t;
            }
        }
        self.epoch = epoch;
        self.mutation_digest = mutation_digest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> FleetConfig {
        let mut config = FleetConfig::default();
        config.chips = 10;
        config.shards = 3;
        config.seed = 7;
        config.trap_params.mean_trap_count = 6.0;
        config
    }

    #[test]
    fn build_is_seed_deterministic() {
        let a = FleetState::build(tiny_config());
        let b = FleetState::build(tiny_config());
        assert_eq!(a.state_digest(), b.state_digest());
        let mut reseeded = tiny_config();
        reseeded.seed = 8;
        assert_ne!(a.state_digest(), FleetState::build(reseeded).state_digest());
    }

    #[test]
    fn epoch_advance_ages_the_fleet() {
        let mut fleet = FleetState::build(tiny_config());
        let before = fleet.aggregates().total_delta_vth;
        fleet.advance_epoch();
        fleet.advance_epoch();
        assert_eq!(fleet.epoch(), 2);
        assert_eq!(fleet.sim_time(), Seconds::new(7_200.0));
        assert!(fleet.aggregates().total_delta_vth > before);
    }

    #[test]
    fn reports_shape_aging_and_chain_the_digest() {
        let mut reported = FleetState::build(tiny_config());
        let mut untouched = FleetState::build(tiny_config());
        let d0 = reported.mutation_digest();
        assert!(reported.fold_report(4, DutyCycle::new(0.1)));
        assert_ne!(reported.mutation_digest(), d0);
        assert!(!reported.fold_report(10, DutyCycle::new(0.5)));
        reported.advance_epoch();
        untouched.advance_epoch();
        let low_duty = reported.chip_view(4).map(|(s, r)| s.bank.summary_range(r).delta_vth);
        let dc = untouched.chip_view(4).map(|(s, r)| s.bank.summary_range(r).delta_vth);
        assert!(low_duty < dc, "a 10 % duty chip must age slower than DC");
    }

    fn tiered_config() -> FleetConfig {
        let mut config = tiny_config();
        config.tiered = true;
        config.guard_band = Millivolts::new(10.0);
        config
    }

    #[test]
    fn tiered_epochs_demote_far_from_threshold_chips() {
        let mut fleet = FleetState::build(tiered_config());
        assert_eq!(fleet.tier_counts().hot, 10, "fresh fleets start all-hot");
        fleet.advance_epoch();
        let counts = fleet.tier_counts();
        assert!(
            counts.cold > 0,
            "one hour in, low-shift chips must go cold (got {counts:?})"
        );
        assert_eq!(counts.total(), 10);
        // Cold chips still serve a finite, positive consumed margin.
        for chip in 0..10 {
            let consumed = fleet.chip_consumed(chip).expect("chip resolves");
            assert!(consumed.get() >= 0.0 && consumed.get().is_finite());
        }
        // Cold epochs are frozen in the bank but the analytic value moves.
        let cold_chip = (0..10)
            .find(|&c| fleet.chip_tier(c).is_some_and(|t| t.is_cold()))
            .expect("some chip is cold");
        let before = fleet.chip_consumed(cold_chip).unwrap();
        fleet.advance_epoch();
        fleet.advance_epoch();
        let after = fleet.chip_consumed(cold_chip).unwrap();
        assert!(
            after > before,
            "a cold stressed chip keeps aging analytically ({before} -> {after})"
        );
    }

    #[test]
    fn report_rehydrates_and_pins() {
        let mut fleet = FleetState::build(tiered_config());
        fleet.advance_epoch();
        fleet.advance_epoch();
        let chip = (0..10)
            .find(|&c| fleet.chip_tier(c).is_some_and(|t| t.is_cold()))
            .expect("some chip is cold after two epochs");
        assert!(fleet.fold_report(chip, DutyCycle::new(0.3)));
        assert_eq!(fleet.chip_tier(chip), Some(ChipTier::Pinned));
        // Pinned is sticky: further epochs never demote it again.
        fleet.advance_epoch();
        assert_eq!(fleet.chip_tier(chip), Some(ChipTier::Pinned));
    }

    #[test]
    fn chip_views_cover_exactly_the_fleet() {
        let fleet = FleetState::build(tiny_config());
        for chip in 0..10 {
            let (shard, range) = match fleet.chip_view(chip) {
                Some(view) => view,
                None => panic!("chip {chip} must resolve"),
            };
            assert!(range.end <= shard.bank.len());
        }
        assert!(fleet.chip_view(10).is_none());
    }

    /// Both digests are part of the checkpoint and the `stats` reply, so
    /// their values are pinned for a tiered fleet with cold and pinned
    /// chips after a report and two epochs.
    #[test]
    fn digests_are_pinned() {
        let mut fleet = FleetState::build(tiered_config());
        fleet.advance_epoch();
        assert_eq!(fleet.chip_tier(1).map(|t| t.is_cold()), Some(true));
        assert!(fleet.fold_report(1, DutyCycle::new(0.3)));
        fleet.advance_epoch();
        assert_eq!(fleet.tier_counts().cold, 8, "cold-tier bytes are hashed");
        assert_eq!(fleet.mutation_digest(), 0x499e_2534_14bb_b5a8);
        assert_eq!(fleet.state_digest(), 0x9d30_a254_2483_26cd);
    }
}
