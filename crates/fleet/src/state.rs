//! The live fleet: sharded trap banks advanced in epochs.
//!
//! A [`FleetState`] partitions its chips into [`Shard`]s, each owning one
//! `SoA` [`TrapBank`] holding the concatenated trap slices of a contiguous
//! chip block. Epochs advance every shard independently on the global
//! pool; because shards are reassembled by input index and each chip's
//! traps were sampled from a `SeedSequence`-split stream, the resulting
//! state is bit-for-bit identical at any worker count — the same
//! contract the rest of the workspace pins.
//!
//! Every chip steps at full trap resolution every epoch. A chip steps
//! under the same condition every epoch until it reports, so each shard
//! caches its traps' decays `exp(-epoch_dt / tau)` and equilibrium
//! occupancies p∞ in two bank-aligned columns (derived state, never
//! checkpointed): a steady-state epoch does no `exp`, no division and
//! no condition lookup per chip.
//!
//! Epochs are lazy: [`FleetState::tick`] only moves the fleet's epoch,
//! and each shard records the epoch its bank has reached. A catch-up
//! ([`FleetState::catch_up_chip`], [`FleetState::catch_up`]) steps a
//! lagging shard through every epoch it missed, in order, exactly as
//! an eager epoch would have, so a shard that catches up late holds the
//! same bits. Every reader of a bank requires its shard caught up;
//! [`FleetState::advance_epoch`] is a tick plus a catch-up of every
//! shard.
//!
//! Mutations arriving over the wire (`REPORT` duty-cycle observations)
//! are folded into a running FNV chain, [`FleetState::mutation_digest`],
//! so a checkpoint can prove it captured the same request history that
//! produced it.
//!
//! `stats` reads ([`FleetState::aggregates`], [`FleetState::state_digest`])
//! fold one cached summary and two cached digests per shard, so a warm
//! read costs O(shards). Each fills on first read. An epoch drops its
//! shard's margin summary and occupancy digest; a report moves none of
//! them but updates its shard's slot digest in place, in O(1).

use std::ops::Range;
use std::sync::OnceLock;

use selfheal_bti::td::{PhaseRateCache, TrapBank};
use selfheal_bti::DeviceCondition;
use selfheal_runtime::{par_map_indexed, splitmix64_mix, SeedSequence};
use selfheal_telemetry::{fnv1a, fnv1a_extend};
use selfheal_units::{DutyCycle, Millivolts, Seconds};

use crate::config::FleetConfig;

/// One chip's slot inside a shard: its trap slice and the stress duty
/// cycle it most recently reported.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSlot {
    /// The chip's trap range inside the shard's bank.
    pub traps: Range<usize>,
    /// The chip's observed stress duty cycle (DC until reported).
    pub duty: DutyCycle,
}

/// A contiguous block of chips sharing one trap bank.
#[derive(Debug, Clone, Default)]
pub struct Shard {
    /// Global id of the first chip in this shard.
    pub first_chip: usize,
    /// Per-chip slots, indexed by `global_id - first_chip`.
    pub chips: Vec<ChipSlot>,
    /// The concatenated trap state of every chip in the shard.
    pub bank: TrapBank,
    /// The epoch the bank has reached; behind the fleet's epoch until
    /// the shard catches up.
    epoch: u64,
    /// Derived per-trap decays and p∞, so a steady-state epoch skips
    /// the `exp` and the division.
    decay: DecayCache,
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
            bank.extend(
                config
                    .trap_params
                    .sample_traps(&mut seeds.rng(local as u64)),
            );
            chips.push(ChipSlot {
                traps: start..bank.len(),
                duty: DutyCycle::default(),
            });
        }
        Shard {
            first_chip: chip_range.start,
            chips,
            bank,
            ..Shard::default()
        }
    }

    /// A fresh shard of `config`'s shard `shard_index` over `bank`,
    /// whose chips hold `trap_counts[local]` traps each, in chip order:
    /// a shard read back from a fleet image.
    ///
    /// # Panics
    ///
    /// Panics unless there is one count per chip and the counts add up
    /// to the bank's length.
    pub(crate) fn from_bank(
        config: &FleetConfig,
        shard_index: usize,
        trap_counts: &[usize],
        bank: TrapBank,
    ) -> Shard {
        let chip_range = config.shard_chip_range(shard_index);
        assert_eq!(trap_counts.len(), chip_range.len(), "one count per chip");
        let mut start = 0;
        let chips = trap_counts
            .iter()
            .map(|&count| {
                let traps = start..start + count;
                start = traps.end;
                ChipSlot {
                    traps,
                    duty: DutyCycle::default(),
                }
            })
            .collect();
        assert_eq!(start, bank.len(), "the counts cover the bank");
        Shard {
            first_chip: chip_range.start,
            chips,
            bank,
            ..Shard::default()
        }
    }

    /// The traps of chip 0 of shard `shard_index`, sampled from the
    /// seed exactly as [`FleetState::build`] samples them.
    pub(crate) fn sample_first_chip(config: &FleetConfig, shard_index: usize) -> TrapBank {
        let seeds = SeedSequence::new(config.seed).child(shard_index as u64);
        TrapBank::sample(&config.trap_params, &mut seeds.rng(0))
    }

    /// The epoch the shard's bank has reached.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Steps the shard through every epoch from its own up to `epoch`,
    /// one [`advance`](Self::advance) each, in order. With metrics on,
    /// each step feeds the `bti.td.kernel.*` counters once and the
    /// shard's `fleet.shard.<index>.epoch_us` heat gauge.
    fn catch_up(&mut self, index: usize, config: &FleetConfig, epoch: u64) {
        let timing = selfheal_telemetry::metrics::enabled();
        while self.epoch < epoch {
            // Straggler shards bound how long a sweep takes. The clock is
            // telemetry-only: the step itself is identical with timing
            // off.
            let started = timing.then(selfheal_telemetry::trace_epoch_ns);
            self.advance(config);
            self.epoch += 1;
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
                    self.bank.len() as f64,
                );
                selfheal_telemetry::metrics::counter_add("bti.td.kernel.advance_calls", 1.0);
            }
        }
    }

    /// Advances every chip in the shard by one `config.epoch_dt` under
    /// its own observed duty cycle at the fleet's active environment:
    /// refills the stale chips' [`DecayCache`] columns, then steps the
    /// whole bank from them in one kernel call. At steady state that is
    /// one flag read per chip and no `exp` or division per trap.
    fn advance(&mut self, config: &FleetConfig) {
        let Shard {
            chips, bank, decay, ..
        } = self;
        decay.allocate(bank.len(), chips.len());
        for (local, chip) in chips.iter().enumerate() {
            decay.refill_if_stale(bank, local, chip, config);
        }
        // Each trap steps on its own, so one call over the bank gives
        // the bits a call per chip would.
        bank.advance_range_cached(0..bank.len(), &decay.decay, &decay.p_inf);
    }
}

/// A shard's derived epoch state: per trap, the decay `exp(-dt / tau)`
/// and the equilibrium occupancy p∞ of one `epoch_dt` step under the
/// chip's condition, and per chip, whether those are stale. A chip's
/// `(condition, epoch_dt)` only changes when it reports, so a
/// steady-state epoch reads both columns instead of re-deriving them.
///
/// Derived state, never checkpointed: the columns are allocated on the
/// shard's first epoch, and a chip is refilled on its first epoch after
/// a report or an overlay. The fleet's environment and `epoch_dt` never
/// change, so the chip's duty is the whole cache key.
#[derive(Debug, Clone, Default)]
struct DecayCache {
    /// Distinct rates the shard's chips were filled under: a memo, so a
    /// refill skips the rate multipliers' transcendentals.
    rates: PhaseRateCache,
    /// Per chip: whether its columns must be refilled.
    stale: Vec<bool>,
    /// Per trap, bank-aligned: the chip's filled decay column.
    decay: Vec<f64>,
    /// Per trap, bank-aligned: the chip's filled p∞ column.
    p_inf: Vec<f64>,
}

impl DecayCache {
    /// Allocates the columns (every chip stale) unless already there.
    fn allocate(&mut self, traps: usize, chips: usize) {
        if self.stale.len() != chips {
            self.decay = vec![0.0; traps];
            self.p_inf = vec![0.0; traps];
            self.stale = vec![true; chips];
        }
    }

    /// Marks chip `local` for refilling at its next epoch.
    fn invalidate(&mut self, local: usize) {
        if let Some(stale) = self.stale.get_mut(local) {
            *stale = true;
        }
    }

    /// Marks every chip for refilling.
    fn clear(&mut self) {
        self.stale.fill(true);
    }

    /// Refills `chip`'s columns (shard-local index `local`) for one
    /// `epoch_dt` under its duty when they are stale.
    fn refill_if_stale(
        &mut self,
        bank: &TrapBank,
        local: usize,
        chip: &ChipSlot,
        config: &FleetConfig,
    ) {
        if self.stale[local] {
            let rates = self
                .rates
                .rates(DeviceCondition::new(config.active_env, chip.duty));
            bank.fill_decay(
                chip.traps.clone(),
                &rates,
                config.epoch_dt,
                &mut self.decay,
                &mut self.p_inf,
            );
            self.stale[local] = false;
        }
    }
}

/// Fleet-wide aggregates, folded in shard order from each shard's
/// cached margin summary (its total, worst chip and over-budget count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetAggregates {
    /// Sum of per-chip `ΔVth` over the fleet: per shard in chip order,
    /// then across shards in shard order.
    pub total_delta_vth: Millivolts,
    /// The single worst chip's `ΔVth`.
    pub worst_delta_vth: Millivolts,
    /// Chips whose `ΔVth` has already crossed the margin.
    pub over_budget_chips: usize,
}

/// Consumed margins folded in order: a shard's over its chips, the
/// fleet's over its shards.
#[derive(Debug, Clone, Copy, Default)]
struct MarginSummary {
    /// Sum of the chips' `ΔVth` in mV.
    total: f64,
    /// The worst chip's `ΔVth` in mV (0 with no chips).
    worst: f64,
    /// Chips whose `ΔVth` has crossed the margin.
    over_budget: usize,
}

impl MarginSummary {
    /// One chip that has consumed `mv` of `margin`.
    fn chip(mv: f64, margin: f64) -> MarginSummary {
        MarginSummary {
            total: mv,
            worst: mv,
            over_budget: usize::from(mv >= margin),
        }
    }

    /// `self` followed by `next`.
    fn then(self, next: MarginSummary) -> MarginSummary {
        MarginSummary {
            total: self.total + next.total,
            worst: if next.worst > self.worst {
                next.worst
            } else {
                self.worst
            },
            over_budget: self.over_budget + next.over_budget,
        }
    }
}

/// What `stats` reads of one shard. Each value fills on its first read
/// (under `&self`). An epoch moves occupancies, so it drops the
/// occupancy digest and the margin summary; it never moves a duty, so
/// the slot digest stands. A report moves one duty and no occupancy: it
/// updates a filled slot digest in place. An overlay drops all three.
#[derive(Debug, Clone, Default)]
struct ShardCache {
    /// FNV-1a over the bank's occupancy bit patterns, in trap order.
    occupancy_digest: OnceLock<u64>,
    /// The shard's consumed margins. Apart from the digests, so a
    /// checkpoint restore, which verifies only the digest, never fills
    /// it.
    summary: OnceLock<MarginSummary>,
    /// The wrapping sum of [`slot_term`] over the shard's chips.
    slot_digest: OnceLock<u64>,
}

impl ShardCache {
    /// Drops what an epoch stales.
    fn clear_occupancy(&mut self) {
        self.occupancy_digest.take();
        self.summary.take();
    }

    fn clear(&mut self) {
        self.clear_occupancy();
        self.slot_digest.take();
    }
}

/// Chip `local`'s term in its shard's slot digest. The `SplitMix64`
/// finalizer is a bijection of `u64`, so two duties of one chip never
/// share a term, and a term is keyed by the chip's place, so moving a
/// duty between chips changes the sum. Being a sum, the digest takes a
/// report in O(1): subtract the old term, add the new one.
fn slot_term(local: usize, duty: DutyCycle) -> u64 {
    // The index is offset by the SplitMix64 increment, so chip 0's key
    // is not the finalizer's fixed point 0.
    let key = splitmix64_mix(local as u64 ^ 0x9E37_79B9_7F4A_7C15);
    splitmix64_mix(duty.get().to_bits() ^ key)
}

/// The daemon's entire mutable world: shards plus epoch bookkeeping.
#[derive(Debug, Clone)]
pub struct FleetState {
    config: FleetConfig,
    shards: Vec<Shard>,
    /// One entry per shard, in shard order.
    caches: Vec<ShardCache>,
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
        FleetState::fresh(config, shards)
    }

    /// A fleet at epoch 0 over `shards`, which must hold what
    /// [`build`](Self::build) samples for `config`: how a fleet image is
    /// read back without re-sampling.
    pub(crate) fn fresh(config: FleetConfig, shards: Vec<Shard>) -> FleetState {
        let mutation_digest = fnv1a(config.cache_key().as_bytes());
        FleetState {
            caches: vec![ShardCache::default(); shards.len()],
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

    /// Moves the fleet one epoch (`config.epoch_dt` of simulated time)
    /// on in O(1): no shard steps, every shard lags until it catches up.
    /// The tick is the epoch's linearization point: a request that runs
    /// after it catches its shard up first, so it sees the same state an
    /// eager epoch would have left.
    pub fn tick(&mut self) {
        self.epoch += 1;
    }

    /// Catches shard `index` up to the fleet's epoch on the calling
    /// thread and drops the `stats` caches its epochs stale. Returns
    /// whether it lagged.
    fn catch_up_shard(&mut self, index: usize) -> bool {
        let Some(shard) = self.shards.get_mut(index) else {
            return false;
        };
        if shard.epoch == self.epoch {
            return false;
        }
        shard.catch_up(index, &self.config, self.epoch);
        self.caches[index].clear_occupancy();
        true
    }

    /// Catches up the shard holding `chip`; returns whether it lagged.
    /// A chip outside the fleet catches up nothing.
    pub fn catch_up_chip(&mut self, chip: usize) -> bool {
        self.config
            .shard_of_chip(chip)
            .is_some_and(|index| self.catch_up_shard(index))
    }

    /// Catches up at most `limit` lagging shards, lowest index first, in
    /// parallel on the pool (one alone on the calling thread), and
    /// returns how many still lag. Each shard's result depends only on
    /// its own state, so the fleet is identical at any worker count and
    /// in any catch-up order.
    pub fn catch_up(&mut self, limit: usize) -> usize {
        let epoch = self.epoch;
        let lagging: Vec<usize> = (0..self.shards.len())
            .filter(|&index| self.shards[index].epoch < epoch)
            .collect();
        let now = &lagging[..limit.min(lagging.len())];
        if let [index] = now {
            self.catch_up_shard(*index);
        } else if !now.is_empty() {
            let config = self.config.clone();
            let taken: Vec<(usize, Shard)> = now
                .iter()
                .map(|&index| (index, std::mem::take(&mut self.shards[index])))
                .collect();
            let stepped = par_map_indexed(taken, move |_, (index, mut shard)| {
                shard.catch_up(index, &config, epoch);
                (index, shard)
            });
            for (index, shard) in stepped {
                self.shards[index] = shard;
                self.caches[index].clear_occupancy();
            }
        }
        lagging.len() - now.len()
    }

    /// Advances the whole fleet by one epoch: a [`tick`](Self::tick) and
    /// a catch-up of every shard in parallel.
    pub fn advance_epoch(&mut self) {
        self.tick();
        self.catch_up(usize::MAX);
    }

    /// Panics in debug builds when shard `index` has not caught up: a
    /// bank read before it would see an epoch the fleet has left.
    fn debug_assert_caught_up(&self, index: usize) {
        debug_assert_eq!(
            self.shards[index].epoch, self.epoch,
            "shard {index} read before it caught up"
        );
    }

    /// [`debug_assert_caught_up`](Self::debug_assert_caught_up) for every
    /// shard.
    pub(crate) fn debug_assert_all_caught_up(&self) {
        for index in 0..self.shards.len() {
            self.debug_assert_caught_up(index);
        }
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
        self.debug_assert_caught_up(shard);
        let shard = &self.shards[shard];
        Some((shard, shard.chips[local].traps.clone()))
    }

    /// The duty cycle `chip` last reported (DC until reported).
    #[must_use]
    pub fn chip_duty(&self, chip: usize) -> Option<DutyCycle> {
        let (shard, local) = self.locate(chip)?;
        Some(self.shards[shard].chips[local].duty)
    }

    /// The chip's consumed margin right now: the `ΔVth` of its bank slice.
    #[must_use]
    pub fn chip_consumed(&self, chip: usize) -> Option<Millivolts> {
        let (shard, traps) = self.chip_view(chip)?;
        Some(shard.bank.delta_vth_range(traps))
    }

    /// Folds a `REPORT` observation into the fleet: the chip's duty
    /// cycle is replaced (shaping its stress from the next epoch on) and
    /// the mutation digest is advanced over `(epoch, chip, duty)`.
    /// Returns `false` for a chip outside the fleet. The chip's shard
    /// must have caught up (see [`catch_up_chip`](Self::catch_up_chip)).
    pub fn fold_report(&mut self, chip: usize, duty: DutyCycle) -> bool {
        let Some((shard, local)) = self.locate(chip) else {
            return false;
        };
        self.debug_assert_caught_up(shard);
        let old = std::mem::replace(&mut self.shards[shard].chips[local].duty, duty);
        self.shards[shard].decay.invalidate(local);
        if let Some(digest) = self.caches[shard].slot_digest.get_mut() {
            *digest = digest
                .wrapping_sub(slot_term(local, old))
                .wrapping_add(slot_term(local, duty));
        }
        let mut hash = fnv1a(&self.mutation_digest.to_be_bytes());
        hash = fnv1a_extend(hash, &self.epoch.to_be_bytes());
        hash = fnv1a_extend(hash, &(chip as u64).to_be_bytes());
        self.mutation_digest = fnv1a_extend(hash, &duty.get().to_bits().to_be_bytes());
        true
    }

    /// Fleet totals, the worst chip and the count already out of budget,
    /// folded in shard order over each shard's cached margin summary.
    /// Only shards an epoch or an overlay dropped are rescanned.
    #[must_use]
    pub fn aggregates(&self) -> FleetAggregates {
        self.debug_assert_all_caught_up();
        let fleet = (0..self.shards.len())
            .map(|index| self.summary(index))
            .fold(MarginSummary::default(), MarginSummary::then);
        FleetAggregates {
            total_delta_vth: Millivolts::new(fleet.total),
            worst_delta_vth: Millivolts::new(fleet.worst),
            over_budget_chips: fleet.over_budget,
        }
    }

    /// A digest of the complete observable state: FNV-1a over the epoch,
    /// the mutation chain and then, per shard in order, the shard's
    /// occupancy digest (an FNV-1a over every occupancy bit pattern) and
    /// its slot digest (a wrapping sum of one mixed term per chip over
    /// its local index and duty). Two states with equal digests answer
    /// every request identically. Served from the per-shard caches, so
    /// only shards an epoch or an overlay dirtied are rehashed.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        self.debug_assert_all_caught_up();
        let mut hash = fnv1a(&self.epoch.to_be_bytes());
        hash = fnv1a_extend(hash, &self.mutation_digest.to_be_bytes());
        for index in 0..self.shards.len() {
            hash = fnv1a_extend(hash, &self.occupancy_digest(index).to_be_bytes());
            hash = fnv1a_extend(hash, &self.slot_digest(index).to_be_bytes());
        }
        hash
    }

    /// Shard `index`'s occupancy digest, filled on first read.
    fn occupancy_digest(&self, index: usize) -> u64 {
        *self.caches[index].occupancy_digest.get_or_init(|| {
            self.shards[index]
                .bank
                .occupancies()
                .iter()
                .fold(fnv1a(&[]), |hash, occ| {
                    fnv1a_extend(hash, &occ.to_bits().to_be_bytes())
                })
        })
    }

    /// Shard `index`'s margin summary, filled on first read from each
    /// chip's consumed margin, in chip order.
    fn summary(&self, index: usize) -> MarginSummary {
        *self.caches[index].summary.get_or_init(|| {
            let margin = self.config.margin.get();
            let shard = &self.shards[index];
            shard
                .chips
                .iter()
                .map(|slot| {
                    let mv = shard.bank.delta_vth_range(slot.traps.clone()).get();
                    MarginSummary::chip(mv, margin)
                })
                .fold(MarginSummary::default(), MarginSummary::then)
        })
    }

    /// Shard `index`'s slot digest, filled on first read.
    fn slot_digest(&self, index: usize) -> u64 {
        *self.caches[index].slot_digest.get_or_init(|| {
            self.shards[index]
                .chips
                .iter()
                .enumerate()
                .fold(0, |sum, (local, chip)| {
                    sum.wrapping_add(slot_term(local, chip.duty))
                })
        })
    }

    /// Total traps across all shards.
    #[must_use]
    pub fn trap_count(&self) -> usize {
        self.shards.iter().map(|s| s.bank.len()).sum()
    }

    /// Overwrites the mutable state in place (checkpoint resume): sets
    /// the epoch (the fleet's and every shard's) and mutation digest,
    /// then hands each shard in order to
    /// `fill`, which overwrites its occupancies and duties. Stops
    /// at the first error `fill` returns. Drops every shard cache and
    /// decay column entry first, so the next read and the next epoch are
    /// computed from the overlaid state.
    pub(crate) fn overlay<E>(
        &mut self,
        epoch: u64,
        mutation_digest: u64,
        mut fill: impl FnMut(&mut Shard) -> Result<(), E>,
    ) -> Result<(), E> {
        self.caches.iter_mut().for_each(ShardCache::clear);
        self.epoch = epoch;
        self.mutation_digest = mutation_digest;
        self.shards.iter_mut().try_for_each(|shard| {
            shard.epoch = epoch;
            shard.decay.clear();
            fill(shard)
        })
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
        let low_duty = reported
            .chip_view(4)
            .map(|(s, r)| s.bank.delta_vth_range(r));
        let dc = untouched
            .chip_view(4)
            .map(|(s, r)| s.bank.delta_vth_range(r));
        assert!(low_duty < dc, "a 10 % duty chip must age slower than DC");
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

    /// A shard whose chips step under more distinct duties than its
    /// rate table holds clears and refills the table, and still steps
    /// every chip as a copy with no cached decays does.
    #[test]
    fn a_full_rate_table_refills_and_stays_exact() {
        let mut config = tiny_config();
        config.chips = 300;
        config.shards = 1;
        config.trap_params.mean_trap_count = 2.0;
        let mut fleet = FleetState::build(config);
        for chip in 0..300 {
            #[allow(clippy::cast_precision_loss)]
            let duty = DutyCycle::new(chip as f64 / 400.0);
            assert!(fleet.fold_report(chip, duty));
        }
        for epoch in 0..3 {
            let mut reference = fleet.clone();
            reference.shards[0].decay = DecayCache::default();
            fleet.advance_epoch();
            reference.advance_epoch();
            assert_eq!(
                fleet.state_digest(),
                reference.state_digest(),
                "epoch {epoch}"
            );
        }
    }

    /// Both digests are part of the checkpoint and the `stats` reply, so
    /// their values are pinned for a fleet after a report and two epochs.
    #[test]
    fn digests_are_pinned() {
        let mut fleet = FleetState::build(tiny_config());
        fleet.advance_epoch();
        assert!(fleet.fold_report(1, DutyCycle::new(0.3)));
        fleet.advance_epoch();
        assert_eq!(fleet.mutation_digest(), 0x7561_bd13_9a68_93d7);
        assert_eq!(fleet.state_digest(), 0x3d22_7b32_eeab_27e5);
    }

    /// A slot digest updated in place by reports equals one summed from
    /// scratch over the same duties, after reports and epochs
    /// interleaved with reads that keep every digest filled.
    #[test]
    fn in_place_slot_digests_equal_recomputed_ones() {
        let mut fleet = FleetState::build(tiny_config());
        let _ = fleet.state_digest();
        for round in 0..40usize {
            for report in 0..5 {
                let chip = (round * 7 + report * 3) % 10;
                #[allow(clippy::cast_precision_loss)]
                let duty = DutyCycle::new(((round + report) % 11) as f64 / 10.0);
                assert!(fleet.fold_report(chip, duty));
            }
            if round % 3 == 0 {
                fleet.advance_epoch();
            }
            let digest = fleet.state_digest();
            let mut cleared = fleet.clone();
            cleared.caches.iter_mut().for_each(ShardCache::clear);
            for index in 0..fleet.shards.len() {
                assert!(fleet.caches[index].slot_digest.get().is_some());
                assert_eq!(
                    fleet.slot_digest(index),
                    cleared.slot_digest(index),
                    "shard {index} after round {round}"
                );
            }
            assert_eq!(digest, cleared.state_digest(), "round {round}");
        }
    }

    /// The total is a two-level sum: per shard over its chips' consumed
    /// margins in chip order, then across shards in shard order.
    #[test]
    fn the_total_sums_shard_totals_in_shard_order() {
        let mut fleet = FleetState::build(tiny_config());
        for epoch in 0..4 {
            fleet.advance_epoch();
            assert!(fleet.fold_report(epoch * 3, DutyCycle::new(0.2)));
            let mut total = 0.0f64;
            for shard in &fleet.shards {
                let first = shard.first_chip;
                let mut shard_total = 0.0f64;
                for chip in first..first + shard.chips.len() {
                    shard_total += fleet.chip_consumed(chip).map_or(f64::NAN, Millivolts::get);
                }
                total += shard_total;
            }
            assert_eq!(
                fleet.aggregates().total_delta_vth.get().to_bits(),
                total.to_bits(),
                "epoch {epoch}"
            );
        }
    }

    /// The `stats` totals are bit-identical to the full per-chip scan
    /// they replace: these values were read from that scan, for the
    /// fleet of `digests_are_pinned` at the default margin and at one
    /// narrow enough that a chip is over budget.
    #[test]
    fn aggregates_are_pinned() {
        let narrow = || {
            let mut config = tiny_config();
            config.margin = Millivolts::new(9.0);
            config
        };
        for (config, over) in [(tiny_config(), 0), (narrow(), 1)] {
            let mut fleet = FleetState::build(config);
            fleet.advance_epoch();
            assert!(fleet.fold_report(1, DutyCycle::new(0.3)));
            fleet.advance_epoch();
            let aggregates = fleet.aggregates();
            assert_eq!(
                aggregates.total_delta_vth.get().to_bits(),
                0x4040_4b24_3bde_4bb6
            );
            assert_eq!(
                aggregates.worst_delta_vth.get().to_bits(),
                0x4025_9777_e6ba_4d41
            );
            assert_eq!(aggregates.over_budget_chips, over);
        }
    }
}
