//! Tier policy for the tiered analytic/trap integrator.
//!
//! Million-chip fleets cannot afford per-trap resolution for every chip
//! every epoch — and they don't need it. Under a constant condition the
//! trap ensemble's aggregate ΔVth is a sum of saturating exponentials:
//! monotone under net stress and *decelerating* (each trap's per-epoch
//! contribution shrinks geometrically toward its asymptote). So a chip
//! far from its threshold can be extrapolated from its own recently
//! observed rate, and fleet-scale scheduling only ever needs trap-level
//! fidelity near decision points (threshold crossings, duty mutations).
//! This module holds the pure policy arithmetic for that split; the
//! fleet crate threads it through epoch advance, planning, and
//! checkpoints.
//!
//! A chip is in exactly one of three tiers:
//!
//! - **Hot** — advanced at full trap-ensemble resolution every epoch,
//!   and *eligible* for demotion once it sits outside the guard band.
//! - **Pinned** — full resolution, *never* demoted. `report` promotes a
//!   chip to `Pinned` because a mutated duty cycle is precisely the
//!   "near a decision" signal the tiers exist to respect; pinning makes
//!   the post-report trajectory bit-identical to a never-tiered run.
//! - **Cold** — occupancies frozen in the bank; the chip's ΔVth is
//!   served from a linear extrapolation *anchored* at the exact bank
//!   shift and the exact last-epoch growth rate observed at demotion.
//!   A cold epoch is one integer comparison against a precomputed wake
//!   epoch.
//!
//! ## Guard-band rule and the error bound
//!
//! A chip may go cold only while its shift is below
//! `margin − guard_band` and growing (a recovering or mutating chip
//! stays hot). Its wake epoch is chosen in closed form so that the
//! total extrapolated growth over the cold window never exceeds
//!
//! ```text
//! min(guard_band / 2, (margin − guard_band) − ΔVth_at_demotion)
//! ```
//!
//! Because the true trajectory is decelerating, the observed
//! demotion-epoch rate is an upper bound on every later epoch's growth,
//! so the *true* growth over the window is also below that cap. Served
//! and true values start identical (the anchor is the exact bank value)
//! and each move less than `guard_band / 2` before the wake — hence
//! tiered ΔVth stays within `guard_band` of full resolution (and the
//! chip is back at full resolution strictly before any margin
//! crossing). `tests/tiered_accuracy.rs` in the workspace root pins
//! both the bound and the practical headroom inside it.
//!
//! ## Rehydration
//!
//! Waking replays the whole cold window as **one** fused
//! [`advance_range`](crate::td::TrapBank::advance_range) over
//! `epochs_cold · epoch_dt` under the chip's (constant) condition.
//! Two-state Markov relaxation under constant rates composes in closed
//! form, so this is exact per trap up to `exp`-composition rounding;
//! determinism is preserved because the replay depends only on the
//! frozen occupancies and the integer epoch counters.

use selfheal_units::{Millivolts, Seconds};

use crate::condition::DeviceCondition;

/// A chip never goes cold for fewer epochs than this — a one-epoch nap
/// costs a demotion decision *and* a rehydration for zero saved work.
const MIN_COLD_EPOCHS: f64 = 2.0;

/// Analytic state of a chip that has been demoted to the cold tier.
///
/// The trap occupancies stay frozen in the bank; this records the
/// chip's own anchored extrapolation and when it must wake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColdChip {
    /// The bank's exact ΔVth at the demotion epoch — the extrapolation
    /// starts here, bit-for-bit.
    pub anchor: Millivolts,
    /// The chip's observed growth rate at demotion (millivolts per
    /// second, the mean over its last full-resolution window — one
    /// epoch for an ordinary demotion, the whole replayed window for a
    /// wake-and-redemote). An upper bound on all later growth while the
    /// condition holds, because the trap ensemble's aggregate
    /// decelerates.
    // analyzer: allow(bare-physical-f64) -- compound unit (mV/s), deferred per ROADMAP
    pub rate_mv_per_s: f64,
    /// Epoch index at which the chip went cold (its occupancies are
    /// frozen as of the *end* of this epoch).
    pub since_epoch: u64,
    /// First epoch index that must run at full resolution again.
    /// `u64::MAX` means the chip's observed rate was exactly zero — it
    /// sleeps until a report touches it.
    pub wake_epoch: u64,
}

/// Integration tier of one chip in a tiered fleet.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ChipTier {
    /// Full trap-ensemble resolution; eligible for demotion.
    #[default]
    Hot,
    /// Full resolution, never demoted (set by `report`).
    Pinned,
    /// Frozen occupancies, analytic ΔVth, O(1) epochs.
    Cold(ColdChip),
}

impl ChipTier {
    /// Whether this chip currently skips full-resolution epochs.
    #[must_use]
    pub fn is_cold(&self) -> bool {
        matches!(self, ChipTier::Cold(_))
    }

    /// The cold-tier state, if any.
    #[must_use]
    pub fn cold(&self) -> Option<&ColdChip> {
        match self {
            ChipTier::Cold(cold) => Some(cold),
            _ => None,
        }
    }
}

/// Per-tier chip counts — the fleet's observability probes and `stats`
/// responses report these so `selfheal-top` can show the hot/cold
/// split live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierCounts {
    /// Chips at full resolution and demotion-eligible.
    pub hot: usize,
    /// Chips at full resolution and pinned there by a report.
    pub pinned: usize,
    /// Chips on the analytic fast path.
    pub cold: usize,
}

impl TierCounts {
    /// Tallies one chip.
    pub fn record(&mut self, tier: &ChipTier) {
        match tier {
            ChipTier::Hot => self.hot += 1,
            ChipTier::Pinned => self.pinned += 1,
            ChipTier::Cold(_) => self.cold += 1,
        }
    }

    /// Total chips tallied.
    #[must_use]
    pub fn total(&self) -> usize {
        self.hot + self.pinned + self.cold
    }
}

/// The demotion/wake arithmetic for a tiered fleet.
///
/// Pure and deterministic: every decision is a closed-form function of
/// the chip's observed shifts, its condition, and integer epoch
/// indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierPolicy {
    /// The fleet's end-of-life threshold shift.
    pub margin: Millivolts,
    /// How far below `margin` a chip must stay to remain cold.
    pub guard_band: Millivolts,
    /// Wall-clock length of one fleet epoch.
    pub epoch_dt: Seconds,
}

impl TierPolicy {
    /// Builds a policy.
    ///
    /// # Panics
    ///
    /// Panics if the guard band is not positive, does not leave any
    /// usable margin below the threshold, or the epoch length is not
    /// positive — a zero-width guard band would let a chip sleep
    /// straight through its margin crossing.
    #[must_use]
    pub fn new(margin: Millivolts, guard_band: Millivolts, epoch_dt: Seconds) -> Self {
        assert!(
            guard_band.get() > 0.0 && guard_band.get() < margin.get(),
            "guard band must be positive and below the margin (got {guard_band} of {margin})"
        );
        assert!(
            epoch_dt.get() > 0.0,
            "epoch length must be positive (got {epoch_dt})"
        );
        TierPolicy {
            margin,
            guard_band,
            epoch_dt,
        }
    }

    /// The shift at which a cold chip must be back at full resolution.
    #[must_use]
    pub fn wake_threshold(&self) -> Millivolts {
        self.margin - self.guard_band
    }

    /// Decides whether a chip may go cold at the end of `epoch_end`,
    /// given its bank shift before (`previous`) and after (`current`)
    /// its last full-resolution advance, and how many epochs that
    /// advance covered (`window_epochs` — 1 for an ordinary hot epoch,
    /// the whole cold window for a rehydration, which lets a woken chip
    /// go straight back to sleep without burning a hot epoch).
    ///
    /// Refuses chips with a zero duty cycle (frozen occupancies cannot
    /// model recovery), chips whose shift shrank or jumped non-finitely
    /// over the window (the deceleration argument needs a non-negative
    /// observed rate), chips already inside the guard band, and chips
    /// whose rate would wake them in under `MIN_COLD_EPOCHS`. On
    /// success the returned state anchors the extrapolation at
    /// `current` with the window-mean rate — an upper bound on every
    /// later epoch's growth, because the trajectory decelerates — and
    /// carries the closed-form wake epoch capping extrapolated growth
    /// at `min(guard_band / 2, wake_threshold − current)`.
    #[must_use]
    pub fn try_demote(
        &self,
        previous: Millivolts,
        current: Millivolts,
        window_epochs: u64,
        cond: DeviceCondition,
        epoch_end: u64,
    ) -> Option<ColdChip> {
        if cond.stress_duty().get() <= 0.0 || window_epochs == 0 {
            return None;
        }
        if current.get() >= self.wake_threshold().get() {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        let rate_per_epoch = (current.get() - previous.get()) / window_epochs as f64;
        if rate_per_epoch < 0.0 || !rate_per_epoch.is_finite() {
            return None;
        }
        let allowed_growth = (self.guard_band.get() / 2.0)
            .min(self.wake_threshold().get() - current.get());
        let epochs_cold = if rate_per_epoch == 0.0 {
            f64::INFINITY
        } else {
            (allowed_growth / rate_per_epoch).floor()
        };
        if epochs_cold < MIN_COLD_EPOCHS {
            return None;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let wake_epoch = if epochs_cold >= u64::MAX as f64 {
            u64::MAX
        } else {
            epoch_end.saturating_add(epochs_cold as u64)
        };
        Some(ColdChip {
            anchor: current,
            rate_mv_per_s: rate_per_epoch / self.epoch_dt.get(),
            since_epoch: epoch_end,
            wake_epoch,
        })
    }

    /// Wall-clock time a cold chip has slept through as of `epoch`.
    #[must_use]
    pub fn cold_elapsed(&self, cold: &ColdChip, epoch: u64) -> Seconds {
        #[allow(clippy::cast_precision_loss)]
        Seconds::new(epoch.saturating_sub(cold.since_epoch) as f64 * self.epoch_dt.get())
    }

    /// The extrapolated shift served for a cold chip at `epoch`.
    ///
    /// At `since_epoch` this is the exact bank shift the chip was
    /// demoted with (the elapsed term is exactly zero); afterwards it
    /// grows linearly at the anchored rate, which the wake epoch caps
    /// below half the guard band.
    #[must_use]
    pub fn analytic_delta_vth(&self, cold: &ColdChip, epoch: u64) -> Millivolts {
        Millivolts::new(
            cold.anchor.get() + cold.rate_mv_per_s * self.cold_elapsed(cold, epoch).get(),
        )
    }

    /// Projects a cold chip's shift `dt` past `epoch` — the O(1)
    /// `PREDICT` path, consistent with [`Self::analytic_delta_vth`].
    #[must_use]
    pub fn project(&self, cold: &ColdChip, epoch: u64, dt: Seconds) -> Millivolts {
        self.analytic_delta_vth(cold, epoch) + Millivolts::new(cold.rate_mv_per_s * dt.get())
    }

    /// Whether advancing *into* `next_epoch` must run this chip at full
    /// resolution again.
    #[must_use]
    pub fn should_wake(&self, cold: &ColdChip, next_epoch: u64) -> bool {
        next_epoch >= cold.wake_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_units::{Celsius, DutyCycle, Volts};

    use crate::condition::Environment;

    fn policy() -> TierPolicy {
        TierPolicy::new(
            Millivolts::new(30.0),
            Millivolts::new(10.0),
            Seconds::new(3_600.0),
        )
    }

    fn cond(duty: f64) -> DeviceCondition {
        DeviceCondition::new(
            Environment::new(Volts::new(1.2), Celsius::new(90.0)),
            DutyCycle::new(duty),
        )
    }

    #[test]
    fn zero_duty_never_demotes() {
        let p = policy();
        assert_eq!(
            p.try_demote(Millivolts::new(0.9), Millivolts::new(1.0), 1, cond(0.0), 3),
            None
        );
    }

    #[test]
    fn inside_the_guard_band_never_demotes() {
        let p = policy();
        // wake threshold = 20 mV; at or above it the chip stays hot.
        assert_eq!(
            p.try_demote(Millivolts::new(19.9), Millivolts::new(20.0), 1, cond(0.5), 3),
            None
        );
        assert_eq!(
            p.try_demote(Millivolts::new(24.9), Millivolts::new(25.0), 1, cond(0.5), 3),
            None
        );
    }

    #[test]
    fn a_shrinking_or_racing_shift_never_demotes() {
        let p = policy();
        // Shrinking: the chip is recovering; frozen occupancies would
        // overestimate it forever.
        assert_eq!(
            p.try_demote(Millivolts::new(5.0), Millivolts::new(4.0), 1, cond(0.5), 3),
            None
        );
        // Racing: at 3 mV/epoch the allowed 5 mV of growth buys only
        // one cold epoch — not worth a rehydration.
        assert_eq!(
            p.try_demote(Millivolts::new(2.0), Millivolts::new(5.0), 1, cond(0.5), 3),
            None
        );
    }

    #[test]
    fn extrapolation_is_anchored_at_demotion_bitwise() {
        let p = policy();
        let current = Millivolts::new(9.5);
        let cold = p
            .try_demote(Millivolts::new(9.4), current, 1, cond(0.4), 7)
            .expect("demotable");
        assert_eq!(cold.since_epoch, 7);
        let served = p.analytic_delta_vth(&cold, 7);
        assert_eq!(
            served.get().to_bits(),
            current.get().to_bits(),
            "anchor round-trip: served {served} vs demoted {current}"
        );
    }

    #[test]
    fn cold_window_growth_is_capped_by_half_the_guard_band() {
        let p = policy();
        // 0.1 mV/epoch at 5 mV: allowed growth = min(5, 15) = 5 mV,
        // so 50 cold epochs.
        let cold = p
            .try_demote(Millivolts::new(4.9), Millivolts::new(5.0), 1, cond(0.6), 0)
            .expect("demotable");
        assert_eq!(cold.wake_epoch, 50);
        let at_wake = p.analytic_delta_vth(&cold, cold.wake_epoch).get();
        assert!(
            at_wake - cold.anchor.get() <= p.guard_band.get() / 2.0 + 1e-12,
            "extrapolated growth {at_wake} − {} exceeds half the guard band",
            cold.anchor
        );
        assert!(
            at_wake <= p.wake_threshold().get() + 1e-12,
            "at wake ({at_wake} mV) the extrapolation must not have crossed \
             the threshold ({} mV)",
            p.wake_threshold()
        );
    }

    #[test]
    fn a_saturated_chip_sleeps_forever() {
        let p = policy();
        // Rate exactly zero: the decelerating trajectory can never grow
        // again, so the wake epoch caps out.
        let current = Millivolts::new(5.0);
        let cold = p
            .try_demote(current, current, 1, cond(0.5), 0)
            .expect("demotable");
        assert_eq!(cold.wake_epoch, u64::MAX);
        assert!(!p.should_wake(&cold, u64::MAX - 1));
        // And its served value never moves off the anchor.
        assert_eq!(
            p.analytic_delta_vth(&cold, 1_000_000).get().to_bits(),
            current.get().to_bits()
        );
    }

    #[test]
    fn should_wake_is_an_integer_compare() {
        let p = policy();
        let cold = ColdChip {
            anchor: Millivolts::new(5.0),
            rate_mv_per_s: 1e-6,
            since_epoch: 4,
            wake_epoch: 9,
        };
        assert!(!p.should_wake(&cold, 8));
        assert!(p.should_wake(&cold, 9));
        assert!(p.should_wake(&cold, 10));
    }

    #[test]
    fn a_rehydration_window_demotes_on_its_mean_rate() {
        let p = policy();
        // 1 mV over a 10-epoch window = 0.1 mV/epoch: same wake math
        // as the single-epoch case, so a woken chip goes straight back
        // to sleep without burning a hot epoch.
        let cold = p
            .try_demote(Millivolts::new(4.0), Millivolts::new(5.0), 10, cond(0.6), 20)
            .expect("demotable on the window-mean rate");
        assert_eq!(cold.since_epoch, 20);
        assert_eq!(cold.wake_epoch, 70, "allowed 5 mV at 0.1 mV/epoch");
        // The same 1 mV observed in a single epoch reads as a 10× rate
        // and buys a correspondingly shorter nap.
        let fast = p
            .try_demote(Millivolts::new(4.0), Millivolts::new(5.0), 1, cond(0.6), 20)
            .expect("still demotable, just briefly");
        assert_eq!(fast.wake_epoch, 25, "allowed 5 mV at 1 mV/epoch");
    }

    #[test]
    fn project_extends_the_served_line() {
        let p = policy();
        let cold = p
            .try_demote(Millivolts::new(4.9), Millivolts::new(5.0), 1, cond(0.6), 0)
            .expect("demotable");
        let now = p.analytic_delta_vth(&cold, 10).get();
        let ahead = p.project(&cold, 10, Seconds::new(3_600.0)).get();
        assert!(
            (ahead - now - 0.1).abs() < 1e-12,
            "one epoch ahead adds one epoch of rate ({now} → {ahead})"
        );
    }

    #[test]
    fn tier_counts_tally_every_variant() {
        let mut counts = TierCounts::default();
        counts.record(&ChipTier::Hot);
        counts.record(&ChipTier::Pinned);
        counts.record(&ChipTier::Cold(ColdChip {
            anchor: Millivolts::new(0.0),
            rate_mv_per_s: 0.0,
            since_epoch: 0,
            wake_epoch: 1,
        }));
        counts.record(&ChipTier::Hot);
        assert_eq!(
            (counts.hot, counts.pinned, counts.cold, counts.total()),
            (2, 1, 1, 4)
        );
    }
}
