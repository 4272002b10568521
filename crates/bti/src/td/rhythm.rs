//! Closed-form walks over a chip's slice of a [`TrapBank`], reading the
//! bank's columns in place: no copy, no stepping, no allocation.
//!
//! In the TD model a phase under fixed rates is one relaxation per trap:
//! [`PhaseRates::relaxation`] gives `(p∞, τ)`, and a phase of length
//! `len` maps the occupancy `p ↦ p∞ + (p − p∞)·exp(−len/τ)`, with the
//! kernel's clamp and frozen-trap rule. A repeated two-phase rhythm
//! therefore costs two `exp` per trap (one per phase kind) plus a
//! multiply-add per trap and phase, however long each phase is.
//!
//! * [`TrapBank::walk_rhythm`] visits every trap's occupancy at every
//!   phase boundary of a [`Rhythm`].
//! * [`TrapBank::rhythm_bound`] bounds the rhythm's peak shift from
//!   above: the schedule planner's probe.
//! * [`TrapBank::projected_delta_vth`] is one phase's end shift, bit for
//!   bit what stepping a copy of the slice with
//!   [`advance_all`](TrapBank::advance_all) and summing it gives.

use std::ops::{ControlFlow, Range};

use selfheal_units::{float, Millivolts, Seconds};

use super::kernel::{decay, step, PhaseRates, TrapBank, FROZEN, LANES};

/// One phase of a [`Rhythm`]: the rates it runs under and its length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RhythmPhase {
    /// The rates every trap relaxes under during the phase.
    pub rates: PhaseRates,
    /// How long the phase lasts; a length ≤ 0 moves no trap.
    pub len: Seconds,
}

impl RhythmPhase {
    /// One trap's `(p∞, decay)` over this phase: one `relaxation` call
    /// and one `exp`, with the kernel's frozen marker for a trap (or a
    /// phase) that does not move.
    #[inline(always)]
    fn map(&self, tau_c0: f64, tau_e: f64) -> (f64, f64) {
        let (p_inf, tau) = self.rates.relaxation(tau_c0, tau_e);
        if self.len.is_zero_or_negative() {
            (p_inf, FROZEN)
        } else {
            (p_inf, decay(tau, -self.len.get()))
        }
    }
}

/// A circadian schedule over a trap slice: `cycles` × (active, sleep),
/// opened by one extra sleep phase when `opening_sleep` is set (a
/// recover-first plan).
///
/// Phases are numbered in schedule order from 0; with an opening sleep,
/// that sleep is phase 0 and the first active phase is phase 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rhythm {
    /// The working phase of each cycle.
    pub active: RhythmPhase,
    /// The rejuvenation phase of each cycle.
    pub sleep: RhythmPhase,
    /// Whole (active, sleep) cycles.
    pub cycles: usize,
    /// Whether one sleep phase runs before the first cycle.
    pub opening_sleep: bool,
}

impl Rhythm {
    /// Phases before the first one a plan's margin applies to: the
    /// opening sleep, if any.
    #[must_use]
    pub fn uncharged_phases(&self) -> usize {
        usize::from(self.opening_sleep)
    }

    /// Every phase the schedule runs: `2 × cycles`, plus the opening
    /// sleep.
    #[must_use]
    pub fn phases(&self) -> usize {
        2 * self.cycles + self.uncharged_phases()
    }
}

impl TrapBank {
    /// Walks every trap in `range` through `rhythm` from its current
    /// occupancy. The traps go in blocks of up to [`LANES`], in bank
    /// order; each block walks the schedule phase by phase and calls
    /// `visit(first, phase, start, end)` once per phase, where `start`
    /// and `end` hold the block's occupancies at the start and end of
    /// the phase and `first` is the block's first trap (counted from the
    /// start of `range`). The steps of a block's traps are independent,
    /// so they overlap. The walk stops at the first
    /// [`ControlFlow::Break`] and returns it.
    ///
    /// Each phase applies the kernel's step, so a trap's end occupancy
    /// is what [`advance_range`](TrapBank::advance_range) over the
    /// phase's rates and length leaves. The bank is not touched.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank.
    pub fn walk_rhythm<B>(
        &self,
        range: Range<usize>,
        rhythm: &Rhythm,
        mut visit: impl FnMut(usize, usize, &[f64], &[f64]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let tau_c0 = &self.tau_c0()[range.clone()];
        let tau_e = &self.tau_e()[range.clone()];
        for (block, occupancy) in self.occupancies()[range].chunks(LANES).enumerate() {
            let first = block * LANES;
            let lanes = occupancy.len();
            // Each trap's (p∞, decay) while active, then while asleep.
            let mut maps = [[(0.0, 0.0); 2]; LANES];
            for (j, map) in maps.iter_mut().take(lanes).enumerate() {
                let k = first + j;
                *map = [
                    rhythm.active.map(tau_c0[k], tau_e[k]),
                    rhythm.sleep.map(tau_c0[k], tau_e[k]),
                ];
            }
            let mut p = [0.0; LANES];
            p[..lanes].copy_from_slice(occupancy);
            let mut relax = |phase: usize, kind: usize, p: &mut [f64; LANES]| {
                let mut end = [0.0; LANES];
                for j in 0..lanes {
                    let (p_inf, decay) = maps[j][kind];
                    end[j] = step(p[j], p_inf, decay);
                }
                visit(first, phase, &p[..lanes], &end[..lanes])?;
                *p = end;
                ControlFlow::Continue(())
            };
            let mut phase = 0;
            if rhythm.opening_sleep {
                relax(phase, 1, &mut p)?;
                phase += 1;
            }
            for _ in 0..rhythm.cycles {
                relax(phase, 0, &mut p)?;
                relax(phase + 1, 1, &mut p)?;
                phase += 2;
            }
        }
        ControlFlow::Continue(())
    }

    /// An upper bound on the peak shift of the slice in `range` over
    /// `rhythm`, from the end of its uncharged phases on
    /// ([`Rhythm::uncharged_phases`]).
    ///
    /// Within one phase every trap moves monotonically towards its p∞,
    /// so no trap exceeds the larger of its phase-start and phase-end
    /// occupancies; the bound of a phase is the sum, over traps, of
    /// `step_mv × max(start, end)`, and the bound of the rhythm is the
    /// largest phase bound. When every trap rises during the phase the
    /// peak falls in, the bound is that phase's end shift: exact. A
    /// trap that starts above its active p∞ (a chip aged at DC that
    /// now reports a lower duty) falls while others rise, and then the
    /// bound can exceed the true peak.
    ///
    /// `sums` holds the per-phase partial sums; it is overwritten. Once
    /// one of them exceeds `ceiling` the walk stops and returns it: the
    /// result exceeds `ceiling` exactly when the full bound does, and
    /// equals the full bound when it does not.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank, `rhythm` has no cycle, or
    /// `sums` is shorter than [`Rhythm::phases`].
    #[must_use]
    pub fn rhythm_bound(
        &self,
        range: Range<usize>,
        rhythm: &Rhythm,
        ceiling: Millivolts,
        sums: &mut [f64],
    ) -> Millivolts {
        assert!(rhythm.cycles > 0, "a rhythm bound needs at least one cycle");
        let sums = &mut sums[..rhythm.phases()];
        sums.fill(0.0);
        let uncharged = rhythm.uncharged_phases();
        let step_mv = &self.step_mv()[range.clone()];
        let ceiling = ceiling.get();
        let walk = self.walk_rhythm(range, rhythm, |first, phase, start, end| {
            if phase < uncharged {
                return ControlFlow::Continue(());
            }
            // In trap order, so the sums do not depend on the block size.
            // The larger endpoint keeps a NaN from either, like
            // `float::max_total`, for two compares.
            let mut sum = sums[phase];
            for (j, (&start, &end)) in start.iter().zip(end).enumerate() {
                let high = if end > start || end.is_nan() {
                    end
                } else {
                    start
                };
                sum += step_mv[first + j] * high;
            }
            sums[phase] = sum;
            if sum > ceiling {
                ControlFlow::Break(sum)
            } else {
                ControlFlow::Continue(())
            }
        });
        let bound = match walk {
            ControlFlow::Break(over) => over,
            ControlFlow::Continue(()) => {
                float::max_of(sums[uncharged..].iter().copied()).unwrap_or(f64::NAN)
            }
        };
        Millivolts::new(bound)
    }

    /// The shift of the slice in `range` after `dt` under `rates`,
    /// computed from the columns in place: bit for bit what
    /// [`copy_range`](TrapBank::copy_range), then
    /// [`advance_all`](TrapBank::advance_all), then
    /// [`delta_vth`](TrapBank::delta_vth) gives, without the copy. Each
    /// trap takes the kernel's step and the sum runs in trap order from
    /// `-0.0`. Unlike `advance_all` it feeds no kernel counter: nothing
    /// is advanced.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the bank.
    #[must_use]
    pub fn projected_delta_vth(
        &self,
        range: Range<usize>,
        rates: &PhaseRates,
        dt: Seconds,
    ) -> Millivolts {
        let phase = RhythmPhase {
            rates: *rates,
            len: dt,
        };
        let tau_c0 = &self.tau_c0()[range.clone()];
        let tau_e = &self.tau_e()[range.clone()];
        let step_mv = &self.step_mv()[range.clone()];
        let mut delta_vth_mv = -0.0;
        for (k, &p) in self.occupancies()[range].iter().enumerate() {
            let (p_inf, decay) = phase.map(tau_c0[k], tau_e[k]);
            delta_vth_mv += step(p, p_inf, decay) * step_mv[k];
        }
        Millivolts::new(delta_vth_mv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{DeviceCondition, Environment};
    use crate::td::{TrapEnsembleParams, LANES};
    use rand::SeedableRng;
    use selfheal_units::{Celsius, DutyCycle, Volts};

    fn env() -> Environment {
        Environment::new(Volts::new(1.2), Celsius::new(90.0))
    }

    /// A bank aged at DC, so its traps sit above a low duty's p∞.
    fn aged_bank(traps: usize, seed: u64) -> TrapBank {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut bank: TrapBank = TrapEnsembleParams::default()
            .traps(traps, &mut rng)
            .into_iter()
            .collect();
        let dc = PhaseRates::for_condition(DeviceCondition::dc_stress(env()));
        bank.advance_all(&dc, Seconds::new(48.0 * 3_600.0));
        bank
    }

    fn rhythm(duty: f64, cycles: usize, opening_sleep: bool) -> Rhythm {
        let heal = Environment::new(Volts::new(-0.3), Celsius::new(110.0));
        Rhythm {
            active: RhythmPhase {
                rates: PhaseRates::for_condition(DeviceCondition::new(env(), DutyCycle::new(duty))),
                len: Seconds::new(20.0 * 3_600.0),
            },
            sleep: RhythmPhase {
                rates: PhaseRates::for_condition(DeviceCondition::recovery(heal)),
                len: Seconds::new(4.0 * 3_600.0),
            },
            cycles,
            opening_sleep,
        }
    }

    /// The projection equals a copied, advanced, summed slice bit for
    /// bit, at the kernel's chunk-boundary sizes and at `dt ≤ 0`.
    #[test]
    fn projection_is_the_copied_advance_bit_for_bit() {
        let bank = aged_bank(3 * LANES + 5, 3);
        let rates = PhaseRates::for_condition(DeviceCondition::new(env(), DutyCycle::new(0.3)));
        for len in [LANES - 1, LANES, LANES + 1, 0, 2 * LANES + 3] {
            let range = 2..2 + len;
            for dt in [86_400.0, 1.0, 0.0, -5.0] {
                let dt = Seconds::new(dt);
                let mut copy = bank.copy_range(range.clone());
                copy.advance_all(&rates, dt);
                let got = bank.projected_delta_vth(range.clone(), &rates, dt);
                assert_eq!(got.get().to_bits(), copy.delta_vth().get().to_bits());
            }
        }
    }

    /// Blocks of `LANES` traps in bank order, phases in schedule order
    /// within a block, each phase starting where the last one ended, and
    /// an early stop.
    #[test]
    fn the_walk_visits_each_block_phase_by_phase_and_stops_on_break() {
        let bank = aged_bank(2 * LANES + 3, 5);
        let range = 1..2 * LANES + 2;
        for opening_sleep in [false, true] {
            let rhythm = rhythm(0.2, 3, opening_sleep);
            let mut seen: Vec<(usize, usize, Vec<f64>, Vec<f64>)> = Vec::new();
            let flow = bank.walk_rhythm(range.clone(), &rhythm, |first, phase, start, end| {
                seen.push((first, phase, start.to_vec(), end.to_vec()));
                ControlFlow::<()>::Continue(())
            });
            assert_eq!(flow, ControlFlow::Continue(()));
            assert_eq!(seen.len(), 3 * rhythm.phases());
            for (index, (first, phase, start, end)) in seen.iter().enumerate() {
                let block = index / rhythm.phases();
                assert_eq!((*first, *phase), (block * LANES, index % rhythm.phases()));
                let lanes = (range.len() - first).min(LANES);
                assert_eq!((start.len(), end.len()), (lanes, lanes));
                let expected = if *phase == 0 {
                    bank.occupancies()[range.start + first..][..lanes].to_vec()
                } else {
                    seen[index - 1].3.clone()
                };
                assert_eq!(start, &expected);
            }
            let stopped = bank.walk_rhythm(0..bank.len(), &rhythm, |first, phase, _, _| {
                if (first, phase) == (LANES, 2) {
                    ControlFlow::Break((first, phase))
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert_eq!(stopped, ControlFlow::Break((LANES, 2)));
        }
    }

    /// The bound is exact on a rising slice, covers a falling one, and
    /// a ceiling cuts it short only when the full bound exceeds it.
    #[test]
    fn the_bound_caps_every_phase_and_respects_its_ceiling() {
        let bank = aged_bank(24, 9);
        let mut sums = vec![0.0; 64];
        for (duty, opening_sleep) in [(1.0, false), (0.05, false), (0.05, true)] {
            let rhythm = rhythm(duty, 5, opening_sleep);
            let full = bank
                .rhythm_bound(0..24, &rhythm, Millivolts::new(f64::INFINITY), &mut sums)
                .get();
            assert!(full.is_finite() && full > 0.0);
            for ceiling in [full, full.next_down(), 0.5 * full] {
                let capped = bank
                    .rhythm_bound(0..24, &rhythm, Millivolts::new(ceiling), &mut sums)
                    .get();
                assert_eq!(capped > ceiling, full > ceiling, "ceiling {ceiling}");
                if full <= ceiling {
                    assert_eq!(capped.to_bits(), full.to_bits());
                }
            }
        }
        // At DC from a DC-aged start every trap rises in the active
        // phase, so the bound is the largest end-of-active shift.
        let dc = rhythm(1.0, 5, false);
        let mut replay = bank.clone();
        let mut peak = replay.delta_vth().get();
        for _ in 0..dc.cycles {
            replay.advance_all(&dc.active.rates, dc.active.len);
            peak = float::max_total(peak, replay.delta_vth().get());
            replay.advance_all(&dc.sleep.rates, dc.sleep.len);
        }
        let bound = bank
            .rhythm_bound(0..24, &dc, Millivolts::new(f64::INFINITY), &mut sums)
            .get();
        assert!((bound - peak).abs() <= 1e-12 * peak, "{bound} vs {peak}");
    }
}
