//! The plan audit: every `plan` the daemon issues holds on the chip it
//! is for, and every refusal it can prove is one.
//!
//! Fleets of 256 chips with 8, 16 and 40 traps per chip (mean), fresh
//! and aged 48 DC epochs, are planned under all four techniques through
//! `FleetDaemon::handle`. A quarter of the chips stay at DC; the rest
//! report a duty from the 5–95 % grid after aging, so their traps sit
//! above the active phase's p∞ and fall while active. Each reply is then
//! checked against a replay of its own schedule on a copy of the chip's
//! trap slice, stepped `SUB_STEPS` times per phase:
//!
//! * an issued plan never exceeds the margin, nor its own
//!   `predicted_peak`, from the end of its opening sleep (if any) on;
//! * a refusal of a chip whose traps all rise while active (the bound is
//!   exact there) is confirmed: at α = 0.5 both the plain and the
//!   recover-first schedules exceed the margin at a phase boundary;
//! * `Combined` plans at least one chip already over its budget that
//!   `PassiveGating` refuses: accelerated recovery brings back what
//!   passive gating cannot.
//!
//! Refusals of chips with falling traps are counted, not judged: the
//! bound is loose there, so α = 0.5 may hold on replay.

use selfheal::{RejuvenationPlan, RejuvenationTechnique};
use selfheal_bti::td::{PhaseRates, TrapBank};
use selfheal_bti::DeviceCondition;
use selfheal_fleet::{FleetConfig, FleetDaemon, Request, Response};
use selfheal_runtime::ResultCache;
use selfheal_units::{float, DutyCycle, Ratio, Seconds};

/// Sub-steps per phase of the replay.
const SUB_STEPS: usize = 16;

/// Rounding slack between one closed-form step per phase and
/// `SUB_STEPS` stepped ones, relative to the margin.
const SLACK: f64 = 1e-9;

/// The duty chip `chip` reports after aging; `None` keeps it at DC.
fn reported_duty(chip: u64) -> Option<DutyCycle> {
    #[allow(clippy::cast_precision_loss)]
    let step = (chip % 19 + 1) as f64;
    (chip % 4 != 0).then(|| DutyCycle::new(0.05 * step))
}

/// The rhythm's peak shift on a replay of `slice`, from the end of the
/// opening sleep (if any) on, sampled at every sub-step.
fn replay_peak(
    slice: &TrapBank,
    active: &PhaseRates,
    sleep: &PhaseRates,
    alpha: Ratio,
    period: Seconds,
    cycles: usize,
    opening_sleep: bool,
    sub_steps: usize,
) -> f64 {
    let mut bank = slice.clone();
    let all = 0..bank.len();
    let (active_len, sleep_len) = alpha.split_cycle(period);
    let column = |rates: &PhaseRates, len: Seconds| {
        let (mut decay, mut p_inf) = (vec![0.0; bank.len()], vec![0.0; bank.len()]);
        bank.fill_decay(
            all.clone(),
            rates,
            len / sub_steps as f64,
            &mut decay,
            &mut p_inf,
        );
        (decay, p_inf)
    };
    let (active_decay, active_p_inf) = column(active, active_len);
    let (sleep_decay, sleep_p_inf) = column(sleep, sleep_len);
    if opening_sleep {
        for _ in 0..sub_steps {
            bank.advance_range_cached(all.clone(), &sleep_decay, &sleep_p_inf);
        }
    }
    let mut peak = bank.delta_vth().get();
    for _ in 0..cycles {
        for (decay, p_inf) in [(&active_decay, &active_p_inf), (&sleep_decay, &sleep_p_inf)] {
            for _ in 0..sub_steps {
                bank.advance_range_cached(all.clone(), decay, p_inf);
                peak = float::max_total(peak, bank.delta_vth().get());
            }
        }
    }
    peak
}

/// What the audit saw over one fleet.
#[derive(Debug, Default)]
struct Tally {
    issued: usize,
    recover_first: usize,
    refused_rising: usize,
    refused_falling: usize,
    /// Falling-trap refusals whose α = 0.5 replay holds the margin.
    refused_falling_holdable: usize,
}

#[test]
fn issued_plans_hold_and_rising_refusals_are_confirmed() {
    let mut combined_rescues = 0;
    for traps in [8.0, 16.0, 40.0] {
        for aged in [0, 48] {
            let mut config = FleetConfig {
                chips: 256,
                shards: 4,
                ..FleetConfig::default()
            };
            config.trap_params.mean_trap_count = traps;
            let margin = config.margin.get();
            let (period, horizon) = (config.period, config.horizon);
            let cycles = (horizon.get() / period.get()).ceil() as usize;
            let mut daemon = FleetDaemon::new(config.clone(), ResultCache::disabled(), 0);
            for _ in 0..aged {
                daemon.advance_epoch();
            }
            for chip in 0..256u64 {
                if let Some(duty) = reported_duty(chip) {
                    daemon.handle(&Request::Report { chip, duty });
                }
            }

            let mut tally = Tally::default();
            for chip in 0..256u64 {
                let index = chip as usize;
                let (shard, range) = daemon.state().chip_view(index).expect("chip in fleet");
                let slice = shard.bank.copy_range(range);
                let duty = daemon.state().chip_duty(index).expect("chip in fleet");
                let active =
                    PhaseRates::for_condition(DeviceCondition::new(config.active_env, duty));
                let rises =
                    slice.occupancies().iter().enumerate().all(|(k, &p)| {
                        p <= active.relaxation(slice.tau_c0()[k], slice.tau_e()[k]).0
                    });
                let mut planned = Vec::new();
                for technique in RejuvenationTechnique::ALL {
                    let sleep = PhaseRates::for_condition(DeviceCondition::recovery(
                        technique.environment(),
                    ));
                    let plan = match daemon.handle(&Request::Plan {
                        chip,
                        technique,
                        period: None,
                        horizon: None,
                    }) {
                        Response::Plan { plan, .. } => plan,
                        other => panic!("expected a plan reply, got {other:?}"),
                    };
                    let replay = |alpha: Ratio, opening: bool, sub_steps: usize| {
                        replay_peak(
                            &slice, &active, &sleep, alpha, period, cycles, opening, sub_steps,
                        )
                    };
                    match plan {
                        Some(RejuvenationPlan {
                            alpha,
                            predicted_peak,
                            recover_first,
                            ..
                        }) => {
                            tally.issued += 1;
                            tally.recover_first += usize::from(recover_first);
                            let peak = replay(alpha, recover_first, SUB_STEPS);
                            assert!(
                                peak <= margin * (1.0 + SLACK),
                                "chip {chip} ({traps} traps, {aged} epochs, {technique}): \
                                 plan {plan:?} peaks at {peak} mV on replay"
                            );
                            assert!(
                                peak <= predicted_peak.get() * (1.0 + SLACK),
                                "chip {chip}: replay peak {peak} above the bound {predicted_peak}"
                            );
                        }
                        None if rises => {
                            tally.refused_rising += 1;
                            let half = Ratio::new(0.5).expect("α = 0.5");
                            for opening in [false, true] {
                                let peak = replay(half, opening, 1);
                                assert!(
                                    peak > margin,
                                    "chip {chip} ({traps} traps, {aged} epochs, {technique}) \
                                     was refused, but α = 0.5 (recover-first: {opening}) peaks \
                                     at {peak} mV"
                                );
                            }
                        }
                        None => {
                            tally.refused_falling += 1;
                            let half = Ratio::new(0.5).expect("α = 0.5");
                            if replay(half, false, SUB_STEPS) <= margin
                                || replay(half, true, SUB_STEPS) <= margin
                            {
                                tally.refused_falling_holdable += 1;
                            }
                        }
                    }
                    planned.push((technique, plan.is_some()));
                }
                let over_budget = slice.delta_vth().get() > margin;
                let outcome = |wanted| planned.iter().find(|(t, _)| *t == wanted).map(|p| p.1);
                if over_budget
                    && outcome(RejuvenationTechnique::Combined) == Some(true)
                    && outcome(RejuvenationTechnique::PassiveGating) == Some(false)
                {
                    combined_rescues += 1;
                }
            }
            println!("{traps} traps, {aged} aged epochs: {tally:?}");
        }
    }
    println!("over-budget chips Combined plans and PassiveGating refuses: {combined_rescues}");
    assert!(
        combined_rescues > 0,
        "Combined rescued no over-budget chip that PassiveGating refuses"
    );
}
