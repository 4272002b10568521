//! The daemon core: request handling against live fleet state.
//!
//! [`FleetDaemon`] is transport-free — it maps typed [`Request`]s to
//! typed [`Response`]s against a [`FleetState`] and checkpoints through
//! a [`ResultCache`] on a fixed epoch cadence. The socket front end
//! ([`crate::server`]) and the determinism tests drive the exact same
//! entry points, which is what makes "kill, resume, replay" provable:
//! the daemon's behaviour is a pure function of (config, seed, request
//! history, epoch schedule).

use selfheal::SchedulePlanner;
use selfheal_bti::td::ChipTier;
use selfheal_bti::DeviceCondition;
use selfheal_runtime::ResultCache;
use selfheal_telemetry::{counter, flight, gauge};
use selfheal_units::Millivolts;

use crate::checkpoint;
use crate::config::FleetConfig;
use crate::proto::{ErrorCode, Request, Response, StatsReply};
use crate::state::FleetState;

/// The most day/night cycles one `plan` request may span
/// (`horizon / period`, rounded up); longer plans are refused as
/// `bad-request`.
///
/// The planner simulates every cycle of the horizon some forty times
/// while it bisects, so an unbounded count lets one request stall the
/// state thread or abort the daemon on allocation. A year of daily
/// cycles is 365; at the cap a plan costs about 0.15 s of state-thread
/// time (roughly 1.8 µs per simulated cycle on a 2-vCPU x86-64 host).
pub const MAX_PLAN_CYCLES: u32 = 2_000;

/// The fleet daemon: state, planner, checkpoint policy.
#[derive(Debug)]
pub struct FleetDaemon {
    state: FleetState,
    planner: SchedulePlanner,
    cache: ResultCache,
    /// Checkpoint every N epochs (0 = only on shutdown).
    checkpoint_every: u64,
    requests_served: u64,
}

impl FleetDaemon {
    /// Builds a fresh fleet (no resume attempt).
    #[must_use]
    pub fn new(config: FleetConfig, cache: ResultCache, checkpoint_every: u64) -> FleetDaemon {
        let planner = SchedulePlanner::with_default_models(config.active_env, config.margin);
        FleetDaemon {
            state: FleetState::build(config),
            planner,
            cache,
            checkpoint_every,
            requests_served: 0,
        }
    }

    /// Resumes from the newest checkpoint when one exists, otherwise
    /// builds fresh. The `bool` reports whether a resume happened.
    #[must_use]
    pub fn resume_or_new(
        config: FleetConfig,
        cache: ResultCache,
        checkpoint_every: u64,
    ) -> (FleetDaemon, bool) {
        let planner = SchedulePlanner::with_default_models(config.active_env, config.margin);
        match checkpoint::resume(&cache, &config) {
            Some(state) => (
                FleetDaemon {
                    state,
                    planner,
                    cache,
                    checkpoint_every,
                    requests_served: 0,
                },
                true,
            ),
            None => (FleetDaemon::new(config, cache, checkpoint_every), false),
        }
    }

    /// The live state (read-only; mutations go through requests/epochs).
    #[must_use]
    pub fn state(&self) -> &FleetState {
        &self.state
    }

    /// Requests served by this process (not persisted across restarts).
    #[must_use]
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Advances one epoch, checkpoints on cadence, refreshes gauges.
    pub fn advance_epoch(&mut self) {
        self.state.advance_epoch();
        let epoch = self.state.epoch();
        flight::record("epoch", "advance", || {
            format!("epoch={epoch} sim_s={}", self.state.sim_time().get())
        });
        if self.checkpoint_every > 0 && epoch % self.checkpoint_every == 0 {
            checkpoint::save(&self.cache, &self.state);
            counter!("fleet.checkpoints", 1);
            flight::record("checkpoint", "save", || {
                format!("epoch={epoch} digest={:016x}", self.state.state_digest())
            });
        }
        #[allow(clippy::cast_precision_loss)]
        let epoch_f = epoch as f64;
        gauge!("fleet.epoch", epoch_f);
        gauge!("fleet.sim_hours", self.state.sim_time().get() / 3_600.0);
        // Per-tier chip counts so `selfheal-top` can watch the hot/cold
        // split move (all-hot when untiered).
        let tiers = self.state.tier_counts();
        #[allow(clippy::cast_precision_loss)]
        {
            gauge!("fleet.chips_hot", tiers.hot as f64);
            gauge!("fleet.chips_pinned", tiers.pinned as f64);
            gauge!("fleet.chips_cold", tiers.cold as f64);
        }
    }

    /// Writes a final checkpoint (shutdown path). Returns `false` when
    /// the cache is disabled.
    pub fn final_checkpoint(&self) -> bool {
        checkpoint::save(&self.cache, &self.state)
    }

    /// Answers one request against the live state.
    pub fn handle(&mut self, request: &Request) -> Response {
        self.requests_served += 1;
        match request {
            Request::Plan {
                chip,
                technique,
                period,
                horizon,
            } => self.handle_plan(*chip, *technique, *period, *horizon),
            Request::Predict { chip, dt } => self.handle_predict(*chip, *dt),
            Request::Report { chip, duty } => {
                let chip_index = usize::try_from(*chip).unwrap_or(usize::MAX);
                if self.state.fold_report(chip_index, *duty) {
                    Response::Report {
                        chip: *chip,
                        duty: *duty,
                        epoch: self.state.epoch(),
                    }
                } else {
                    unknown_chip(*chip)
                }
            }
            Request::Stats => self.handle_stats(),
            Request::DebugDump => handle_debug_dump(),
            Request::Shutdown => Response::Bye,
        }
    }

    fn handle_plan(
        &self,
        chip: u64,
        technique: selfheal::RejuvenationTechnique,
        period: Option<selfheal_units::Seconds>,
        horizon: Option<selfheal_units::Seconds>,
    ) -> Response {
        let chip_index = usize::try_from(chip).unwrap_or(usize::MAX);
        let Some(consumed) = self.state.chip_consumed(chip_index) else {
            return unknown_chip(chip);
        };
        let config = self.state.config();
        let period = period.unwrap_or(config.period);
        let horizon = horizon.unwrap_or(config.horizon);
        let cycles = (horizon.get() / period.get()).ceil();
        if cycles > f64::from(MAX_PLAN_CYCLES) {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: format!(
                    "horizon / period asks for {cycles} cycles; at most {MAX_PLAN_CYCLES} are planned"
                ),
            };
        }
        // `chip_consumed` is tier-aware (analytic for cold chips, the
        // exact bank slice otherwise), so both tiers flow through the
        // same planner entry point, read-only.
        let plan = self
            .planner
            .plan_with_consumed(consumed, technique, period, horizon);
        Response::Plan {
            chip,
            consumed,
            plan,
        }
    }

    fn handle_predict(&self, chip: u64, dt: selfheal_units::Seconds) -> Response {
        let chip_index = usize::try_from(chip).unwrap_or(usize::MAX);
        let Some(current) = self.state.chip_consumed(chip_index) else {
            return unknown_chip(chip);
        };
        let duty = self
            .state
            .chip_duty(chip_index)
            .unwrap_or_default();
        let cond = DeviceCondition::new(self.state.config().active_env, duty);
        // Cold chips project along their rate-anchored line in closed
        // form; hot and pinned chips project a copy of their live trap
        // slice. Either way the state itself is untouched.
        let projected = match (self.state.config().tier_policy(), self.state.chip_tier(chip_index))
        {
            (Some(policy), Some(ChipTier::Cold(cold))) => {
                policy.project(&cold, self.state.epoch(), dt)
            }
            _ => {
                let Some((shard, traps)) = self.state.chip_view(chip_index) else {
                    return unknown_chip(chip);
                };
                self.planner
                    .predicted_shift_from_bank(&shard.bank, traps, cond, dt)
            }
        };
        Response::Predict {
            chip,
            current,
            projected,
            headroom: Millivolts::new(self.state.config().margin.get() - projected.get()),
        }
    }

    fn handle_stats(&self) -> Response {
        let aggregates = self.state.aggregates();
        let config = self.state.config();
        #[allow(clippy::cast_precision_loss)]
        let mean = aggregates.total_delta_vth.get() / config.chips as f64;
        Response::Stats(StatsReply {
            chips: config.chips as u64,
            shards: config.shards as u64,
            epoch: self.state.epoch(),
            sim_time: self.state.sim_time(),
            requests: self.requests_served,
            mean_delta_vth: Millivolts::new(mean),
            worst_delta_vth: aggregates.worst_delta_vth,
            over_budget_chips: aggregates.over_budget_chips as u64,
            state_digest: self.state.state_digest(),
        })
    }
}

/// Dumps the flight recorder to its configured path. With no path
/// configured this reports the retained count and writes nothing, so
/// `debug-dump` is always safe to issue.
fn handle_debug_dump() -> Response {
    match flight::dump() {
        Ok(Some((path, events))) => Response::DebugDump {
            events: events as u64,
            path: Some(path.display().to_string()),
        },
        Ok(None) => Response::DebugDump {
            events: flight::global().len() as u64,
            path: None,
        },
        Err(err) => Response::Error {
            code: ErrorCode::BadRequest,
            message: format!("flight dump failed: {err}"),
        },
    }
}

fn unknown_chip(chip: u64) -> Response {
    Response::Error {
        code: ErrorCode::UnknownChip,
        message: format!("chip {chip} is outside the fleet"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal::RejuvenationTechnique;
    use selfheal_units::{DutyCycle, Seconds};

    fn tiny_daemon() -> FleetDaemon {
        let mut config = FleetConfig::default();
        config.chips = 12;
        config.shards = 3;
        config.seed = 11;
        config.trap_params.mean_trap_count = 8.0;
        FleetDaemon::new(config, ResultCache::disabled(), 0)
    }

    #[test]
    fn a_fresh_chip_gets_a_feasible_plan() {
        let mut daemon = tiny_daemon();
        daemon.advance_epoch();
        let response = daemon.handle(&Request::Plan {
            chip: 3,
            technique: RejuvenationTechnique::Combined,
            period: None,
            horizon: None,
        });
        match response {
            Response::Plan { chip, plan, .. } => {
                assert_eq!(chip, 3);
                assert!(plan.is_some(), "a barely-aged chip must still be plannable");
            }
            other => panic!("expected a plan reply, got {other:?}"),
        }
    }

    #[test]
    fn predict_projects_forward_without_mutating() {
        let mut daemon = tiny_daemon();
        daemon.advance_epoch();
        let before = daemon.state().state_digest();
        let response = daemon.handle(&Request::Predict {
            chip: 0,
            dt: Seconds::new(86_400.0),
        });
        match response {
            Response::Predict {
                current, projected, ..
            } => assert!(projected >= current, "aging forward cannot shrink ΔVth"),
            other => panic!("expected a predict reply, got {other:?}"),
        }
        assert_eq!(daemon.state().state_digest(), before);
    }

    #[test]
    fn unknown_chips_get_structured_errors() {
        let mut daemon = tiny_daemon();
        for request in [
            Request::Plan {
                chip: 99,
                technique: RejuvenationTechnique::Combined,
                period: None,
                horizon: None,
            },
            Request::Predict {
                chip: 99,
                dt: Seconds::new(1.0),
            },
            Request::Report {
                chip: 99,
                duty: DutyCycle::new(0.5),
            },
        ] {
            match daemon.handle(&request) {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownChip),
                other => panic!("expected an error, got {other:?}"),
            }
        }
        assert_eq!(daemon.requests_served(), 3);
    }

    #[test]
    fn tiered_daemon_serves_every_request_type_read_only() {
        let mut config = FleetConfig::default();
        config.chips = 12;
        config.shards = 3;
        config.seed = 11;
        config.trap_params.mean_trap_count = 8.0;
        config.tiered = true;
        let mut daemon = FleetDaemon::new(config, ResultCache::disabled(), 0);
        daemon.advance_epoch();
        assert!(
            daemon.state().tier_counts().cold > 0,
            "an hour-old tiered fleet must have cold chips"
        );
        let cold_chip = (0..12u64)
            .find(|&c| {
                daemon
                    .state()
                    .chip_tier(c as usize)
                    .is_some_and(|t| t.is_cold())
            })
            .expect("some chip is cold");

        // Plan and predict against a cold chip leave the state untouched.
        let before = daemon.state().state_digest();
        match daemon.handle(&Request::Plan {
            chip: cold_chip,
            technique: RejuvenationTechnique::Combined,
            period: None,
            horizon: None,
        }) {
            Response::Plan { consumed, plan, .. } => {
                assert!(consumed.get() > 0.0);
                assert!(plan.is_some(), "a barely-aged cold chip is plannable");
            }
            other => panic!("expected a plan reply, got {other:?}"),
        }
        match daemon.handle(&Request::Predict {
            chip: cold_chip,
            dt: Seconds::new(86_400.0),
        }) {
            Response::Predict {
                current, projected, ..
            } => assert!(projected >= current),
            other => panic!("expected a predict reply, got {other:?}"),
        }
        assert_eq!(daemon.state().state_digest(), before, "plan/predict are reads");

        // A report pins the chip hot and is visible in stats.
        match daemon.handle(&Request::Report {
            chip: cold_chip,
            duty: DutyCycle::new(0.4),
        }) {
            Response::Report { .. } => {}
            other => panic!("expected a report reply, got {other:?}"),
        }
        assert!(daemon
            .state()
            .chip_tier(cold_chip as usize)
            .is_some_and(|t| t == selfheal_bti::td::ChipTier::Pinned));
        match daemon.handle(&Request::Stats) {
            Response::Stats(stats) => assert!(stats.mean_delta_vth.get() > 0.0),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn debug_dump_writes_the_flight_ring_and_reports_the_path() {
        let mut daemon = tiny_daemon();
        daemon.advance_epoch();

        // Without a configured path the dump is a counted no-op.
        let previous = flight::dump_path();
        flight::set_dump_path(None);
        match daemon.handle(&Request::DebugDump) {
            Response::DebugDump { path, .. } => assert_eq!(path, None),
            other => panic!("expected a debug-dump reply, got {other:?}"),
        }

        // With a path, the retained ring lands on disk as JSONL.
        let target = std::env::temp_dir().join(format!(
            "selfheal-daemon-flight-{}.jsonl",
            std::process::id()
        ));
        flight::set_dump_path(Some(target.clone()));
        flight::record("lifecycle", "test-marker", String::new);
        match daemon.handle(&Request::DebugDump) {
            Response::DebugDump { events, path } => {
                assert!(events > 0, "the epoch marker alone fills the ring");
                assert_eq!(path.as_deref(), Some(target.display().to_string().as_str()));
            }
            other => panic!("expected a debug-dump reply, got {other:?}"),
        }
        let text = std::fs::read_to_string(&target).expect("dump file exists");
        assert!(text.lines().count() > 0);
        let _ = std::fs::remove_file(&target);
        flight::set_dump_path(previous);
    }

    #[test]
    fn stats_reflect_the_fleet() {
        let mut daemon = tiny_daemon();
        daemon.advance_epoch();
        match daemon.handle(&Request::Stats) {
            Response::Stats(stats) => {
                assert_eq!(stats.chips, 12);
                assert_eq!(stats.shards, 3);
                assert_eq!(stats.epoch, 1);
                assert!(stats.mean_delta_vth.get() > 0.0);
                assert!(stats.worst_delta_vth >= stats.mean_delta_vth);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }
}
