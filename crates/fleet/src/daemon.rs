//! The daemon core: request handling against live fleet state.
//!
//! [`FleetDaemon`] is transport-free — it maps typed [`Request`]s to
//! typed [`Response`]s against a [`FleetState`] and writes a checkpoint
//! under a [`ResultCache`]'s root on a fixed epoch cadence. The socket
//! front end ([`crate::server`]) and the determinism tests drive the
//! exact same entry points, which is what makes "kill, resume, replay"
//! provable: the daemon's behaviour is a pure function of (config, seed,
//! request history, epoch schedule).

use selfheal::SchedulePlanner;
use selfheal_bti::DeviceCondition;
use selfheal_runtime::ResultCache;
use selfheal_telemetry::{counter, flight, gauge};
use selfheal_units::Millivolts;

use crate::checkpoint::{self, CheckpointError, ImageStatus};
use crate::config::FleetConfig;
use crate::proto::{ErrorCode, Request, Response, StatsReply};
use crate::state::FleetState;

/// The most day/night cycles one `plan` request may span
/// (`horizon / period`, rounded up); longer plans are refused as
/// `bad-request`.
///
/// Each probe of the planner walks every trap of the chip's slice
/// through every phase of the horizon, and a plan takes up to 44 probes
/// (α = 64 and α = 0.5 plain, then the same two and 40 bisection steps
/// recover-first), so an unbounded count lets one request hold the
/// daemon lock indefinitely. A year of daily cycles is 365; at the cap,
/// the slowest plan on a 40-trap slice held the lock for about 20–22 ms
/// on a 2-vCPU x86-64 host (roughly 0.26 µs per trap and cycle across
/// all probes).
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
    /// Why the checkpoint found at start-up was refused, if one was.
    refused_checkpoint: Option<String>,
    /// Where a resumed fleet's trap constants came from; `None` unless
    /// the daemon resumed.
    image: Option<ImageStatus>,
}

impl FleetDaemon {
    /// Builds a fresh fleet (no resume attempt).
    #[must_use]
    pub fn new(config: FleetConfig, cache: ResultCache, checkpoint_every: u64) -> FleetDaemon {
        FleetDaemon::serving(FleetState::build(config), cache, checkpoint_every)
    }

    /// Resumes from the newest checkpoint when one exists, otherwise
    /// builds fresh. The `bool` reports whether a resume happened. A
    /// checkpoint that exists but is refused (unreadable, or not this
    /// fleet's) leaves a `checkpoint`/`refused` flight record naming the
    /// reason before the fresh build, and the reason stays readable from
    /// [`refused_checkpoint`](Self::refused_checkpoint). A resume that
    /// refused the fleet image leaves an `image`/`refused` record, and
    /// [`image_status`](Self::image_status) says how it came by the trap
    /// constants.
    #[must_use]
    pub fn resume_or_new(
        config: FleetConfig,
        cache: ResultCache,
        checkpoint_every: u64,
    ) -> (FleetDaemon, bool) {
        match checkpoint::resume(&cache, &config) {
            Ok((state, image)) => {
                if let ImageStatus::Refused(err) = &image {
                    flight::record("image", "refused", || err.to_string());
                }
                let mut daemon = FleetDaemon::serving(state, cache, checkpoint_every);
                daemon.image = Some(image);
                (daemon, true)
            }
            Err(err) => {
                let mut daemon =
                    FleetDaemon::serving(FleetState::build(config), cache, checkpoint_every);
                if !matches!(err, CheckpointError::Missing) {
                    let reason = err.to_string();
                    flight::record("checkpoint", "refused", || reason.clone());
                    daemon.refused_checkpoint = Some(reason);
                }
                (daemon, false)
            }
        }
    }

    fn serving(state: FleetState, cache: ResultCache, checkpoint_every: u64) -> FleetDaemon {
        let config = state.config();
        FleetDaemon {
            planner: SchedulePlanner::with_default_models(config.active_env, config.margin),
            state,
            cache,
            checkpoint_every,
            requests_served: 0,
            refused_checkpoint: None,
            image: None,
        }
    }

    /// Why [`resume_or_new`](Self::resume_or_new) refused the checkpoint
    /// it found, or `None` when it resumed, found none, or was not used.
    /// The next save overwrites the refused file, so this is the last
    /// place the reason survives outside the flight recorder.
    #[must_use]
    pub fn refused_checkpoint(&self) -> Option<&str> {
        self.refused_checkpoint.as_deref()
    }

    /// Whether [`resume_or_new`](Self::resume_or_new) read the trap
    /// constants from the fleet image or re-sampled them (and why);
    /// `None` when it did not resume.
    #[must_use]
    pub fn image_status(&self) -> Option<&ImageStatus> {
        self.image.as_ref()
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

    /// Moves the fleet clock one epoch in O(1) and refreshes the epoch
    /// gauges; the shards catch up later, through [`sweep`](Self::sweep)
    /// or the requests that touch them. On a checkpoint-cadence epoch
    /// every shard catches up and the checkpoint is saved in the same
    /// call, so a cadence save holds exactly the epoch it names.
    pub fn tick(&mut self) {
        self.state.tick();
        let epoch = self.state.epoch();
        flight::record("epoch", "advance", || {
            format!("epoch={epoch} sim_s={}", self.state.sim_time().get())
        });
        if self.checkpoint_every > 0 && epoch.is_multiple_of(self.checkpoint_every) {
            self.sweep(usize::MAX);
            if checkpoint::save(&self.cache, &self.state) {
                counter!("fleet.checkpoints", 1);
                flight::record("checkpoint", "save", || {
                    format!("epoch={epoch} digest={:016x}", self.state.state_digest())
                });
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let epoch_f = epoch as f64;
        gauge!("fleet.epoch", epoch_f);
        gauge!("fleet.sim_hours", self.state.sim_time().get() / 3_600.0);
    }

    /// Catches up at most `limit` lagging shards and returns how many
    /// still lag.
    pub fn sweep(&mut self, limit: usize) -> usize {
        self.state.catch_up(limit)
    }

    /// Advances one whole epoch: a [`tick`](Self::tick), then a sweep of
    /// every shard.
    pub fn advance_epoch(&mut self) {
        self.tick();
        self.sweep(usize::MAX);
    }

    /// Writes a final checkpoint (shutdown path). Returns `false` when
    /// the cache is disabled or the write failed.
    #[allow(clippy::must_use_candidate)] // called for its side effect; the result is optional
    pub fn final_checkpoint(&self) -> bool {
        checkpoint::save(&self.cache, &self.state)
    }

    /// Answers one request against the live state. The shard of the
    /// chip a `plan`, `predict` or `report` names catches up first, and
    /// `stats` catches up every shard, so each reply is the one an eager
    /// epoch would have given.
    pub fn handle(&mut self, request: &Request) -> Response {
        self.requests_served += 1;
        match request {
            Request::Plan { chip, .. }
            | Request::Predict { chip, .. }
            | Request::Report { chip, .. } => {
                let chip_index = usize::try_from(*chip).unwrap_or(usize::MAX);
                if self.state.catch_up_chip(chip_index) {
                    counter!("fleet.request.catch_ups", 1);
                }
            }
            Request::Stats => {
                self.state.catch_up(usize::MAX);
            }
            Request::DebugDump | Request::Shutdown => {}
        }
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
        let (Some((shard, traps)), Some(duty)) = (
            self.state.chip_view(chip_index),
            self.state.chip_duty(chip_index),
        ) else {
            return unknown_chip(chip);
        };
        let consumed = shard.bank.delta_vth_range(traps.clone());
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
        // The plan runs the chip's own trap slice forward under its
        // reported duty, like `predict`; the state is untouched.
        let plan =
            self.planner
                .plan_from_bank(&shard.bank, traps, duty, technique, period, horizon);
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
        let duty = self.state.chip_duty(chip_index).unwrap_or_default();
        let cond = DeviceCondition::new(self.state.config().active_env, duty);
        // The projection reads the chip's live trap slice in place; the
        // state itself is untouched.
        let Some((shard, traps)) = self.state.chip_view(chip_index) else {
            return unknown_chip(chip);
        };
        let projected = self
            .planner
            .predicted_shift_from_bank(&shard.bank, traps, cond, dt);
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
    fn plan_and_predict_project_forward_without_mutating() {
        let mut daemon = tiny_daemon();
        daemon.advance_epoch();
        let before = daemon.state().state_digest();
        match daemon.handle(&Request::Plan {
            chip: 0,
            technique: RejuvenationTechnique::Combined,
            period: None,
            horizon: None,
        }) {
            Response::Plan { consumed, .. } => assert!(consumed.get() > 0.0),
            other => panic!("expected a plan reply, got {other:?}"),
        }
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
                assert!(events > 0, "the marker recorded once the path was set");
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

    /// A checkpoint that exists but is damaged is refused, and the
    /// daemon starts from a fresh fleet.
    #[test]
    fn a_truncated_checkpoint_starts_a_fresh_fleet() {
        let root =
            std::env::temp_dir().join(format!("selfheal-daemon-truncated-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = ResultCache::at(root.clone());
        let config = tiny_daemon().state().config().clone();
        let mut aged = FleetDaemon::new(config.clone(), cache.clone(), 0);
        aged.advance_epoch();
        assert!(aged.final_checkpoint());
        let (resumed, was_resumed) = FleetDaemon::resume_or_new(config.clone(), cache.clone(), 0);
        assert!(was_resumed);
        assert_eq!(resumed.state().epoch(), 1);
        let dir = root.join(checkpoint::CHECKPOINT_NAMESPACE);
        for entry in std::fs::read_dir(dir)
            .expect("checkpoint directory")
            .flatten()
        {
            let bytes = std::fs::read(entry.path()).expect("checkpoint readable");
            std::fs::write(entry.path(), &bytes[..bytes.len() / 2]).expect("checkpoint writable");
        }
        assert_eq!(resumed.refused_checkpoint(), None);
        let (fresh, was_resumed) = FleetDaemon::resume_or_new(config.clone(), cache, 0);
        assert!(!was_resumed);
        let reason = fresh.refused_checkpoint().expect("the refusal is kept");
        assert!(reason.contains("unreadable"), "{reason}");
        assert_eq!(fresh.state().epoch(), 0);
        assert_eq!(
            fresh.state().state_digest(),
            FleetState::build(config).state_digest()
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
