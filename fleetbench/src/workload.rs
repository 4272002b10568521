//! The three workloads and the seeded request streams they send.
//!
//! Every stream is a pure function of `(seed, workload, connection,
//! phase)`. Connection `c` of the two only ever addresses chips whose id
//! is `c` modulo 2, so every reply except `stats` depends only on that
//! connection's own history — which is what lets the oracle replay one
//! connection's log in isolation.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::Rng;
use selfheal::RejuvenationTechnique;
use selfheal_fleet::{FleetConfig, FleetDaemon, Request};
use selfheal_runtime::SeedSequence;
use selfheal_units::{DutyCycle, Seconds};

/// Connections (and load-generator threads) per run: `nproc` of the
/// 2-vCPU host the baselines were taken on.
pub const CONNECTIONS: usize = 2;

/// The four request kinds the mix draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `plan`: a bisection over the analytic cycle model.
    Plan,
    /// `predict`: a projection of one chip's trap slice.
    Predict,
    /// `report`: a duty-cycle write.
    Report,
    /// `stats`: an O(fleet) scan plus the state digest.
    Stats,
}

impl Kind {
    /// Every kind, in the order of [`Kind::index`].
    pub const ALL: [Kind; 4] = [Kind::Plan, Kind::Predict, Kind::Report, Kind::Stats];

    /// The wire name (as [`Request::kind`] spells it).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Plan => "plan",
            Kind::Predict => "predict",
            Kind::Report => "report",
            Kind::Stats => "stats",
        }
    }

    /// Position in [`Kind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The kind of a request this benchmark sends.
    #[must_use]
    pub fn of(request: &Request) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == request.kind())
    }
}

/// Which plan inputs a workload draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanInputs {
    /// `combined` with the daemon's default period and horizon: every plan
    /// shares one (technique, period, horizon).
    Shared,
    /// Technique from all four, period from {12, 24, 48} h and horizon
    /// from {7, 30} d: plan inputs share little. At most 60 cycles per
    /// simulated rhythm: 6 h periods over 90 d (up to 360) made bisections
    /// of 5–15 ms about 1 % of `epoch_churn`'s requests, so its p99 sat
    /// on that population's edge and jumped between 10 and 21 ms across
    /// seeds instead of measuring the waits behind epoch advances.
    Varied,
}

/// How the benchmark checks the replies of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Epochs are frozen: replay every `report` and a sample of
    /// `plan`/`predict` in-process and compare the replies byte for byte.
    Replay,
    /// Epochs advance on the wall clock: structural checks only.
    Structural,
}

/// One workload: a fleet, an epoch cadence, a request mix and a rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Chips in the fleet (the smoke run shrinks aged fleets to 1024).
    pub chips: usize,
    /// Shards the fleet is split into.
    pub shards: usize,
    /// Mean traps per chip.
    pub traps: f64,
    /// Epochs the fleet is aged in-process (see [`Workload::prepare`])
    /// before `fleetd` resumes it from the checkpoint; 0 serves a fresh
    /// fleet with no checkpoint store.
    pub aged_epochs: u64,
    /// Wall-clock epoch cadence of the daemon; 0 freezes epochs.
    pub epoch_ms: u64,
    /// Percent weights of plan, predict, report and stats.
    pub mix: [u32; 4],
    /// The plan inputs drawn.
    pub plan_inputs: PlanInputs,
    /// Requests per second offered in the paced phase (both connections).
    pub rate: f64,
    /// Latency limit a paced request must meet, in milliseconds.
    pub limit_ms: f64,
    /// How replies are checked.
    pub oracle: Oracle,
}

/// The repository benchmark's workloads.
#[must_use]
pub fn all() -> Vec<Workload> {
    let aged = Workload {
        name: "aged_storm",
        chips: 50_000,
        shards: 64,
        traps: 8.0,
        aged_epochs: 48,
        epoch_ms: 0,
        mix: [60, 25, 13, 2],
        plan_inputs: PlanInputs::Shared,
        rate: 400.0,
        limit_ms: 25.0,
        oracle: Oracle::Replay,
    };
    vec![
        aged.clone(),
        Workload {
            name: "epoch_churn",
            epoch_ms: 50,
            mix: [20, 40, 40, 0],
            plan_inputs: PlanInputs::Varied,
            // Each epoch sweeps ~10 MB of trap state. At 300 req/s only a
            // handful of requests fell between two sweeps, and `p50_ms`
            // flipped between 0.09 and 0.14 ms across seeds (21 % spread);
            // at 1500 req/s it held within 6 %.
            rate: 1500.0,
            oracle: Oracle::Structural,
            ..aged
        },
        Workload {
            name: "wire_small",
            chips: 1024,
            shards: 8,
            traps: 16.0,
            aged_epochs: 0,
            epoch_ms: 0,
            mix: [0, 50, 45, 5],
            plan_inputs: PlanInputs::Shared,
            rate: 1000.0,
            limit_ms: 2.0,
            oracle: Oracle::Replay,
        },
    ]
}

impl Workload {
    /// The fleet configuration both `fleetd` and the in-process oracle
    /// build; `seed` is the run's `--seed`.
    #[must_use]
    pub fn fleet_config(&self, seed: u64) -> FleetConfig {
        let mut config = FleetConfig {
            chips: self.chips,
            shards: self.shards,
            seed,
            ..FleetConfig::default()
        };
        config.trap_params.mean_trap_count = self.traps;
        config
    }

    /// The same fleet at the smoke size.
    #[must_use]
    pub fn smoke(mut self) -> Workload {
        if self.chips > 1024 {
            self.chips = 1024;
            self.shards = 8;
        }
        self
    }

    /// Brings a freshly built daemon to the state the workload serves:
    /// `aged_epochs` epochs of DC stress, after which (for an aged fleet)
    /// every chip reports a duty from [`duty`]'s grid. With every grid
    /// duty already on file in every shard, later reports add no new
    /// operating condition, so an epoch costs the same at the end of a
    /// run as at its start.
    pub fn prepare(&self, daemon: &mut FleetDaemon) {
        if self.aged_epochs == 0 {
            return;
        }
        for _ in 0..self.aged_epochs {
            daemon.advance_epoch();
        }
        for chip in 0..self.chips as u64 {
            daemon.handle(&Request::Report {
                chip,
                duty: duty(chip % DUTY_STEPS),
            });
        }
    }
}

/// Reported duty cycles are whole multiples of 5 %: 5 % to 95 %.
const DUTY_STEPS: u64 = 19;

/// The `step`-th reportable duty cycle (`step < 19`).
fn duty(step: u64) -> DutyCycle {
    #[allow(clippy::cast_precision_loss)]
    DutyCycle::new(0.05 * (step + 1) as f64)
}

/// A connection's request source for one phase.
///
/// Kinds are dealt from a shuffled deck holding the mix exactly (one
/// card per percent), so any 100 consecutive requests carry the exact
/// mix: a second of load never holds twice the usual number of O(fleet)
/// `stats` scans by chance.
#[derive(Debug)]
pub struct Generator {
    rng: StdRng,
    connection: u64,
    /// Chips this connection owns: ids `connection + 2k` for `k < owned`.
    owned: u64,
    mix: [u32; 4],
    deck: Vec<Kind>,
    plan_inputs: PlanInputs,
}

/// Phases get disjoint streams from one connection's seed sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Closed loop at saturation.
    Saturate,
    /// Open loop at the workload's rate.
    Paced,
    /// Requests of one kind, for per-layer probes of kinds the mix lacks.
    Probe,
}

impl Generator {
    /// The stream of `connection` in `phase` of a run seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `connection` owns no chip of the workload's fleet.
    #[must_use]
    pub fn new(workload: &Workload, seed: u64, connection: usize, phase: Phase) -> Generator {
        let connection = connection as u64;
        let chips = workload.chips as u64;
        let owned = (chips + 1 - connection) / 2;
        assert!(owned > 0, "connection {connection} owns no chip");
        Generator {
            rng: SeedSequence::new(seed).child(connection).rng(phase as u64),
            connection,
            owned,
            mix: workload.mix,
            deck: Vec::new(),
            plan_inputs: workload.plan_inputs,
        }
    }

    /// A generator that only ever draws `kind`.
    #[must_use]
    pub fn only(mut self, kind: Kind) -> Generator {
        self.mix = [0; 4];
        self.mix[kind.index()] = 1;
        self
    }

    fn next_kind(&mut self) -> Kind {
        if self.deck.is_empty() {
            for kind in Kind::ALL {
                self.deck
                    .extend(std::iter::repeat_n(kind, self.mix[kind.index()] as usize));
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("the mix has at least one card")
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> Request {
        let kind = self.next_kind();
        let chip = self.connection + 2 * self.rng.gen_range(0..self.owned);
        match kind {
            Kind::Plan => {
                let (technique, period, horizon) = match self.plan_inputs {
                    PlanInputs::Shared => (RejuvenationTechnique::Combined, None, None),
                    PlanInputs::Varied => {
                        let technique = RejuvenationTechnique::ALL[self.rng.gen_range(0..4usize)];
                        let hours = [12.0, 24.0, 48.0][self.rng.gen_range(0..3usize)];
                        let days = [7.0, 30.0][self.rng.gen_range(0..2usize)];
                        (
                            technique,
                            Some(Seconds::new(hours * 3_600.0)),
                            Some(Seconds::new(days * 86_400.0)),
                        )
                    }
                };
                Request::Plan {
                    chip,
                    technique,
                    period,
                    horizon,
                }
            }
            Kind::Predict => Request::Predict {
                chip,
                dt: Seconds::new(86_400.0),
            },
            Kind::Report => Request::Report {
                chip,
                duty: duty(self.rng.gen_range(0..DUTY_STEPS)),
            },
            Kind::Stats => Request::Stats,
        }
    }

    /// An open-loop schedule: Poisson arrivals at `rate` per second for
    /// `length`, each with its due offset from the phase start.
    pub fn schedule(&mut self, rate: f64, length: Duration) -> Vec<(Duration, Request)> {
        let mut due = 0.0;
        let mut out = Vec::new();
        loop {
            let uniform: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            due += -uniform.ln() / rate;
            if due >= length.as_secs_f64() {
                return out;
            }
            out.push((Duration::from_secs_f64(due), self.next_request()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aged() -> Workload {
        all().remove(0)
    }

    fn chip_of(request: &Request) -> Option<u64> {
        match request {
            Request::Plan { chip, .. }
            | Request::Predict { chip, .. }
            | Request::Report { chip, .. } => Some(*chip),
            _ => None,
        }
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let w = aged();
        let length = Duration::from_secs(2);
        let a = Generator::new(&w, 7, 0, Phase::Paced).schedule(w.rate, length);
        let b = Generator::new(&w, 7, 0, Phase::Paced).schedule(w.rate, length);
        let c = Generator::new(&w, 8, 0, Phase::Paced).schedule(w.rate, length);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn connections_own_disjoint_chip_sets() {
        for w in all() {
            for connection in 0..CONNECTIONS {
                let mut generator = Generator::new(&w, 3, connection, Phase::Saturate);
                for _ in 0..5_000 {
                    if let Some(chip) = chip_of(&generator.next_request()) {
                        assert_eq!(chip % 2, connection as u64, "{}", w.name);
                        assert!(chip < w.chips as u64, "{}", w.name);
                    }
                }
            }
        }
    }

    #[test]
    fn mix_shares_hold_within_two_percent() {
        for w in all() {
            let mut generator = Generator::new(&w, 11, 1, Phase::Paced);
            let mut counts = [0u32; 4];
            let draws = 10_000;
            for _ in 0..draws {
                let kind = Kind::of(&generator.next_request()).expect("a mix kind");
                counts[kind.index()] += 1;
            }
            for kind in Kind::ALL {
                let share = f64::from(counts[kind.index()]) / f64::from(draws);
                let want = f64::from(w.mix[kind.index()]) / 100.0;
                assert!(
                    (share - want).abs() <= 0.02,
                    "{} {}: {share} vs {want}",
                    w.name,
                    kind.name()
                );
            }
        }
    }
}
