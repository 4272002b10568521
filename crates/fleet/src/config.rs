//! Fleet sizing, seeding and operating-point configuration.
//!
//! Everything a daemon needs to *rebuild* its fleet deterministically
//! lives here: the chip count, the shard count, the base seed and the
//! trap-ensemble parameters. The checkpoint format exploits this — a
//! snapshot only stores the mutable state (occupancies, reported duty
//! cycles), because the immutable trap constants regenerate bit-exactly
//! from [`FleetConfig::seed`].

use selfheal_bti::td::TrapEnsembleParams;
use selfheal_bti::Environment;
use selfheal_units::{Millivolts, Seconds};

use crate::slo::SloObjective;

/// The full description of a fleet and its operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of simulated chips in the fleet.
    pub chips: usize,
    /// Number of shards the fleet is partitioned into. Each shard owns a
    /// contiguous block of chips inside one [`TrapBank`] and advances
    /// independently on the pool.
    ///
    /// [`TrapBank`]: selfheal_bti::td::TrapBank
    pub shards: usize,
    /// Base seed; shard `s` samples its chips from
    /// `SeedSequence::new(seed).child(s)`.
    pub seed: u64,
    /// Per-chip trap ensemble statistics.
    pub trap_params: TrapEnsembleParams,
    /// The nominal active operating point chips age under.
    pub active_env: Environment,
    /// The total threshold-shift budget per chip.
    pub margin: Millivolts,
    /// Simulated time each epoch advances the whole fleet by.
    pub epoch_dt: Seconds,
    /// Default circadian period for `PLAN` requests that omit one.
    pub period: Seconds,
    /// Default planning horizon for `PLAN` requests that omit one.
    pub horizon: Seconds,
    /// Latency objectives evaluated each epoch (e.g. `plan:p99<500us`).
    /// Pure observability: deliberately absent from
    /// [`cache_key`](Self::cache_key), so SLOs never invalidate
    /// checkpoints or perturb the state trajectory.
    pub slos: Vec<SloObjective>,
}

impl Default for FleetConfig {
    /// A small-but-realistic fleet: 1024 chips at the paper's 90 °C
    /// accelerated operating point, one simulated hour per epoch,
    /// day-long rhythms planned over a 30-day horizon.
    fn default() -> Self {
        // Fleet-scale default: fewer traps per chip than the single-chip
        // studies so a 100k-chip fleet stays within tens of megabytes.
        let trap_params = TrapEnsembleParams {
            mean_trap_count: 16.0,
            ..TrapEnsembleParams::default()
        };
        FleetConfig {
            chips: 1024,
            shards: 8,
            seed: 2014,
            trap_params,
            active_env: Environment::new(
                selfheal_units::Volts::new(1.2),
                selfheal_units::Celsius::new(90.0),
            ),
            margin: Millivolts::new(30.0),
            epoch_dt: Seconds::new(3_600.0),
            period: Seconds::new(86_400.0),
            horizon: Seconds::new(30.0 * 86_400.0),
            slos: Vec::new(),
        }
    }
}

impl FleetConfig {
    /// Validates the configuration, returning the first problem found.
    ///
    /// # Errors
    ///
    /// Returns `Err` for an empty fleet, a shard count of zero or larger
    /// than the chip count, a margin or time step that is not finite
    /// and positive, two SLOs on the same kind
    /// and quantile label (they would publish the same gauges), or
    /// invalid trap-ensemble parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.chips == 0 {
            return Err("fleet must contain at least one chip".into());
        }
        if self.shards == 0 || self.shards > self.chips {
            return Err(format!(
                "shard count must be in 1..={} (got {})",
                self.chips, self.shards
            ));
        }
        // NaN fails every comparison and +∞ passes `> 0.0`, so neither a
        // `<= 0.0` rejection nor a `> 0.0` test alone keeps them out.
        let finite_positive = |x: f64| x.is_finite() && x > 0.0;
        if !finite_positive(self.margin.get()) {
            return Err("margin must be finite and positive".into());
        }
        if ![self.epoch_dt, self.period, self.horizon]
            .iter()
            .all(|t| finite_positive(t.get()))
        {
            return Err("epoch_dt, period and horizon must be finite and positive".into());
        }
        for (at, slo) in self.slos.iter().enumerate() {
            // Re-parsing the canonical spelling catches objectives built
            // by hand with out-of-range quantiles or targets.
            SloObjective::parse(&slo.render())
                .map_err(|e| format!("invalid SLO {:?}: {e}", slo.render()))?;
            let same_gauges = |o: &&SloObjective| o.kind == slo.kind && o.label == slo.label;
            if let Some(earlier) = self.slos[..at].iter().find(same_gauges) {
                return Err(format!(
                    "duplicate SLO {}:{}: {:?} and {:?} would publish the same gauges",
                    slo.kind,
                    slo.label,
                    earlier.render(),
                    slo.render()
                ));
            }
        }
        self.trap_params.validate()
    }

    /// A canonical string of every field that determines fleet state —
    /// the cache key prefix for checkpoints. Two configs with equal keys
    /// rebuild bit-identical fleets.
    #[must_use]
    pub fn cache_key(&self) -> String {
        let p = &self.trap_params;
        format!(
            "chips={};shards={};seed={};traps={:?}x{:?}mv;tauc={:?}..{:?};ratio={:?}..{:?};perm={:?};\
             env={:?}V@{:?}K;margin={:?};dt={:?};period={:?};horizon={:?}",
            self.chips,
            self.shards,
            self.seed,
            p.mean_trap_count,
            p.delta_vth_mean_mv.get(),
            p.log10_tau_c_range.0,
            p.log10_tau_c_range.1,
            p.log10_tau_ratio_range.0,
            p.log10_tau_ratio_range.1,
            p.permanent_fraction,
            self.active_env.supply().get(),
            self.active_env.temperature().get(),
            self.margin.get(),
            self.epoch_dt.get(),
            self.period.get(),
            self.horizon.get(),
        )
    }

    /// The contiguous chip range shard `shard` owns. Chips are dealt in
    /// balanced blocks: the first `chips % shards` shards hold one extra.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards`.
    #[must_use]
    pub fn shard_chip_range(&self, shard: usize) -> std::ops::Range<usize> {
        assert!(shard < self.shards, "shard index out of range");
        let base = self.chips / self.shards;
        let extra = self.chips % self.shards;
        let start = shard * base + shard.min(extra);
        let len = base + usize::from(shard < extra);
        start..start + len
    }

    /// The shard that owns global chip `chip`, or `None` past the fleet.
    #[must_use]
    pub fn shard_of_chip(&self, chip: usize) -> Option<usize> {
        if chip >= self.chips {
            return None;
        }
        let base = self.chips / self.shards;
        let extra = self.chips % self.shards;
        let boundary = extra * (base + 1);
        Some(if chip < boundary {
            chip / (base + 1)
        } else {
            extra + (chip - boundary) / base
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert_eq!(FleetConfig::default().validate(), Ok(()));
    }

    #[test]
    fn shard_ranges_tile_the_fleet() {
        for (chips, shards) in [(7, 3), (8, 3), (1, 1), (100, 100), (1024, 8)] {
            let config = FleetConfig {
                chips,
                shards,
                ..FleetConfig::default()
            };
            let mut next = 0;
            for s in 0..shards {
                let range = config.shard_chip_range(s);
                assert_eq!(range.start, next, "shard {s} must continue the tiling");
                assert!(!range.is_empty(), "no shard may be empty");
                for chip in range.clone() {
                    assert_eq!(config.shard_of_chip(chip), Some(s));
                }
                next = range.end;
            }
            assert_eq!(next, chips, "shards must cover every chip");
            assert_eq!(config.shard_of_chip(chips), None);
        }
    }

    #[test]
    fn cache_key_tracks_state_determining_fields() {
        let base = FleetConfig::default();
        let mut reseeded = base.clone();
        reseeded.seed ^= 1;
        assert_ne!(base.cache_key(), reseeded.cache_key());
        assert_eq!(base.cache_key(), base.clone().cache_key());

        // SLOs are observability-only: they must NOT key checkpoints.
        let mut with_slo = base.clone();
        with_slo.slos = vec![SloObjective::parse("plan:p99<500us").expect("parses")];
        assert_eq!(base.cache_key(), with_slo.cache_key());
        assert_eq!(with_slo.validate(), Ok(()));
    }

    #[test]
    fn hand_built_slos_are_validated() {
        let mut config = FleetConfig::default();
        config.slos = vec![SloObjective {
            kind: "plan".into(),
            quantile: 0.99,
            label: "p99".into(),
            target_us: -4.0,
        }];
        assert!(config.validate().is_err(), "negative target must fail");
    }

    #[test]
    fn duplicate_slo_objectives_are_rejected() {
        let parse = |text: &str| SloObjective::parse(text).expect("parses");
        let mut config = FleetConfig::default();
        config.slos = vec![
            parse("plan:p99<500us"),
            parse("plan:p50<1ms"),
            parse("stats:p99<1ms"),
        ];
        assert_eq!(
            config.validate(),
            Ok(()),
            "same kind or same label alone is fine"
        );
        config.slos.push(parse("plan:p99<1ms"));
        let err = config
            .validate()
            .expect_err("same kind and label must fail");
        assert!(err.contains("duplicate SLO plan:p99"), "{err}");
    }

    #[test]
    fn non_finite_fields_are_rejected() {
        type Setter = fn(&mut FleetConfig, f64);
        let fields: [(&str, Setter); 4] = [
            ("margin", |c, x| c.margin = Millivolts::new(x)),
            ("epoch_dt", |c, x| c.epoch_dt = Seconds::new(x)),
            ("period", |c, x| c.period = Seconds::new(x)),
            ("horizon", |c, x| c.horizon = Seconds::new(x)),
        ];
        for (name, set) in fields {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut config = FleetConfig::default();
                set(&mut config, bad);
                assert!(
                    config.validate().is_err(),
                    "{name} = {bad} must be rejected"
                );
            }
        }
    }
}
