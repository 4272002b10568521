//! Bit-exact checkpoint/resume through the content-addressed cache.
//!
//! A checkpoint stores only what a seed rebuild cannot regenerate: the
//! occupancy vector of every shard bank, every reported duty cycle, the
//! epoch counter and the mutation-digest chain. Trap constants (τ
//! values, step sizes, permanence) are *not* stored — they come back
//! bit-identically from [`FleetConfig::seed`], which keeps a 100k-chip
//! snapshot at one `f64` per trap instead of six.
//!
//! Storage uses [`ResultCache::store_record`]/[`ResultCache::load_record`] (the
//! checkpoint-store entry points, not the memo table): each save
//! atomically overwrites the one snapshot record under a per-config key,
//! so a fleet keeps exactly one checkpoint file. The key carries no
//! epoch or digest — [`FleetCheckpoint::restore`] re-verifies the
//! recorded state digest, so a snapshot that does not reproduce its own
//! state never resumes.

use selfheal_bti::td::{ChipTier, ColdChip, KERNEL_VERSION};
use selfheal_runtime::{CacheRecord, ResultCache};
use selfheal_telemetry::Json;
use selfheal_units::Millivolts;

use crate::config::FleetConfig;
use crate::state::FleetState;

/// Cache namespace for fleet checkpoints.
pub const CHECKPOINT_NAMESPACE: &str = "fleet-checkpoint";
/// Checkpoint format version (bumped on layout changes; the kernel
/// version rides in the key so kernel changes also invalidate).
/// Version 2 added per-chip integration tiers + cold-chip analytic
/// state for tiered fleets. Version 3 records the state digest built
/// from per-shard digests (see [`FleetState::state_digest`]), which a
/// version-2 snapshot's recorded digest can never match.
pub const CHECKPOINT_VERSION: u32 = 3;

/// A full mutable-state snapshot of a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    /// Completed epochs at capture time.
    pub epoch: u64,
    /// The mutation-digest chain at capture time.
    pub mutation_digest: u64,
    /// [`FleetState::state_digest`] at capture time, re-verified after
    /// restore.
    pub state_digest: u64,
    /// Per-shard occupancy vectors, in shard order.
    pub occupancies: Vec<Vec<f64>>,
    /// Per-shard reported duty cycles, in chip order.
    pub duties: Vec<Vec<f64>>,
    /// Per-shard chip tiers (with cold chips' analytic anchor and wake
    /// epoch), in chip order. All-hot in an untiered fleet.
    pub tiers: Vec<Vec<ChipTier>>,
}

impl FleetCheckpoint {
    /// Captures the mutable state of `fleet`.
    #[must_use]
    pub fn capture(fleet: &FleetState) -> FleetCheckpoint {
        FleetCheckpoint {
            epoch: fleet.epoch(),
            mutation_digest: fleet.mutation_digest(),
            state_digest: fleet.state_digest(),
            occupancies: fleet
                .shards()
                .iter()
                .map(|s| s.bank.occupancies().to_vec())
                .collect(),
            duties: fleet
                .shards()
                .iter()
                .map(|s| s.chips.iter().map(|c| c.duty.get()).collect())
                .collect(),
            tiers: fleet
                .shards()
                .iter()
                .map(|s| s.chips.iter().map(|c| c.tier).collect())
                .collect(),
        }
    }

    /// Rebuilds a live fleet: seed-rebuild from `config`, overlay the
    /// snapshot (which drops every cache), then verify the recorded
    /// state digest against one computed from the overlaid state.
    /// `None` on any shape or digest mismatch (the snapshot belongs to a
    /// different configuration or a different history).
    #[must_use]
    pub fn restore(&self, config: FleetConfig) -> Option<FleetState> {
        let mut fleet = FleetState::build(config);
        if fleet.shards().len() != self.occupancies.len()
            || fleet.shards().len() != self.duties.len()
            || fleet.shards().len() != self.tiers.len()
        {
            return None;
        }
        for (((shard, occ), duty), tier) in fleet
            .shards()
            .iter()
            .zip(&self.occupancies)
            .zip(&self.duties)
            .zip(&self.tiers)
        {
            if shard.bank.len() != occ.len()
                || shard.chips.len() != duty.len()
                || shard.chips.len() != tier.len()
            {
                return None;
            }
        }
        fleet.overlay(
            self.epoch,
            self.mutation_digest,
            &self.occupancies,
            &self.duties,
            &self.tiers,
        );
        (fleet.state_digest() == self.state_digest).then_some(fleet)
    }
}

/// Writes `fleet`'s snapshot over the previous one. Returns `false`
/// when the cache is disabled (nothing written).
pub fn save(cache: &ResultCache, fleet: &FleetState) -> bool {
    if !cache.is_active() {
        return false;
    }
    cache.store_record(
        CHECKPOINT_NAMESPACE,
        CHECKPOINT_VERSION,
        &checkpoint_key(fleet.config()),
        &FleetCheckpoint::capture(fleet),
    );
    true
}

/// Resumes a fleet from its newest checkpoint, or `None` when no valid
/// snapshot exists (caller falls back to a fresh build).
#[must_use]
pub fn resume(cache: &ResultCache, config: &FleetConfig) -> Option<FleetState> {
    let snapshot: FleetCheckpoint = cache.load_record(
        CHECKPOINT_NAMESPACE,
        CHECKPOINT_VERSION,
        &checkpoint_key(config),
    )?;
    snapshot.restore(config.clone())
}

/// The per-config checkpoint key. Includes the kernel version: a kernel
/// change invalidates every stored occupancy trajectory.
fn checkpoint_key(config: &FleetConfig) -> String {
    format!("{}|k{KERNEL_VERSION}", config.cache_key())
}

fn u64_hex(value: u64) -> Json {
    Json::String(format!("{value:016x}"))
}

fn hex_u64(json: &Json) -> Option<u64> {
    u64::from_str_radix(json.as_str()?, 16).ok()
}

fn f64_vec(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|v| Json::Number(*v)).collect())
}

fn vec_f64(json: &Json) -> Option<Vec<f64>> {
    json.as_array()?.iter().map(Json::as_f64).collect()
}

/// A tier serializes as `"hot"`, `"pinned"`, or
/// `["cold", anchor_bits, rate_bits, since_epoch, wake_epoch]` (all
/// four as 16-hex `u64`s — the anchor's and rate's exact bit patterns,
/// and epochs that may be `u64::MAX`, none of which survives an `f64`
/// round trip).
fn tier_json(tier: &ChipTier) -> Json {
    match tier {
        ChipTier::Hot => Json::String("hot".into()),
        ChipTier::Pinned => Json::String("pinned".into()),
        ChipTier::Cold(cold) => Json::Array(vec![
            Json::String("cold".into()),
            u64_hex(cold.anchor.get().to_bits()),
            u64_hex(cold.rate_mv_per_s.to_bits()),
            u64_hex(cold.since_epoch),
            u64_hex(cold.wake_epoch),
        ]),
    }
}

fn json_tier(json: &Json) -> Option<ChipTier> {
    if let Some(tag) = json.as_str() {
        return match tag {
            "hot" => Some(ChipTier::Hot),
            "pinned" => Some(ChipTier::Pinned),
            _ => None,
        };
    }
    let parts = json.as_array()?;
    if parts.len() != 5 || parts[0].as_str()? != "cold" {
        return None;
    }
    Some(ChipTier::Cold(ColdChip {
        anchor: Millivolts::new(f64::from_bits(hex_u64(&parts[1])?)),
        rate_mv_per_s: f64::from_bits(hex_u64(&parts[2])?),
        since_epoch: hex_u64(&parts[3])?,
        wake_epoch: hex_u64(&parts[4])?,
    }))
}

fn vec_tier(json: &Json) -> Option<Vec<ChipTier>> {
    json.as_array()?.iter().map(json_tier).collect()
}

impl CacheRecord for FleetCheckpoint {
    fn to_cache_json(&self) -> Json {
        #[allow(clippy::cast_precision_loss)]
        Json::object(vec![
            ("epoch".into(), Json::Number(self.epoch as f64)),
            ("mutation_digest".into(), u64_hex(self.mutation_digest)),
            ("state_digest".into(), u64_hex(self.state_digest)),
            (
                "occupancies".into(),
                Json::Array(self.occupancies.iter().map(|s| f64_vec(s)).collect()),
            ),
            (
                "duties".into(),
                Json::Array(self.duties.iter().map(|s| f64_vec(s)).collect()),
            ),
            (
                "tiers".into(),
                Json::Array(
                    self.tiers
                        .iter()
                        .map(|s| Json::Array(s.iter().map(tier_json).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_cache_json(json: &Json) -> Option<Self> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(FleetCheckpoint {
            epoch: json.get("epoch")?.as_f64()? as u64,
            mutation_digest: hex_u64(json.get("mutation_digest")?)?,
            state_digest: hex_u64(json.get("state_digest")?)?,
            occupancies: json
                .get("occupancies")?
                .as_array()?
                .iter()
                .map(vec_f64)
                .collect::<Option<Vec<_>>>()?,
            duties: json
                .get("duties")?
                .as_array()?
                .iter()
                .map(vec_f64)
                .collect::<Option<Vec<_>>>()?,
            tiers: json
                .get("tiers")?
                .as_array()?
                .iter()
                .map(vec_tier)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_units::DutyCycle;

    fn tiny_config(seed: u64) -> FleetConfig {
        let mut config = FleetConfig::default();
        config.chips = 9;
        config.shards = 2;
        config.seed = seed;
        config.trap_params.mean_trap_count = 5.0;
        config
    }

    fn scratch_cache(tag: &str) -> ResultCache {
        let root = std::env::temp_dir().join(format!(
            "selfheal-fleet-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        ResultCache::at(root)
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let mut fleet = FleetState::build(tiny_config(3));
        fleet.advance_epoch();
        assert!(fleet.fold_report(2, DutyCycle::new(0.25)));
        fleet.advance_epoch();
        let snapshot = FleetCheckpoint::capture(&fleet);
        let json = snapshot.to_cache_json();
        let reparsed = match FleetCheckpoint::from_cache_json(&json) {
            Some(ck) => ck,
            None => panic!("checkpoint JSON must round-trip"),
        };
        assert_eq!(reparsed, snapshot);
        let restored = match reparsed.restore(tiny_config(3)) {
            Some(fleet) => fleet,
            None => panic!("restore must succeed for the same config"),
        };
        assert_eq!(restored.state_digest(), fleet.state_digest());
        assert_eq!(restored.epoch(), fleet.epoch());
    }

    /// `restore` overlays a fresh build; a fleet whose caches were filled
    /// before an overlay must answer from the overlaid state.
    #[test]
    fn overlay_drops_caches_filled_before_it() {
        let mut config = tiny_config(3);
        config.tiered = true;
        let mut aged = FleetState::build(config.clone());
        aged.advance_epoch();
        assert!(aged.fold_report(1, DutyCycle::new(0.3)));
        aged.advance_epoch();
        let snapshot = FleetCheckpoint::capture(&aged);
        let mut fleet = FleetState::build(config);
        let fresh_digest = fleet.state_digest();
        let _ = fleet.aggregates();
        fleet.overlay(
            snapshot.epoch,
            snapshot.mutation_digest,
            &snapshot.occupancies,
            &snapshot.duties,
            &snapshot.tiers,
        );
        assert_ne!(fresh_digest, aged.state_digest());
        assert_eq!(fleet.state_digest(), aged.state_digest());
        assert_eq!(fleet.aggregates(), aged.aggregates());
    }

    #[test]
    fn restore_rejects_a_different_config() {
        let mut fleet = FleetState::build(tiny_config(3));
        fleet.advance_epoch();
        let snapshot = FleetCheckpoint::capture(&fleet);
        assert!(snapshot.restore(tiny_config(4)).is_none());
    }

    #[test]
    fn save_resume_round_trips_through_the_cache() {
        let cache = scratch_cache("roundtrip");
        let config = tiny_config(5);
        let mut fleet = FleetState::build(config.clone());
        fleet.advance_epoch();
        assert!(save(&cache, &fleet));
        fleet.fold_report(0, DutyCycle::new(0.5));
        fleet.advance_epoch();
        assert!(save(&cache, &fleet));
        let resumed = match resume(&cache, &config) {
            Some(fleet) => fleet,
            None => panic!("resume must find the saved snapshot"),
        };
        assert_eq!(resumed.epoch(), 2);
        assert_eq!(resumed.state_digest(), fleet.state_digest());
        // A different seed has no checkpoints at all.
        assert!(resume(&cache, &tiny_config(6)).is_none());
        // A disabled cache stores nothing.
        assert!(!save(&ResultCache::disabled(), &fleet));
    }

    #[test]
    fn repeated_saves_leave_one_file_holding_the_newest_state() {
        let root = std::env::temp_dir().join(format!(
            "selfheal-fleet-ckpt-one-file-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let cache = ResultCache::at(root.clone());
        let config = tiny_config(7);
        let mut fleet = FleetState::build(config.clone());
        for (chip, duty) in [(0, 0.2), (3, 0.4), (5, 0.6), (8, 0.8)] {
            fleet.advance_epoch();
            assert!(fleet.fold_report(chip, DutyCycle::new(duty)));
            fleet.advance_epoch();
            assert!(save(&cache, &fleet));
        }
        let files: Vec<_> = match std::fs::read_dir(root.join(CHECKPOINT_NAMESPACE)) {
            Ok(dir) => dir.flatten().map(|entry| entry.path()).collect(),
            Err(err) => panic!("checkpoint namespace directory missing: {err}"),
        };
        assert_eq!(files.len(), 1, "one checkpoint file per fleet: {files:?}");
        let resumed = match resume(&cache, &config) {
            Some(fleet) => fleet,
            None => panic!("resume must find the newest snapshot"),
        };
        assert_eq!(resumed.epoch(), 8);
        assert_eq!(resumed.mutation_digest(), fleet.mutation_digest());
        assert_eq!(resumed.state_digest(), fleet.state_digest());
        let _ = std::fs::remove_dir_all(&root);
    }
}
