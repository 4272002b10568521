//! Bit-exact checkpoint/resume of a fleet's mutable state.
//!
//! A checkpoint stores only what a seed rebuild cannot regenerate: the
//! occupancy column of every shard bank, every reported duty cycle, the
//! epoch counter and the mutation-digest chain. Trap constants
//! (τ values, step sizes) are *not* stored — they come back
//! bit-identically from [`FleetConfig::seed`], which keeps a snapshot at
//! one `f64` per trap.
//!
//! This module is the only one that knows the format. [`write`](write()) streams
//! it straight from the live state and [`read`] streams it straight into
//! a seed-rebuilt fleet; nothing is copied in between. Every word is a
//! little-endian `u64` (floats as their bit patterns):
//!
//! ```text
//! magic "SHFLCKPT" | version | key length | key bytes
//! epoch | mutation digest | state digest
//! per shard, in order:
//!   occupancy bits, one per trap
//!   duty bits, one per chip
//! ```
//!
//! The file stores no lengths: the fleet rebuilt from the key's
//! configuration fixes every shard's trap and chip count, so the only
//! bytes allocated from file contents are the key's, whose length is
//! checked first. [`read`] then requires end of file and re-verifies
//! the recorded state digest, so a snapshot that does not reproduce its
//! own state never resumes.
//!
//! [`save`] and [`resume`] keep one file per fleet configuration, named
//! by [`ResultCache::entry_path`]; each save overwrites it atomically
//! through a sibling temp file and a rename.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use selfheal_bti::td::KERNEL_VERSION;
use selfheal_runtime::ResultCache;
use selfheal_units::DutyCycle;

use crate::config::FleetConfig;
use crate::state::{FleetState, Shard};

/// Cache namespace (directory) for fleet checkpoints.
pub const CHECKPOINT_NAMESPACE: &str = "fleet-checkpoint";
/// Checkpoint format version (bumped on layout changes; the kernel
/// version rides in the key so kernel changes also invalidate).
/// Version 5 is the binary column stream described in the module docs;
/// version 4 also stored a tier tag per chip, and versions 1–3 were JSON
/// records. Neither is ever read.
pub const CHECKPOINT_VERSION: u32 = 5;

/// The first bytes of every checkpoint file.
const MAGIC: &[u8; 8] = b"SHFLCKPT";

/// Why [`read`] or [`resume`] refused a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// No checkpoint exists (or the cache is disabled).
    Missing,
    /// Reading the file failed; a truncated file ends here.
    Io(io::Error),
    /// The bytes are not a checkpoint of this fleet; the string names
    /// the cause.
    Invalid(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Missing => f.write_str("no checkpoint"),
            CheckpointError::Io(err) => write!(f, "checkpoint unreadable: {err}"),
            CheckpointError::Invalid(cause) => write!(f, "checkpoint invalid: {cause}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(err: io::Error) -> Self {
        CheckpointError::Io(err)
    }
}

/// Streams `fleet`'s checkpoint into `out` (layout in the module docs).
/// Every shard must have caught up to the fleet's epoch.
///
/// # Errors
///
/// Whatever `out` returns.
pub fn write(fleet: &FleetState, out: &mut impl Write) -> io::Result<()> {
    fleet.debug_assert_all_caught_up();
    let key = checkpoint_key(fleet.config());
    out.write_all(MAGIC)?;
    for word in [u64::from(CHECKPOINT_VERSION), key.len() as u64] {
        out.write_all(&word.to_le_bytes())?;
    }
    out.write_all(key.as_bytes())?;
    for word in [fleet.epoch(), fleet.mutation_digest(), fleet.state_digest()] {
        out.write_all(&word.to_le_bytes())?;
    }
    for shard in fleet.shards() {
        for occupancy in shard.bank.occupancies() {
            out.write_all(&occupancy.to_bits().to_le_bytes())?;
        }
        for chip in &shard.chips {
            out.write_all(&chip.duty.get().to_bits().to_le_bytes())?;
        }
    }
    Ok(())
}

/// Rebuilds a live fleet from a checkpoint stream: checks the header
/// against `config`, seed-rebuilds the fleet, overlays every shard
/// straight from `input`, then requires end of input and verifies the
/// recorded state digest against the overlaid state.
///
/// # Errors
///
/// [`CheckpointError::Io`] when `input` fails or ends early;
/// [`CheckpointError::Invalid`] when the bytes belong to another format
/// version, another configuration or another state.
pub fn read(config: FleetConfig, input: &mut impl Read) -> Result<FleetState, CheckpointError> {
    let mut magic = [0; MAGIC.len()];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Invalid("magic"));
    }
    if read_u64(input)? != u64::from(CHECKPOINT_VERSION) {
        return Err(CheckpointError::Invalid("version"));
    }
    let key = checkpoint_key(&config);
    // The length is checked before anything is allocated from it.
    if read_u64(input)? != key.len() as u64 {
        return Err(CheckpointError::Invalid("key"));
    }
    let mut stored = vec![0; key.len()];
    input.read_exact(&mut stored)?;
    if stored != key.as_bytes() {
        return Err(CheckpointError::Invalid("key"));
    }
    let epoch = read_u64(input)?;
    let mutation_digest = read_u64(input)?;
    let state_digest = read_u64(input)?;
    let mut fleet = FleetState::build(config);
    fleet.overlay(epoch, mutation_digest, |shard| read_shard(shard, input))?;
    if input.read(&mut [0])? != 0 {
        return Err(CheckpointError::Invalid("trailing bytes"));
    }
    if fleet.state_digest() != state_digest {
        return Err(CheckpointError::Invalid("digest"));
    }
    Ok(fleet)
}

/// Overwrites one shard's occupancies and duties from `input`.
fn read_shard(shard: &mut Shard, input: &mut impl Read) -> Result<(), CheckpointError> {
    for occupancy in shard.bank.occupancies_mut() {
        *occupancy = f64::from_bits(read_u64(input)?);
    }
    for chip in &mut shard.chips {
        chip.duty = DutyCycle::new(f64::from_bits(read_u64(input)?));
    }
    Ok(())
}

fn read_u64(input: &mut impl Read) -> io::Result<u64> {
    let mut bytes = [0; 8];
    input.read_exact(&mut bytes)?;
    Ok(u64::from_le_bytes(bytes))
}

/// Writes `fleet`'s checkpoint over the previous one. Returns `true`
/// only once the new file is in place; `false` when the cache is
/// disabled or the write failed (the previous checkpoint, if any, is
/// left as it was).
pub fn save(cache: &ResultCache, fleet: &FleetState) -> bool {
    let Some(path) = checkpoint_path(cache, fleet.config()) else {
        return false;
    };
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let published = publish(fleet, &tmp, &path);
    if published.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    published.is_ok()
}

/// Writes the checkpoint to `tmp` and syncs it to disk, then renames it
/// over `path`, so a crash leaves either the old file or the new one.
fn publish(fleet: &FleetState, tmp: &Path, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(tmp)?);
    write(fleet, &mut out)?;
    out.into_inner()
        .map_err(io::IntoInnerError::into_error)?
        .sync_all()?;
    fs::rename(tmp, path)
}

/// Resumes a fleet from its newest checkpoint.
///
/// # Errors
///
/// [`CheckpointError::Missing`] when the cache is disabled or holds no
/// checkpoint for `config`; otherwise whatever [`read`] refuses.
pub fn resume(cache: &ResultCache, config: &FleetConfig) -> Result<FleetState, CheckpointError> {
    let path = checkpoint_path(cache, config).ok_or(CheckpointError::Missing)?;
    let file = File::open(path).map_err(|err| match err.kind() {
        io::ErrorKind::NotFound => CheckpointError::Missing,
        _ => CheckpointError::Io(err),
    })?;
    read(config.clone(), &mut BufReader::new(file))
}

/// Where `config`'s checkpoint lives under `cache`'s root; `None` when
/// the cache is disabled.
fn checkpoint_path(cache: &ResultCache, config: &FleetConfig) -> Option<PathBuf> {
    cache.is_active().then(|| {
        cache
            .entry_path(
                CHECKPOINT_NAMESPACE,
                CHECKPOINT_VERSION,
                &checkpoint_key(config),
            )
            .with_extension("ckpt")
    })
}

/// The per-config checkpoint key. Includes the kernel version: a kernel
/// change invalidates every stored occupancy trajectory.
fn checkpoint_key(config: &FleetConfig) -> String {
    format!("{}|k{KERNEL_VERSION}", config.cache_key())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(seed: u64) -> FleetConfig {
        let mut config = FleetConfig::default();
        config.chips = 9;
        config.shards = 2;
        config.seed = seed;
        config.trap_params.mean_trap_count = 5.0;
        config
    }

    /// A fleet two epochs old in which chip 1 reported a 0.3 duty
    /// between them; the other eight chips keep the DC duty of 1.0.
    fn reported_fleet() -> FleetState {
        let mut fleet = FleetState::build(tiny_config(3));
        fleet.advance_epoch();
        assert!(fleet.fold_report(1, DutyCycle::new(0.3)));
        fleet.advance_epoch();
        assert_eq!(fleet.chip_duty(1), Some(DutyCycle::new(0.3)));
        fleet
    }

    fn encode(fleet: &FleetState) -> Vec<u8> {
        let mut bytes = Vec::new();
        if let Err(err) = write(fleet, &mut bytes) {
            panic!("writing into a Vec cannot fail: {err}");
        }
        bytes
    }

    fn scratch_cache(tag: &str) -> ResultCache {
        let root =
            std::env::temp_dir().join(format!("selfheal-fleet-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        ResultCache::at(root)
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let mut fleet = FleetState::build(tiny_config(3));
        fleet.advance_epoch();
        assert!(fleet.fold_report(2, DutyCycle::new(0.25)));
        fleet.advance_epoch();
        let bytes = encode(&fleet);
        let restored = match read(tiny_config(3), &mut bytes.as_slice()) {
            Ok(fleet) => fleet,
            Err(err) => panic!("restore must succeed for the same config: {err}"),
        };
        assert_eq!(restored.state_digest(), fleet.state_digest());
        assert_eq!(restored.epoch(), fleet.epoch());
        assert_eq!(encode(&restored), bytes, "re-encoding gives the same bytes");
    }

    /// `read` overlays a fresh build; a fleet whose caches were filled
    /// before an overlay must answer from the overlaid state, and its
    /// next epoch must step from the overlaid duties, not from decays
    /// cached under its own.
    #[test]
    fn overlay_drops_caches_filled_before_it() {
        let aged = reported_fleet();
        let mut fleet = FleetState::build(aged.config().clone());
        let fresh_digest = fleet.state_digest();
        fleet.advance_epoch();
        let _ = fleet.aggregates();
        let mut sources = aged.shards().iter();
        let overlaid = fleet.overlay(aged.epoch(), aged.mutation_digest(), |shard| {
            let source = sources.next().ok_or("one source per shard")?;
            shard
                .bank
                .occupancies_mut()
                .copy_from_slice(source.bank.occupancies());
            shard.chips.clone_from(&source.chips);
            Ok::<(), &str>(())
        });
        assert_eq!(overlaid, Ok(()));
        assert_ne!(fresh_digest, aged.state_digest());
        assert_eq!(fleet.state_digest(), aged.state_digest());
        assert_eq!(fleet.aggregates(), aged.aggregates());
        let mut restored = match read(aged.config().clone(), &mut encode(&aged).as_slice()) {
            Ok(restored) => restored,
            Err(err) => panic!("restore must succeed for the same config: {err}"),
        };
        restored.advance_epoch();
        fleet.advance_epoch();
        assert_eq!(fleet.state_digest(), restored.state_digest());
    }

    #[test]
    fn read_rejects_a_different_config() {
        let mut fleet = FleetState::build(tiny_config(3));
        fleet.advance_epoch();
        let bytes = encode(&fleet);
        assert!(matches!(
            read(tiny_config(4), &mut bytes.as_slice()),
            Err(CheckpointError::Invalid("key"))
        ));
    }

    /// Every truncation, an appended byte and every single-bit flip is
    /// refused without a panic. The one flip that may resume is a duty
    /// bit that [`DutyCycle`]'s clamp absorbs, and then the restored
    /// fleet must be the saved one, byte for byte.
    #[test]
    fn damaged_checkpoints_are_refused() {
        let fleet = reported_fleet();
        let config = fleet.config().clone();
        let bytes = encode(&fleet);
        for len in 0..bytes.len() {
            assert!(
                read(config.clone(), &mut &bytes[..len]).is_err(),
                "truncated to {len} of {} bytes",
                bytes.len()
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(matches!(
            read(config.clone(), &mut longer.as_slice()),
            Err(CheckpointError::Invalid("trailing bytes"))
        ));
        let mut absorbed = 0;
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(restored) = read(config.clone(), &mut flipped.as_slice()) {
                assert_eq!(restored.state_digest(), fleet.state_digest(), "bit {bit}");
                assert_eq!(encode(&restored), bytes, "bit {bit}");
                absorbed += 1;
            }
        }
        // A flip that raises a 1.0 duty (any of its 52 mantissa bits, or
        // the top exponent bit, which makes it infinite) clamps back to
        // 1.0; eight of the nine chips never reported. Every other flip
        // moves an occupancy, a duty, the header or a digest, and the
        // recorded state digest refuses it. The per-chip words are the
        // duties alone, so the count is the duty words' and nothing else.
        assert_eq!(absorbed, 53 * 8);
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
            Ok(fleet) => fleet,
            Err(err) => panic!("resume must find the saved snapshot: {err}"),
        };
        assert_eq!(resumed.epoch(), 2);
        assert_eq!(resumed.state_digest(), fleet.state_digest());
        // A different seed has no checkpoints at all.
        assert!(matches!(
            resume(&cache, &tiny_config(6)),
            Err(CheckpointError::Missing)
        ));
        // A disabled cache stores and finds nothing.
        let off = ResultCache::disabled();
        assert!(!save(&off, &fleet));
        assert!(matches!(
            resume(&off, &config),
            Err(CheckpointError::Missing)
        ));
    }

    /// A save that cannot write reports it: here the cache root lies
    /// under a regular file, so no directory can be made.
    #[test]
    fn a_failed_save_returns_false() {
        let file = std::env::temp_dir().join(format!(
            "selfheal-fleet-ckpt-blocked-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&file);
        if let Err(err) = fs::write(&file, b"not a directory") {
            panic!("cannot create {}: {err}", file.display());
        }
        let cache = ResultCache::at(file.join("cache"));
        let fleet = FleetState::build(tiny_config(5));
        assert!(!save(&cache, &fleet));
        let _ = fs::remove_file(&file);
    }

    #[test]
    fn repeated_saves_leave_one_file_holding_the_newest_state() {
        let root = std::env::temp_dir().join(format!(
            "selfheal-fleet-ckpt-one-file-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        let cache = ResultCache::at(root.clone());
        let config = tiny_config(7);
        let mut fleet = FleetState::build(config.clone());
        for (chip, duty) in [(0, 0.2), (3, 0.4), (5, 0.6), (8, 0.8)] {
            fleet.advance_epoch();
            assert!(fleet.fold_report(chip, DutyCycle::new(duty)));
            fleet.advance_epoch();
            assert!(save(&cache, &fleet));
        }
        let files: Vec<_> = match fs::read_dir(root.join(CHECKPOINT_NAMESPACE)) {
            Ok(dir) => dir.flatten().map(|entry| entry.path()).collect(),
            Err(err) => panic!("checkpoint namespace directory missing: {err}"),
        };
        assert_eq!(files.len(), 1, "one checkpoint file per fleet: {files:?}");
        let resumed = match resume(&cache, &config) {
            Ok(fleet) => fleet,
            Err(err) => panic!("resume must find the newest snapshot: {err}"),
        };
        assert_eq!(resumed.epoch(), 8);
        assert_eq!(resumed.mutation_digest(), fleet.mutation_digest());
        assert_eq!(resumed.state_digest(), fleet.state_digest());
        let _ = fs::remove_dir_all(&root);
    }
}
