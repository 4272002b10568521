//! Bit-exact checkpoint/resume of a fleet's mutable state, and the
//! fleet image that carries its fixed trap constants across restarts.
//!
//! A checkpoint stores only what changes as the fleet ages: the
//! occupancy column of every shard bank, every reported duty cycle, the
//! epoch counter and the mutation-digest chain. A device's trap
//! population (τ values, step sizes) is fixed when it is made, a pure
//! function of the configuration, so the constants live apart in a
//! *fleet image* written once per configuration. A resume reads the
//! image into fresh banks and overlays the checkpoint; with no usable
//! image it re-samples the constants from [`FleetConfig::seed`], which
//! gives the same bits and stays the oracle the image is checked
//! against.
//!
//! This module is the only one that knows either format. Every word is
//! a little-endian `u64` (floats as their bit patterns). The checkpoint
//! ([`write`](write()) streams it straight from the live state, [`read`]
//! straight into a fresh fleet):
//!
//! ```text
//! magic "SHFLCKPT" | version | key length | key bytes
//! epoch | mutation digest | state digest
//! per shard, in order:
//!   occupancy bits, one per trap
//!   duty bits, one per chip
//! ```
//!
//! The checkpoint stores no lengths: the fresh fleet fixes every shard's
//! trap and chip count, so the only bytes allocated from file contents
//! are the key's, whose length is checked first. [`read`] then requires
//! end of file and re-verifies the recorded state digest, so a snapshot
//! that does not reproduce its own state never resumes.
//!
//! The image ([`write_image`], [`read_image`]):
//!
//! ```text
//! magic "SHFLIMAG" | version | key length | key bytes
//! per shard, in order:
//!   trap count, one per chip
//!   tau_c0 bits, one per trap
//!   tau_e bits, one per trap
//!   step_mv bits, one per trap
//! digest of every word after the key
//! ```
//!
//! The trap counts are the only lengths in either file, and each shard's
//! total is checked against the bytes the file has left before its
//! columns are allocated. The digest is one xor-multiply (and a rotate)
//! per word, a bijection of the running value, so any single changed
//! word is refused. [`read_image`] also re-samples chip 0 of every shard
//! from the seed and refuses an image whose constants for it differ, so
//! a sampler change never resumes on stale constants.
//!
//! Both readers pull each column through one small reusable buffer, so
//! a resume never holds a file in memory.
//!
//! [`save`] and [`resume`] keep one checkpoint per fleet configuration,
//! named by [`ResultCache::entry_path`]; each save overwrites it
//! atomically through a sibling temp file and a rename. The image sits
//! beside it in its own namespace, written the same way by the first
//! save that finds none.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use selfheal_bti::td::{TrapBank, KERNEL_VERSION};
use selfheal_runtime::ResultCache;
use selfheal_telemetry::span;
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
/// Cache namespace (directory) for fleet images.
pub const IMAGE_NAMESPACE: &str = "fleet-image";
/// Fleet image format version (layout in the module docs).
pub const IMAGE_VERSION: u32 = 1;

/// The first bytes of every checkpoint file.
const MAGIC: &[u8; 8] = b"SHFLCKPT";
/// The first bytes of every fleet image.
const IMAGE_MAGIC: &[u8; 8] = b"SHFLIMAG";
/// Words per read of the reusable buffer (32 KiB).
const CHUNK_WORDS: usize = 4096;

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

/// Why [`read_image`] refused a fleet image.
#[derive(Debug)]
pub enum ImageError {
    /// Reading the file failed; a truncated file ends here.
    Io(io::Error),
    /// The bytes are not this fleet's image; the string names the cause.
    Invalid(&'static str),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Io(err) => write!(f, "fleet image unreadable: {err}"),
            ImageError::Invalid(cause) => write!(f, "fleet image invalid: {cause}"),
        }
    }
}

impl std::error::Error for ImageError {}

impl From<io::Error> for ImageError {
    fn from(err: io::Error) -> Self {
        ImageError::Io(err)
    }
}

/// Where a [`resume`]d fleet's trap constants came from.
#[derive(Debug)]
pub enum ImageStatus {
    /// Read from the fleet image.
    Loaded,
    /// Re-sampled from the seed: no image exists yet.
    Missing,
    /// Re-sampled from the seed: the image was refused (and deleted,
    /// so the next save writes a new one).
    Refused(ImageError),
}

impl ImageStatus {
    /// One word for logs: `loaded`, `missing` or `refused`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ImageStatus::Loaded => "loaded",
            ImageStatus::Missing => "missing",
            ImageStatus::Refused(_) => "refused",
        }
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
    write_header(MAGIC, CHECKPOINT_VERSION, fleet.config(), out)?;
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
    let header = read_header(&config, input)?;
    header.read_columns(FleetState::build(config), input)
}

/// What a checkpoint records ahead of its columns.
struct Header {
    epoch: u64,
    mutation_digest: u64,
    state_digest: u64,
}

/// Checks a checkpoint's header against `config` and reads the words
/// that follow it.
fn read_header(config: &FleetConfig, input: &mut impl Read) -> Result<Header, CheckpointError> {
    check_header(MAGIC, CHECKPOINT_VERSION, config, input)?.map_err(CheckpointError::Invalid)?;
    Ok(Header {
        epoch: read_u64(input)?,
        mutation_digest: read_u64(input)?,
        state_digest: read_u64(input)?,
    })
}

impl Header {
    /// Overlays the checkpoint's columns from `input` on `fleet`, a
    /// fresh fleet of the header's configuration, then requires end of
    /// input and the recorded state digest.
    fn read_columns(
        &self,
        mut fleet: FleetState,
        input: &mut impl Read,
    ) -> Result<FleetState, CheckpointError> {
        let mut words = Words::new(input);
        fleet.overlay(self.epoch, self.mutation_digest, |shard| {
            read_shard(shard, &mut words)
        })?;
        if !words.at_end()? {
            return Err(CheckpointError::Invalid("trailing bytes"));
        }
        if fleet.state_digest() != self.state_digest {
            return Err(CheckpointError::Invalid("digest"));
        }
        Ok(fleet)
    }
}

/// Overwrites one shard's occupancies and duties from `words`.
fn read_shard(shard: &mut Shard, words: &mut Words<impl Read>) -> io::Result<()> {
    words.read_each(shard.bank.occupancies_mut(), |occupancy, word| {
        *occupancy = f64::from_bits(word);
    })?;
    words.read_each(&mut shard.chips, |chip, word| {
        chip.duty = DutyCycle::new(f64::from_bits(word));
    })
}

/// Streams the fleet image of `fleet`'s configuration into `out`
/// (layout in the module docs). The constants never change as a fleet
/// ages, so a fleet at any epoch writes the same image.
///
/// # Errors
///
/// Whatever `out` returns.
pub fn write_image(fleet: &FleetState, out: &mut impl Write) -> io::Result<()> {
    write_header(IMAGE_MAGIC, IMAGE_VERSION, fleet.config(), out)?;
    let mut digest = Digest::default();
    let mut put = |word: u64| {
        digest.absorb(word);
        out.write_all(&word.to_le_bytes())
    };
    for shard in fleet.shards() {
        for chip in &shard.chips {
            put(chip.traps.len() as u64)?;
        }
        let bank = &shard.bank;
        for column in [bank.tau_c0(), bank.tau_e(), bank.step_mv()] {
            for value in column {
                put(value.to_bits())?;
            }
        }
    }
    out.write_all(&digest.0.to_le_bytes())
}

/// Reads a fleet image of `len` bytes from `input` into a fresh fleet
/// (epoch 0, every trap empty, every duty DC): the fleet
/// [`FleetState::build`] samples for `config`, without sampling it.
///
/// # Errors
///
/// [`ImageError::Io`] when `input` fails or ends early;
/// [`ImageError::Invalid`] when the bytes belong to another format
/// version or configuration, a trap count runs past `len`, the digest
/// differs, bytes trail, or chip 0 of a shard differs from its seed
/// sample.
pub fn read_image(
    config: &FleetConfig,
    input: &mut impl Read,
    len: u64,
) -> Result<FleetState, ImageError> {
    let header_len =
        check_header(IMAGE_MAGIC, IMAGE_VERSION, config, input)?.map_err(ImageError::Invalid)?;
    let mut left = len
        .checked_sub(header_len)
        .ok_or(ImageError::Invalid("length"))?;
    let mut words = Words::new(input);
    let mut digest = Digest::default();
    let shards = (0..config.shards)
        .map(|index| read_image_shard(config, index, &mut words, &mut digest, &mut left))
        .collect::<Result<Vec<_>, _>>()?;
    if read_u64(words.input)? != digest.0 {
        return Err(ImageError::Invalid("digest"));
    }
    if !words.at_end()? {
        return Err(ImageError::Invalid("trailing bytes"));
    }
    Ok(FleetState::fresh(config.clone(), shards))
}

/// Reads shard `index` of an image, charging every word it reads to
/// `left`, the bytes the file has left, before allocating for it; then
/// checks chip 0 against its seed sample.
fn read_image_shard(
    config: &FleetConfig,
    index: usize,
    words: &mut Words<impl Read>,
    digest: &mut Digest,
    left: &mut u64,
) -> Result<Shard, ImageError> {
    let mut take = |count: usize, words_each: u64| {
        (count as u64)
            .checked_mul(8 * words_each)
            .and_then(|bytes| left.checked_sub(bytes))
            .map(|rest| *left = rest)
            .ok_or(ImageError::Invalid("length"))
    };
    let chips = config.shard_chip_range(index).len();
    take(chips, 1)?;
    let mut counts = vec![0; chips];
    words.read_each(&mut counts, |count, word| {
        digest.absorb(word);
        *count = usize::try_from(word).unwrap_or(usize::MAX);
    })?;
    let traps = counts
        .iter()
        .try_fold(0usize, |sum, &count| sum.checked_add(count))
        .ok_or(ImageError::Invalid("length"))?;
    take(traps, 3)?;
    let mut column = || -> io::Result<Vec<f64>> {
        let mut column = vec![0.0; traps];
        words.read_each(&mut column, |value, word| {
            digest.absorb(word);
            *value = f64::from_bits(word);
        })?;
        Ok(column)
    };
    let bank = TrapBank::from_columns(column()?, column()?, column()?);
    let shard = Shard::from_bank(config, index, &counts, bank);
    if let Some(first) = shard.chips.first() {
        let stored = shard.bank.copy_range(first.traps.clone());
        let sampled = Shard::sample_first_chip(config, index);
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        if !(same(stored.tau_c0(), sampled.tau_c0())
            && same(stored.tau_e(), sampled.tau_e())
            && same(stored.step_mv(), sampled.step_mv()))
        {
            return Err(ImageError::Invalid("constants differ from the seed's"));
        }
    }
    Ok(shard)
}

/// Writes `magic`, `version` and `config`'s checkpoint key.
fn write_header(
    magic: &[u8; 8],
    version: u32,
    config: &FleetConfig,
    out: &mut impl Write,
) -> io::Result<()> {
    let key = checkpoint_key(config);
    out.write_all(magic)?;
    for word in [u64::from(version), key.len() as u64] {
        out.write_all(&word.to_le_bytes())?;
    }
    out.write_all(key.as_bytes())
}

/// Reads a header [`write_header`] wrote and checks it against `magic`,
/// `version` and `config`'s key. The outer error is the read's; the
/// inner one names the part that differs. Returns the header's length
/// in bytes.
fn check_header(
    magic: &[u8; 8],
    version: u32,
    config: &FleetConfig,
    input: &mut impl Read,
) -> io::Result<Result<u64, &'static str>> {
    let mut stored_magic = [0; 8];
    input.read_exact(&mut stored_magic)?;
    if &stored_magic != magic {
        return Ok(Err("magic"));
    }
    if read_u64(input)? != u64::from(version) {
        return Ok(Err("version"));
    }
    let key = checkpoint_key(config);
    // The length is checked before anything is allocated from it.
    if read_u64(input)? != key.len() as u64 {
        return Ok(Err("key"));
    }
    let mut stored = vec![0; key.len()];
    input.read_exact(&mut stored)?;
    if stored != key.as_bytes() {
        return Ok(Err("key"));
    }
    Ok(Ok(24 + key.len() as u64))
}

fn read_u64(input: &mut impl Read) -> io::Result<u64> {
    let mut bytes = [0; 8];
    input.read_exact(&mut bytes)?;
    Ok(u64::from_le_bytes(bytes))
}

/// Reads `u64` words through one reusable buffer of [`CHUNK_WORDS`]
/// words, so a column costs one `read` per chunk, not one per word.
struct Words<'a, R> {
    input: &'a mut R,
    buffer: Vec<u8>,
}

impl<'a, R: Read> Words<'a, R> {
    fn new(input: &'a mut R) -> Self {
        Words {
            input,
            buffer: vec![0; CHUNK_WORDS * 8],
        }
    }

    /// Reads one word per element of `out`, in order, and hands each to
    /// `convert` with its element.
    fn read_each<T>(
        &mut self,
        out: &mut [T],
        mut convert: impl FnMut(&mut T, u64),
    ) -> io::Result<()> {
        for part in out.chunks_mut(CHUNK_WORDS) {
            let bytes = &mut self.buffer[..part.len() * 8];
            self.input.read_exact(bytes)?;
            for (slot, word) in part.iter_mut().zip(bytes.chunks_exact(8)) {
                let mut le = [0; 8];
                le.copy_from_slice(word);
                convert(slot, u64::from_le_bytes(le));
            }
        }
        Ok(())
    }

    /// Whether the input has no byte left.
    fn at_end(&mut self) -> io::Result<bool> {
        Ok(self.input.read(&mut [0])? == 0)
    }
}

/// The image's running digest: per word one xor, one multiply by an odd
/// constant and a rotate. Each step is a bijection of the running value,
/// so changing any one word changes the digest.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn absorb(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }
}

/// Writes `fleet`'s checkpoint over the previous one, after writing its
/// fleet image when none exists yet. Returns `true` only once the new
/// checkpoint is in place; `false` when the cache is disabled or the
/// write failed (the previous checkpoint, if any, is left as it was). A
/// failed image write costs only the next resume's speed, so it does
/// not fail the save.
#[allow(clippy::must_use_candidate)] // called for its side effect; the result is optional
pub fn save(cache: &ResultCache, fleet: &FleetState) -> bool {
    let Some(path) = checkpoint_path(cache, fleet.config()) else {
        return false;
    };
    if let Some(image) = image_path(cache, fleet.config()).filter(|image| !image.exists()) {
        let _span = span!("fleet.checkpoint.image_write");
        let _ = publish(&image, |out| write_image(fleet, out));
    }
    publish(&path, |out| write(fleet, out)).is_ok()
}

/// Streams `contents` into a sibling temp file of `path` and syncs it to
/// disk, then renames it over `path`, so a crash leaves either the old
/// file or the new one. A failed write removes the temp file.
fn publish(
    path: &Path,
    contents: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let written = (|| {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(&tmp)?);
        contents(&mut out)?;
        out.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
        fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

/// Resumes a fleet from its newest checkpoint: checks the checkpoint's
/// header, reads the fleet image (or, when there is none or it is
/// refused, re-samples the constants from the seed), then overlays the
/// checkpoint. A refused image is deleted, so the next save writes a
/// new one.
///
/// # Errors
///
/// [`CheckpointError::Missing`] when the cache is disabled or holds no
/// checkpoint for `config`; otherwise whatever [`read`] refuses.
pub fn resume(
    cache: &ResultCache,
    config: &FleetConfig,
) -> Result<(FleetState, ImageStatus), CheckpointError> {
    let path = checkpoint_path(cache, config).ok_or(CheckpointError::Missing)?;
    let file = File::open(path).map_err(|err| match err.kind() {
        io::ErrorKind::NotFound => CheckpointError::Missing,
        _ => CheckpointError::Io(err),
    })?;
    let mut input = BufReader::new(file);
    let header = read_header(config, &mut input)?;
    let (fleet, image) = load_image(cache, config);
    Ok((header.read_columns(fleet, &mut input)?, image))
}

/// The fresh fleet of `config` read from its image under `cache`, or
/// re-sampled from the seed when there is none or it is refused. A
/// refused image is deleted.
fn load_image(cache: &ResultCache, config: &FleetConfig) -> (FleetState, ImageStatus) {
    let Some(path) = image_path(cache, config) else {
        return (FleetState::build(config.clone()), ImageStatus::Missing);
    };
    let read = File::open(&path).and_then(|file| Ok((file.metadata()?.len(), file)));
    let refused = match read {
        Err(err) if err.kind() == io::ErrorKind::NotFound => {
            return (FleetState::build(config.clone()), ImageStatus::Missing);
        }
        Err(err) => ImageError::Io(err),
        Ok((len, file)) => match read_image(config, &mut BufReader::new(file), len) {
            Ok(fleet) => return (fleet, ImageStatus::Loaded),
            Err(refused) => refused,
        },
    };
    let _ = fs::remove_file(&path);
    (
        FleetState::build(config.clone()),
        ImageStatus::Refused(refused),
    )
}

/// Where `config`'s checkpoint lives under `cache`'s root; `None` when
/// the cache is disabled.
fn checkpoint_path(cache: &ResultCache, config: &FleetConfig) -> Option<PathBuf> {
    store_path(
        cache,
        config,
        CHECKPOINT_NAMESPACE,
        CHECKPOINT_VERSION,
        "ckpt",
    )
}

/// Where `config`'s fleet image lives under `cache`'s root; `None` when
/// the cache is disabled.
fn image_path(cache: &ResultCache, config: &FleetConfig) -> Option<PathBuf> {
    store_path(cache, config, IMAGE_NAMESPACE, IMAGE_VERSION, "img")
}

fn store_path(
    cache: &ResultCache,
    config: &FleetConfig,
    namespace: &str,
    version: u32,
    extension: &str,
) -> Option<PathBuf> {
    cache.is_active().then(|| {
        cache
            .entry_path(namespace, version, &checkpoint_key(config))
            .with_extension(extension)
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

    fn scratch_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("selfheal-fleet-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    fn scratch_cache(tag: &str) -> ResultCache {
        ResultCache::at(scratch_root(tag))
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
            Ok((fleet, image)) => {
                assert!(matches!(image, ImageStatus::Loaded), "{image:?}");
                fleet
            }
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
            Ok((fleet, _)) => fleet,
            Err(err) => panic!("resume must find the newest snapshot: {err}"),
        };
        assert_eq!(resumed.epoch(), 8);
        assert_eq!(resumed.mutation_digest(), fleet.mutation_digest());
        assert_eq!(resumed.state_digest(), fleet.state_digest());
        let _ = fs::remove_dir_all(&root);
    }

    fn encode_image(fleet: &FleetState) -> Vec<u8> {
        let mut bytes = Vec::new();
        if let Err(err) = write_image(fleet, &mut bytes) {
            panic!("writing into a Vec cannot fail: {err}");
        }
        bytes
    }

    fn decode_image(config: &FleetConfig, bytes: &[u8]) -> Result<FleetState, ImageError> {
        read_image(config, &mut &bytes[..], bytes.len() as u64)
    }

    /// `loaded` holds `built`'s shards bit for bit: every chip slot and
    /// all four bank columns.
    fn assert_same_fleet(loaded: &FleetState, built: &FleetState, context: &str) {
        let bits = |column: &[f64]| column.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(loaded.epoch(), built.epoch(), "{context}");
        assert_eq!(
            loaded.mutation_digest(),
            built.mutation_digest(),
            "{context}"
        );
        assert_eq!(loaded.shards().len(), built.shards().len(), "{context}");
        for (index, (a, b)) in loaded.shards().iter().zip(built.shards()).enumerate() {
            assert_eq!(a.first_chip, b.first_chip, "{context}: shard {index}");
            assert_eq!(a.chips, b.chips, "{context}: shard {index}");
            assert_eq!(a.epoch(), b.epoch(), "{context}: shard {index}");
            let (a, b) = (&a.bank, &b.bank);
            assert_eq!(
                bits(a.tau_c0()),
                bits(b.tau_c0()),
                "{context}: shard {index}"
            );
            assert_eq!(bits(a.tau_e()), bits(b.tau_e()), "{context}: shard {index}");
            assert_eq!(
                bits(a.step_mv()),
                bits(b.step_mv()),
                "{context}: shard {index}"
            );
            assert_eq!(
                bits(a.occupancies()),
                bits(b.occupancies()),
                "{context}: shard {index}"
            );
        }
        assert_eq!(loaded.state_digest(), built.state_digest(), "{context}");
    }

    /// An image written by an aged fleet reads back as the fleet a seed
    /// rebuild gives, bit for bit, at one shard, a few uneven ones and
    /// many small ones; and an aged fleet resumed through its image
    /// equals one restored over a seed rebuild.
    #[test]
    fn image_loaded_fleets_equal_seed_built_fleets() {
        for shards in [1, 3, 64] {
            let mut config = tiny_config(11);
            config.chips = 200;
            config.shards = shards;
            config.trap_params.mean_trap_count = 8.0;
            let built = FleetState::build(config.clone());
            let mut aged = built.clone();
            aged.advance_epoch();
            assert!(aged.fold_report(5, DutyCycle::new(0.4)));
            aged.advance_epoch();
            let loaded = match decode_image(&config, &encode_image(&aged)) {
                Ok(loaded) => loaded,
                Err(err) => panic!("{shards} shards: the image must load: {err}"),
            };
            assert_same_fleet(&loaded, &built, &format!("{shards} shards"));

            let root = scratch_root(&format!("image-{shards}"));
            let cache = ResultCache::at(root.clone());
            assert!(save(&cache, &aged));
            let (resumed, image) = match resume(&cache, &config) {
                Ok(resumed) => resumed,
                Err(err) => panic!("{shards} shards: resume must succeed: {err}"),
            };
            assert!(matches!(image, ImageStatus::Loaded), "{image:?}");
            let restored = match read(config.clone(), &mut encode(&aged).as_slice()) {
                Ok(restored) => restored,
                Err(err) => panic!("{shards} shards: read must succeed: {err}"),
            };
            assert_same_fleet(&resumed, &restored, &format!("{shards} shards resumed"));
            let _ = fs::remove_dir_all(&root);
        }
    }

    /// Every truncation, an appended byte and every single-bit flip of
    /// an image is refused or loads the seed build bit for bit, and
    /// nothing panics or allocates from a corrupt length. The digest
    /// covers every word after the key and each of its steps is a
    /// bijection, so in fact no flip loads.
    #[test]
    fn damaged_images_are_refused() {
        let fleet = reported_fleet();
        let config = fleet.config().clone();
        let built = FleetState::build(config.clone());
        let bytes = encode_image(&fleet);
        assert!(decode_image(&config, &bytes).is_ok());
        for len in 0..bytes.len() {
            assert!(
                decode_image(&config, &bytes[..len]).is_err(),
                "truncated to {len} of {} bytes",
                bytes.len()
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode_image(&config, &longer).is_err());
        let mut loaded = 0;
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(fleet) = decode_image(&config, &flipped) {
                assert_same_fleet(&fleet, &built, &format!("bit {bit}"));
                loaded += 1;
            }
        }
        assert_eq!(loaded, 0);
        assert!(matches!(
            decode_image(&tiny_config(4), &bytes),
            Err(ImageError::Invalid("key"))
        ));
    }

    /// `bytes` with the word at byte `offset` replaced by `edit` of it
    /// and the digest recomputed, so only the sampler guard can tell.
    fn edited_image(config: &FleetConfig, bytes: &[u8], offset: usize, edit: f64) -> Vec<u8> {
        let word = |bytes: &[u8], at: usize| {
            let mut le = [0; 8];
            le.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(le)
        };
        let mut edited = bytes.to_vec();
        let value = f64::from_bits(word(bytes, offset)) * edit;
        edited[offset..offset + 8].copy_from_slice(&value.to_bits().to_le_bytes());
        let body = 24 + checkpoint_key(config).len();
        let end = edited.len() - 8;
        let mut digest = Digest::default();
        for at in (body..end).step_by(8) {
            digest.absorb(word(&edited, at));
        }
        edited[end..].copy_from_slice(&digest.0.to_le_bytes());
        edited
    }

    /// An image whose chip-0 constants are not the ones the seed gives
    /// (a sampler change) is refused even though its digest holds; the
    /// same edit to another chip, which the guard does not re-sample,
    /// loads, which shows the digest was rewritten correctly.
    #[test]
    fn an_image_from_another_sampler_is_refused() {
        let fleet = reported_fleet();
        let config = fleet.config().clone();
        let bytes = encode_image(&fleet);
        let shard = &fleet.shards()[0];
        assert!(shard.chips[0].traps.len() >= 1 && shard.chips[1].traps.len() >= 1);
        // Shard 0's tau_c0 column starts after its per-chip trap counts.
        let column = 24 + checkpoint_key(&config).len() + 8 * shard.chips.len();
        let first_chip = edited_image(&config, &bytes, column, 1.5);
        assert!(matches!(
            decode_image(&config, &first_chip),
            Err(ImageError::Invalid("constants differ from the seed's"))
        ));
        let second = column + 8 * shard.chips[1].traps.start;
        let second_chip = edited_image(&config, &bytes, second, 1.5);
        let loaded = match decode_image(&config, &second_chip) {
            Ok(loaded) => loaded,
            Err(err) => panic!("an edit outside chip 0 passes the guard: {err}"),
        };
        assert_ne!(
            loaded.shards()[0].bank.tau_c0(),
            FleetState::build(config).shards()[0].bank.tau_c0()
        );
    }

    /// A resume that finds a damaged image re-samples the constants,
    /// still resumes the checkpoint bit for bit, says why, and deletes
    /// the image so the next save writes a good one.
    #[test]
    fn a_refused_image_resumes_from_the_seed_and_is_rewritten() {
        let root = scratch_root("refused-image");
        let cache = ResultCache::at(root.clone());
        let fleet = reported_fleet();
        let config = fleet.config().clone();
        assert!(save(&cache, &fleet));
        let Some(path) = image_path(&cache, &config) else {
            panic!("an active cache has an image path");
        };
        let mut bytes = fs::read(&path).unwrap_or_default();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        if let Err(err) = fs::write(&path, &bytes) {
            panic!("cannot damage the image: {err}");
        }
        let (resumed, image) = match resume(&cache, &config) {
            Ok(resumed) => resumed,
            Err(err) => panic!("a damaged image must not refuse the checkpoint: {err}"),
        };
        assert!(
            matches!(image, ImageStatus::Refused(ImageError::Invalid("digest"))),
            "{image:?}"
        );
        assert_eq!(resumed.state_digest(), fleet.state_digest());
        assert!(!path.exists(), "the refused image is deleted");
        assert!(save(&cache, &resumed));
        assert_eq!(fs::read(&path).ok(), Some(encode_image(&fleet)));
        let (_, image) = match resume(&cache, &config) {
            Ok(resumed) => resumed,
            Err(err) => panic!("resume must succeed: {err}"),
        };
        assert!(matches!(image, ImageStatus::Loaded), "{image:?}");
        let _ = fs::remove_dir_all(&root);
    }
}
