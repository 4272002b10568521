//! Where the on-disk stores live.
//!
//! A [`ResultCache`] names files under one root directory, keyed by a
//! content hash of a configuration string: the same FNV-1a hash the
//! telemetry [`RunManifest`](selfheal_telemetry::RunManifest) stamps
//! into run records. The fleet daemon keeps its checkpoint and fleet
//! image there, each in its own file format; the cache itself reads and
//! writes nothing.
//!
//! # Invalidation
//!
//! Three independent mechanisms, all explicit:
//!
//! 1. **Key content**: the key string must encode *every* input that
//!    affects the file's contents. Different content → different hash →
//!    different file.
//! 2. **Namespace version**: each caller passes a `version` bumped
//!    whenever its file format changes meaning. Old files are simply
//!    never read again.
//! 3. **Deletion**: the standard root lives under `target/`, so
//!    `cargo clean` (or removing `target/cache/`) wipes it wholesale.

use std::path::{Path, PathBuf};

use selfheal_telemetry::manifest::fnv1a;

/// Bump to orphan every existing file at once (naming changes).
const CACHE_FORMAT: u32 = 1;

/// The root directory of the on-disk stores, or none at all.
#[derive(Debug, Clone)]
pub struct ResultCache {
    root: Option<PathBuf>,
}

impl ResultCache {
    /// The standard store at `target/cache/` (relative to the working
    /// directory).
    #[must_use]
    pub fn standard() -> ResultCache {
        ResultCache::at(Path::new("target").join("cache"))
    }

    /// A store rooted at `root` (tests point this at a temp dir).
    #[must_use]
    pub fn at(root: PathBuf) -> ResultCache {
        ResultCache { root: Some(root) }
    }

    /// A store that names no file — the one off switch (`fleetd
    /// --no-cache` builds this).
    #[must_use]
    pub fn disabled() -> ResultCache {
        ResultCache { root: None }
    }

    /// The file for `(namespace, version, key)` with `extension`, or
    /// `None` when the store is [disabled](Self::disabled). The `key`
    /// string must encode every input the file depends on; `version` is
    /// the caller's format version.
    #[must_use]
    pub fn entry_path(
        &self,
        namespace: &str,
        version: u32,
        key: &str,
        extension: &str,
    ) -> Option<PathBuf> {
        let root = self.root.as_ref()?;
        let hash = fnv1a(key.as_bytes());
        let name = format!("f{CACHE_FORMAT}-v{version}-{hash:016x}.{extension}");
        Some(root.join(namespace).join(name))
    }
}
