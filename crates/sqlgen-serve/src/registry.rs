//! Versioned model registry with hot-swap.
//!
//! The registry serves one schema's policy. It holds the current
//! [`ServedModel`] behind `RwLock<Arc<..>>`: readers (`current()`) clone
//! the `Arc` under a read lock and keep generating on that snapshot while a
//! swap replaces the pointer — in-flight windows finish on the weights they
//! started with.
//!
//! When built with a checkpoint directory, [`ModelRegistry::refresh`] scans
//! it for `*.ckpt` files, orders them by the version number embedded in the
//! file name (trailing integer of the stem: `policy-v12.ckpt` → 12,
//! versionless names → 0) and loads the newest one whose vocabulary matches
//! the schema — so a trainer can publish `policy-v13.ckpt` via the atomic
//! tmp-file + rename writer in `sqlgen-core::checkpoint` and the server
//! picks it up without restarting. Files that fail to parse or validate
//! are skipped (the error is logged; the server keeps serving the old
//! policy).

use sqlgen_core::checkpoint::{read_file, CheckpointError};
use sqlgen_rl::{ActorNet, QuantizedActor};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::SystemTime;

/// An immutable, ready-to-run policy snapshot.
pub struct ServedModel {
    /// File stem the model came from, or `"builtin"` for the bootstrap
    /// policy.
    pub label: String,
    /// Version parsed from the file name (0 when versionless/builtin).
    pub version: u64,
    pub actor: ActorNet,
    /// Int8 snapshot of `actor`, present iff the registry quantizes.
    /// Built at load/publish time (checkpoints always store f32 weights);
    /// generation windows run on it when present.
    pub quant: Option<QuantizedActor>,
}

/// What the last successful load came from, to make `refresh` a no-op when
/// nothing changed on disk.
#[derive(PartialEq, Clone)]
struct LoadedFrom {
    path: PathBuf,
    mtime: Option<SystemTime>,
}

pub struct ModelRegistry {
    dir: Option<PathBuf>,
    vocab_size: usize,
    /// Quantize-at-load: every model installed in this registry carries an
    /// int8 snapshot alongside its f32 weights.
    quantize: bool,
    current: RwLock<Arc<ServedModel>>,
    loaded_from: Mutex<Option<LoadedFrom>>,
    /// Lock-free mirror of `current().version`, so per-request routing
    /// (`ShardPool::try_push`) never touches the `RwLock`.
    version_hint: AtomicU64,
    /// Bumped on every publish. Shard workers cache the `Arc<ServedModel>`
    /// they last read and only re-read `current()` when this moves, so the
    /// steady-state per-window cost is one atomic load instead of a read
    /// lock + `Arc` clone.
    generation: AtomicU64,
}

/// Trailing integer of the file stem: `policy-v12` → 12, `7` → 7, else 0.
fn file_version(stem: &str) -> u64 {
    let digits: String = stem
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_digit())
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    digits.parse().unwrap_or(0)
}

impl ModelRegistry {
    /// A registry pinned to `initial`, optionally watching `dir` for
    /// checkpoint files. With `quantize`, every installed model (including
    /// `initial`) gets an int8 snapshot built from its f32 weights.
    pub fn new(
        mut initial: ServedModel,
        dir: Option<PathBuf>,
        vocab_size: usize,
        quantize: bool,
    ) -> Self {
        initial.quant = quantize.then(|| QuantizedActor::from_actor(&initial.actor));
        sqlgen_obs::obs_gauge!("serve.model.version", initial.version as f64);
        sqlgen_obs::obs_gauge!("serve.model.quantized", if quantize { 1.0 } else { 0.0 });
        let version = initial.version;
        ModelRegistry {
            dir,
            vocab_size,
            quantize,
            version_hint: AtomicU64::new(version),
            generation: AtomicU64::new(0),
            current: RwLock::new(Arc::new(initial)),
            loaded_from: Mutex::new(None),
        }
    }

    /// Whether models in this registry run int8 quantized inference.
    pub fn quantized(&self) -> bool {
        self.quantize
    }

    /// The policy requests should run on right now.
    pub fn current(&self) -> Arc<ServedModel> {
        self.current.read().expect("registry lock").clone()
    }

    /// The current model's version without taking the read lock. Routing
    /// uses this; it may trail `current().version` by one publish for a
    /// moment, which only shifts which shard a racing request lands on —
    /// purity means the response bytes cannot change.
    pub fn version_hint(&self) -> u64 {
        self.version_hint.load(Ordering::Acquire)
    }

    /// Publish counter. Moves exactly when `current()` would return a new
    /// `Arc`; equal generations mean a cached snapshot is still current.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Installs `model` as current (hot-swap). Training loops and tests use
    /// this to publish without going through the filesystem. When the
    /// registry quantizes, the int8 snapshot is (re)built here so published
    /// models never serve stale or missing quantized weights.
    pub fn publish(&self, mut model: ServedModel) {
        model.quant = self
            .quantize
            .then(|| QuantizedActor::from_actor(&model.actor));
        sqlgen_obs::obs_gauge!("serve.model.version", model.version as f64);
        sqlgen_obs::obs_gauge!(
            "serve.model.quantized",
            if model.quant.is_some() { 1.0 } else { 0.0 }
        );
        sqlgen_obs::obs_count!("serve.model.swaps.count");
        let version = model.version;
        *self.current.write().expect("registry lock") = Arc::new(model);
        // Swap first, bump after: a reader that sees the new generation is
        // then guaranteed to read the new pointer, so cached snapshots can
        // go stale-by-one but never stick.
        self.version_hint.store(version, Ordering::Release);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Re-scans the checkpoint directory and swaps in the best candidate if
    /// it differs from what is loaded. Returns `Ok(true)` when a swap
    /// happened. Without a directory this is a no-op.
    pub fn refresh(&self) -> Result<bool, CheckpointError> {
        let Some(dir) = &self.dir else {
            return Ok(false);
        };
        let mut candidates = scan_checkpoints(dir)?;
        // Highest version first; name as tie-break so the order is total.
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| b.1.cmp(&a.1)));
        let mut last_err: Option<CheckpointError> = None;
        for (version, path) in candidates {
            let mtime = std::fs::metadata(&path).and_then(|m| m.modified()).ok();
            let from = LoadedFrom {
                path: path.clone(),
                mtime,
            };
            if self.loaded_from.lock().expect("loaded_from").as_ref() == Some(&from) {
                return Ok(false); // best candidate is already serving
            }
            match self.load_file(&path, version) {
                Ok(model) => {
                    let label = model.label.clone();
                    self.publish(model);
                    *self.loaded_from.lock().expect("loaded_from") = Some(from);
                    sqlgen_obs::obs_info!("[serve] loaded model {label} v{version}");
                    return Ok(true);
                }
                Err(e) => {
                    sqlgen_obs::obs_warn!("[serve] skipping checkpoint {}: {e}", path.display());
                    last_err = Some(e);
                }
            }
        }
        match last_err {
            // Every candidate was broken — surface the last failure.
            Some(e) => Err(e),
            None => Ok(false),
        }
    }

    fn load_file(&self, path: &Path, version: u64) -> Result<ServedModel, CheckpointError> {
        let ckpt = read_file(path)?;
        if ckpt.actor.vocab_size != self.vocab_size {
            return Err(CheckpointError::VocabMismatch {
                expected: self.vocab_size,
                found: ckpt.actor.vocab_size,
            });
        }
        let label = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "checkpoint".to_string());
        Ok(ServedModel {
            label,
            version,
            actor: ckpt.actor,
            quant: None, // built by `publish`
        })
    }
}

fn scan_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "ckpt") {
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            out.push((file_version(&stem), path));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgen_core::checkpoint::{write_atomic, Checkpoint, CheckpointMeta};
    use sqlgen_rl::NetConfig;

    const NET: NetConfig = NetConfig {
        embed_dim: 4,
        hidden: 4,
        layers: 1,
        dropout: 0.0,
    };

    fn actor(vocab: usize, seed: u64) -> ActorNet {
        ActorNet::new(vocab, &NET, seed)
    }

    /// A versioned actor-only checkpoint file body.
    fn ckpt(vocab: usize, seed: u64) -> String {
        Checkpoint {
            config: CheckpointMeta {
                algorithm: "actor-critic".to_string(),
                vocab_size: vocab,
                net: Some(NET),
                constraint: None,
            },
            actor: actor(vocab, seed),
            critic: None,
        }
        .render()
    }

    fn builtin(vocab: usize) -> ServedModel {
        ServedModel {
            label: "builtin".to_string(),
            version: 0,
            actor: actor(vocab, 1),
            quant: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sqlgen-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_version_parses_trailing_digits() {
        assert_eq!(file_version("policy-v12"), 12);
        assert_eq!(file_version("7"), 7);
        assert_eq!(file_version("model"), 0);
        assert_eq!(file_version("v2-final"), 0);
    }

    #[test]
    fn refresh_loads_highest_version_and_is_idempotent() {
        let dir = tmp_dir("load");
        for (name, seed) in [("policy-v1.ckpt", 2u64), ("policy-v3.ckpt", 3)] {
            let text = ckpt(9, seed);
            write_atomic(&dir.join(name), &text).unwrap();
        }
        let reg = ModelRegistry::new(builtin(9), Some(dir.clone()), 9, false);
        assert!(reg.refresh().unwrap());
        assert_eq!(reg.current().version, 3);
        assert_eq!(reg.current().label, "policy-v3");
        assert!(reg.current().quant.is_none());
        // Unchanged directory → no swap.
        assert!(!reg.refresh().unwrap());
        // A newer publish is picked up.
        write_atomic(&dir.join("policy-v5.ckpt"), &ckpt(9, 9)).unwrap();
        assert!(reg.refresh().unwrap());
        assert_eq!(reg.current().version, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refresh_skips_mismatched_and_corrupt_checkpoints() {
        let dir = tmp_dir("skip");
        // v9 has the wrong vocabulary, v8 is garbage — v2 should win.
        write_atomic(&dir.join("bad-vocab-v9.ckpt"), &ckpt(5, 1)).unwrap();
        write_atomic(&dir.join("corrupt-v8.ckpt"), "not a checkpoint").unwrap();
        write_atomic(&dir.join("good-v2.ckpt"), &ckpt(9, 4)).unwrap();
        let reg = ModelRegistry::new(builtin(9), Some(dir.clone()), 9, false);
        assert!(reg.refresh().unwrap());
        assert_eq!(reg.current().label, "good-v2");
        // Only broken candidates → typed error, old model keeps serving.
        let reg5 = ModelRegistry::new(builtin(5), Some(dir.clone()), 5, false);
        std::fs::remove_file(dir.join("bad-vocab-v9.ckpt")).unwrap();
        std::fs::remove_file(dir.join("good-v2.ckpt")).unwrap();
        assert!(reg5.refresh().is_err());
        assert_eq!(reg5.current().label, "builtin");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn publish_hot_swaps_under_readers() {
        let reg = ModelRegistry::new(builtin(9), None, 9, false);
        let before = reg.current();
        reg.publish(ServedModel {
            label: "swapped".to_string(),
            version: 7,
            actor: actor(9, 42),
            quant: None,
        });
        // The old snapshot is still usable; new readers see the new model.
        assert_eq!(before.label, "builtin");
        assert_eq!(reg.current().label, "swapped");
        assert_eq!(reg.current().version, 7);
    }

    #[test]
    fn version_hint_and_generation_track_publishes() {
        let reg = ModelRegistry::new(builtin(9), None, 9, false);
        assert_eq!(reg.version_hint(), 0);
        assert_eq!(reg.generation(), 0);
        reg.publish(ServedModel {
            label: "v7".to_string(),
            version: 7,
            actor: actor(9, 42),
            quant: None,
        });
        assert_eq!(reg.version_hint(), 7);
        assert_eq!(reg.generation(), 1);
        assert_eq!(reg.current().version, reg.version_hint());
        reg.publish(ServedModel {
            label: "v9".to_string(),
            version: 9,
            actor: actor(9, 43),
            quant: None,
        });
        assert_eq!(reg.version_hint(), 9);
        assert_eq!(reg.generation(), 2);
    }

    #[test]
    fn quantizing_registry_snapshots_every_installed_model() {
        let dir = tmp_dir("quant");
        write_atomic(&dir.join("policy-v4.ckpt"), &ckpt(9, 6)).unwrap();
        let reg = ModelRegistry::new(builtin(9), Some(dir.clone()), 9, true);
        assert!(reg.quantized());
        // The bootstrap model is quantized up front...
        assert!(reg.current().quant.is_some());
        // ...and so is every model loaded from disk or published in-process.
        assert!(reg.refresh().unwrap());
        let loaded = reg.current();
        assert_eq!(loaded.label, "policy-v4");
        let q = loaded.quant.as_ref().expect("quantized at load");
        assert_eq!(q.vocab_size, 9);
        reg.publish(ServedModel {
            label: "published".to_string(),
            version: 9,
            actor: actor(9, 42),
            quant: None,
        });
        assert!(reg.current().quant.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
