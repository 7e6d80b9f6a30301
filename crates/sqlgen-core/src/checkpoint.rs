//! Versioned policy checkpoints.
//!
//! A checkpoint is a one-line magic/version header followed by a JSON
//! payload carrying the actor, the critic (when the algorithm has one) and
//! enough configuration to validate compatibility at load time:
//!
//! ```text
//! sqlgen-checkpoint v1
//! {"config":{...},"actor":{...},"critic":{...}}
//! ```
//!
//! The header lets loaders reject future formats with a typed
//! [`CheckpointError::UnsupportedVersion`] instead of a serde panic, and
//! lets tools identify checkpoint files cheaply (read one line). Input
//! without the header — including bare `ActorNet` JSON — is rejected with
//! [`CheckpointError::BadMagic`].
//!
//! [`write_atomic`] publishes checkpoints via tmp-file + `rename` so a
//! concurrently-scanning model registry never observes a torn file.

use serde::{Deserialize, Serialize};
use sqlgen_rl::{ActorNet, Constraint, CriticNet, NetConfig, QuantizedActor};
use std::fmt;
use std::path::Path;

/// First token of the header line.
pub const CHECKPOINT_MAGIC: &str = "sqlgen-checkpoint";
/// Current (and only) supported format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Typed checkpoint failure — every malformed input maps here, never to a
/// panic.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The input does not start with the versioned checkpoint header.
    BadMagic,
    /// Header is well-formed but names a version this build cannot read.
    UnsupportedVersion { found: u32, supported: u32 },
    /// Header or payload failed to parse.
    Parse(String),
    /// The checkpoint's network was trained over a different action space
    /// than the loader's vocabulary.
    VocabMismatch { expected: usize, found: usize },
    /// Filesystem error while reading or (atomically) writing.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => {
                write!(f, "not a checkpoint: missing `{CHECKPOINT_MAGIC}` header")
            }
            CheckpointError::UnsupportedVersion { found, supported } => {
                write!(f, "checkpoint format v{found} is newer than supported v{supported}")
            }
            CheckpointError::Parse(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::VocabMismatch { expected, found } => write!(
                f,
                "checkpoint vocabulary size {found} does not match the current action space {expected} \
                 (was it trained on a different schema or sample config?)"
            ),
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// Configuration block stored alongside the weights. Optional fields are
/// `None` when the writer did not record them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointMeta {
    /// `"actor-critic"` or `"reinforce"`.
    pub algorithm: String,
    /// Action-space size the networks were trained over; validated against
    /// the loader's vocabulary.
    pub vocab_size: usize,
    pub net: Option<NetConfig>,
    /// Constraint the policy was trained for (provenance; loading under a
    /// different constraint is allowed).
    pub constraint: Option<Constraint>,
}

/// A versioned policy checkpoint: actor + optional critic + config.
#[derive(Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    pub config: CheckpointMeta,
    pub actor: ActorNet,
    pub critic: Option<CriticNet>,
}

impl Checkpoint {
    /// Serializes to the on-disk format (header line + JSON payload).
    pub fn render(&self) -> String {
        let payload = serde_json::to_string(self).expect("checkpoint serializes");
        format!("{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\n{payload}\n")
    }

    /// Parses a versioned checkpoint. Weight buffers are restored; the
    /// result is ready to run.
    pub fn parse(text: &str) -> Result<Checkpoint, CheckpointError> {
        let mut ckpt = Self::parse_raw(text)?;
        ckpt.actor.restore_buffers();
        if let Some(critic) = &mut ckpt.critic {
            critic.restore_buffers();
        }
        Ok(ckpt)
    }

    /// Builds an int8 per-output-channel quantized snapshot of this
    /// checkpoint's actor (quantize-at-load: checkpoints always store f32
    /// weights; the int8 form exists only in memory). See
    /// `sqlgen_nn::quant` for the format and error bound.
    pub fn quantized_actor(&self) -> QuantizedActor {
        QuantizedActor::from_actor(&self.actor)
    }

    /// Like [`Checkpoint::parse`], then validates the action space against
    /// `expected_vocab` (both actor and critic).
    pub fn parse_for_vocab(
        text: &str,
        expected_vocab: usize,
    ) -> Result<Checkpoint, CheckpointError> {
        let ckpt = Self::parse(text)?;
        for found in
            std::iter::once(ckpt.actor.vocab_size).chain(ckpt.critic.as_ref().map(|c| c.vocab_size))
        {
            if found != expected_vocab {
                return Err(CheckpointError::VocabMismatch {
                    expected: expected_vocab,
                    found,
                });
            }
        }
        Ok(ckpt)
    }

    fn parse_raw(text: &str) -> Result<Checkpoint, CheckpointError> {
        let trimmed = text.trim_start();
        if !trimmed.starts_with(CHECKPOINT_MAGIC) {
            return Err(CheckpointError::BadMagic);
        }
        let (header, payload) = trimmed
            .split_once('\n')
            .ok_or_else(|| CheckpointError::Parse("missing payload after header".to_string()))?;
        let version_tok = header[CHECKPOINT_MAGIC.len()..].trim();
        let version: u32 = version_tok
            .strip_prefix('v')
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| CheckpointError::Parse(format!("bad version token `{version_tok}`")))?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: CHECKPOINT_VERSION,
            });
        }
        serde_json::from_str(payload).map_err(|e| CheckpointError::Parse(e.to_string()))
    }
}

/// Writes `contents` to `path` atomically (tmp file in the same directory,
/// fsync, then `rename`), so concurrent readers see either the old file or
/// the new one, never a torn write.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), CheckpointError> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let written = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut file, contents.as_bytes())?;
        // Durable before it becomes visible: a crash after the rename must
        // not expose a file whose contents never reached the disk.
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    written.map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        CheckpointError::Io(e.to_string())
    })
}

/// Reads and parses a checkpoint file.
pub fn read_file(path: &Path) -> Result<Checkpoint, CheckpointError> {
    Checkpoint::parse(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgen_rl::NetConfig;

    const NET: NetConfig = NetConfig {
        embed_dim: 4,
        hidden: 4,
        layers: 1,
        dropout: 0.0,
    };

    fn small_actor(vocab: usize) -> ActorNet {
        ActorNet::new(vocab, &NET, 7)
    }

    /// A versioned actor-only checkpoint over a `vocab`-sized action space.
    fn small_ckpt(vocab: usize) -> Checkpoint {
        Checkpoint {
            config: CheckpointMeta {
                algorithm: "actor-critic".to_string(),
                vocab_size: vocab,
                net: Some(NET),
                constraint: Some(Constraint::cardinality_range(1.0, 5.0)),
            },
            actor: small_actor(vocab),
            critic: None,
        }
    }

    #[test]
    fn roundtrip_preserves_weights_and_meta() {
        let ckpt = small_ckpt(11);
        let text = ckpt.render();
        assert!(text.starts_with("sqlgen-checkpoint v1\n"));
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back.config.algorithm, "actor-critic");
        assert_eq!(back.config.vocab_size, 11);
        assert_eq!(back.actor.vocab_size, 11);
        assert!(back.critic.is_none());
        // Weight-level equality via re-serialization.
        assert_eq!(
            serde_json::to_string(&ckpt.actor).unwrap(),
            serde_json::to_string(&back.actor).unwrap()
        );
    }

    #[test]
    fn bare_actor_json_is_rejected_as_bad_magic() {
        let bare = serde_json::to_string(&small_actor(9)).unwrap();
        assert_eq!(
            Checkpoint::parse(&bare).unwrap_err(),
            CheckpointError::BadMagic
        );
        assert_eq!(
            Checkpoint::parse_for_vocab(&bare, 9).unwrap_err(),
            CheckpointError::BadMagic
        );
    }

    #[test]
    fn version_mismatch_is_a_typed_error_not_a_panic() {
        let err = Checkpoint::parse("sqlgen-checkpoint v2\n{}").unwrap_err();
        assert_eq!(
            err,
            CheckpointError::UnsupportedVersion {
                found: 2,
                supported: 1
            }
        );
    }

    #[test]
    fn garbage_inputs_give_typed_errors() {
        assert_eq!(
            Checkpoint::parse("not a checkpoint at all").unwrap_err(),
            CheckpointError::BadMagic
        );
        assert!(matches!(
            Checkpoint::parse("sqlgen-checkpoint vX\n{}").unwrap_err(),
            CheckpointError::Parse(_)
        ));
        assert!(matches!(
            Checkpoint::parse("sqlgen-checkpoint v1").unwrap_err(),
            CheckpointError::Parse(_)
        ));
        assert!(matches!(
            Checkpoint::parse("sqlgen-checkpoint v1\nnot json").unwrap_err(),
            CheckpointError::Parse(_)
        ));
    }

    #[test]
    fn quantize_at_load_roundtrips_through_the_wire_format() {
        let ckpt = small_ckpt(9);
        let back = Checkpoint::parse(&ckpt.render()).unwrap();
        let q = back.quantized_actor();
        assert_eq!(q.vocab_size, 9);
        // Same weights in, same int8 snapshot out.
        let direct = ckpt.quantized_actor();
        assert_eq!(q.head.w.data, direct.head.w.data);
        assert_eq!(q.head.w.scales, direct.head.w.scales);
    }

    #[test]
    fn vocab_validation_rejects_mismatched_checkpoints() {
        let text = small_ckpt(9).render();
        let err = Checkpoint::parse_for_vocab(&text, 13).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::VocabMismatch {
                expected: 13,
                found: 9
            }
        );
        assert!(Checkpoint::parse_for_vocab(&text, 9).is_ok());
    }

    #[test]
    fn write_atomic_replaces_file_without_leaving_tmp() {
        let dir = std::env::temp_dir().join(format!("sqlgen-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        write_atomic(&path, "first").unwrap();
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers.len(), 1, "tmp file leaked: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
