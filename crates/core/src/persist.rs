//! Saving and loading trained predictors.
//!
//! A [`NumericPredictor`] is plain data (configuration + parameter store +
//! head handles), so persistence is a serde round trip. JSON is used because
//! it is the only serde format crate in the dependency whitelist; models in
//! this reproduction are ~100k parameters, for which JSON remains practical.
//!
//! Saved files are versioned: the on-disk form is an envelope
//! `{"format_version": N, "model": {...}}`, optionally followed by a
//! `"calibration"` section ([`CalibrationMeta`]) recording the provenance
//! of online-calibrated weights (format version 2). [`NumericPredictor::load`]
//! checks the version before touching the payload, so a file written by a
//! newer incompatible release is rejected with a clear
//! [`PersistError::Version`] naming both versions instead of failing deep in
//! deserialization on whichever field happened to change. Files written by
//! any version back to [`MIN_FORMAT_VERSION`] still load: version 2 only
//! *added* the optional calibration section, and version 3 only *dropped*
//! the payload's `beam_width` field, which older files still carry and the
//! loader ignores as an unknown key.

use crate::model::NumericPredictor;
use crate::online::CalibrationMeta;
use serde::Value;
use std::fmt;
use std::path::Path;

/// The model file format version this build writes. Bump it when the
/// serialized layout changes; raise [`MIN_FORMAT_VERSION`] too only when
/// the change is incompatible with older payloads.
///
/// History: 1 = initial envelope; 2 = optional `calibration` provenance
/// section next to the (unchanged) model payload; 3 = the payload's
/// `beam_width` field is gone (decoding is greedy).
pub const FORMAT_VERSION: u64 = 3;

/// The oldest model file format version this build still reads.
pub const MIN_FORMAT_VERSION: u64 = 1;

/// Errors from model persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Serialization/deserialization failure.
    Codec(serde_json::Error),
    /// The file's `format_version` is missing or not one this build reads.
    Version {
        /// The version the file declares (`None` when the envelope has no
        /// `format_version` field at all — a pre-versioning or foreign file).
        found: Option<u64>,
        /// The version this build supports.
        supported: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "model file i/o failed: {e}"),
            PersistError::Codec(e) => write!(f, "model encoding failed: {e}"),
            PersistError::Version {
                found: Some(v),
                supported,
            } => write!(
                f,
                "unsupported model format version {v} (this build reads versions \
                 {MIN_FORMAT_VERSION} through {supported}; re-train the model or use a \
                 matching release)"
            ),
            PersistError::Version {
                found: None,
                supported,
            } => write!(
                f,
                "model file has no format_version field (expected version {supported}; \
                 the file predates versioning or is not a model file)"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Codec(e) => Some(e),
            PersistError::Version { .. } => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Codec(e)
    }
}

impl NumericPredictor {
    /// Serializes the model (config + weights) inside the versioned
    /// envelope to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Codec`] if serialization fails.
    pub fn to_json(&self) -> Result<String, PersistError> {
        let envelope = Value::Object(vec![
            ("format_version".to_string(), Value::U64(FORMAT_VERSION)),
            ("model".to_string(), serde::Serialize::serialize_value(self)),
        ]);
        Ok(serde_json::to_string(&envelope)?)
    }

    /// Like [`NumericPredictor::to_json`], with a `calibration` provenance
    /// section recording how the weights were produced by the online
    /// calibration loop (see [`crate::online`]).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Codec`] if serialization fails.
    pub fn to_json_calibrated(&self, meta: &CalibrationMeta) -> Result<String, PersistError> {
        let envelope = Value::Object(vec![
            ("format_version".to_string(), Value::U64(FORMAT_VERSION)),
            ("model".to_string(), serde::Serialize::serialize_value(self)),
            (
                "calibration".to_string(),
                serde::Serialize::serialize_value(meta),
            ),
        ]);
        Ok(serde_json::to_string(&envelope)?)
    }

    /// Reconstructs a model from [`NumericPredictor::to_json`] output.
    ///
    /// Files written by [`NumericPredictor::to_json_calibrated`] also load
    /// here; the calibration section is ignored. Use
    /// [`NumericPredictor::from_json_calibrated`] to recover it.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Codec`] on malformed input and
    /// [`PersistError::Version`] when the envelope's `format_version` is
    /// absent or outside `MIN_FORMAT_VERSION..=FORMAT_VERSION`.
    pub fn from_json(json: &str) -> Result<NumericPredictor, PersistError> {
        Ok(NumericPredictor::from_json_calibrated(json)?.0)
    }

    /// Reconstructs a model plus its calibration provenance (when present —
    /// plain [`NumericPredictor::to_json`] files yield `None`).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`NumericPredictor::from_json`].
    pub fn from_json_calibrated(
        json: &str,
    ) -> Result<(NumericPredictor, Option<CalibrationMeta>), PersistError> {
        let envelope = serde_json::parse_value(json)?;
        let Some(pairs) = envelope.as_object() else {
            return Err(PersistError::Codec(serde_json::Error::new(
                "model file is not a JSON object",
            )));
        };
        let version = pairs.iter().find(|(k, _)| k == "format_version");
        let found = match version.map(|(_, v)| v) {
            Some(Value::U64(v)) => *v,
            Some(Value::I64(v)) if *v >= 0 => *v as u64,
            // Present but not an integer counts as "declares no readable
            // version" — same rejection path as a missing field.
            _ => {
                return Err(PersistError::Version {
                    found: None,
                    supported: FORMAT_VERSION,
                })
            }
        };
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&found) {
            return Err(PersistError::Version {
                found: Some(found),
                supported: FORMAT_VERSION,
            });
        }
        let model = pairs
            .iter()
            .find(|(k, _)| k == "model")
            .map(|(_, v)| v)
            .ok_or_else(|| {
                PersistError::Codec(serde_json::Error::new("envelope has no `model` field"))
            })?;
        let model = <NumericPredictor as serde::Deserialize>::deserialize_value(model)
            .map_err(serde_json::Error::from)?;
        let meta = pairs
            .iter()
            .find(|(k, _)| k == "calibration")
            .map(|(_, v)| {
                <CalibrationMeta as serde::Deserialize>::deserialize_value(v)
                    .map_err(serde_json::Error::from)
            })
            .transpose()?;
        Ok((model, meta))
    }

    /// Writes the model to a file atomically: parent directories are created
    /// as needed, the JSON goes to a sibling temporary file, and a rename
    /// publishes it — a crash or full disk mid-write never leaves a torn,
    /// unloadable model file (see [`crate::cache::write_atomic`]).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem or encoding failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        crate::cache::write_atomic(path, &self.to_json()?)?;
        Ok(())
    }

    /// Loads a model from a file written by [`NumericPredictor::save`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem or decoding failure, including
    /// [`PersistError::Version`] for files from an incompatible release.
    pub fn load(path: impl AsRef<Path>) -> Result<NumericPredictor, PersistError> {
        NumericPredictor::from_json(&std::fs::read_to_string(path)?)
    }

    /// Writes the model plus calibration provenance atomically, with the
    /// same crash-safety guarantees as [`NumericPredictor::save`]. This is
    /// the checkpoint format the online [`crate::online::Calibrator`] writes
    /// so a restarted daemon resumes its learned corrections.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem or encoding failure.
    pub fn save_calibrated(
        &self,
        path: impl AsRef<Path>,
        meta: &CalibrationMeta,
    ) -> Result<(), PersistError> {
        crate::cache::write_atomic(path, &self.to_json_calibrated(meta)?)?;
        Ok(())
    }

    /// Loads a model and its calibration provenance from a file written by
    /// [`NumericPredictor::save_calibrated`] (or, with `None` metadata, by
    /// plain [`NumericPredictor::save`]).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem or decoding failure, including
    /// [`PersistError::Version`] for files from an incompatible release.
    pub fn load_calibrated(
        path: impl AsRef<Path>,
    ) -> Result<(NumericPredictor, Option<CalibrationMeta>), PersistError> {
        NumericPredictor::from_json_calibrated(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelScale, PredictorConfig};
    use crate::numeric::DigitCodec;
    use llmulator_token::NumericMode;

    fn tiny() -> NumericPredictor {
        NumericPredictor::new(PredictorConfig {
            scale: ModelScale::Small,
            codec: DigitCodec::decimal(4),
            numeric_mode: NumericMode::Digits,
            max_len: 32,
            seed: 21,
        })
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let model = tiny();
        let tokens: Vec<u32> = vec![4, 5, 6, 7, 8];
        let before = model.predict_tokens(&tokens, None);
        let restored =
            NumericPredictor::from_json(&model.to_json().expect("encodes")).expect("decodes");
        let after = restored.predict_tokens(&tokens, None);
        for (a, b) in before.per_metric.iter().zip(&after.per_metric) {
            assert_eq!(a.digits, b.digits);
            assert!((a.confidence - b.confidence).abs() < 1e-6);
        }
    }

    #[test]
    fn saved_json_declares_the_current_format_version() {
        let json = tiny().to_json().expect("encodes");
        assert!(
            json.starts_with(&format!("{{\"format_version\":{FORMAT_VERSION}")),
            "envelope leads with the version: {}",
            &json[..60.min(json.len())]
        );
    }

    /// Per-process unique scratch directory: concurrent `cargo test` runs on
    /// one machine must not race on a shared `model.json`.
    fn unique_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "llmulator_persist_test_{}_{}_{n}",
            tag,
            std::process::id()
        ))
    }

    #[test]
    fn save_load_file_round_trip() {
        let dir = unique_dir("round_trip");
        let path = dir.join("model.json");
        let model = tiny();
        model.save(&path).expect("saves");
        let restored = NumericPredictor::load(&path).expect("loads");
        assert_eq!(restored.config(), model.config());
        assert_eq!(restored.param_count(), model.param_count());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Satellite (persistence round trip): a calibrated checkpoint saves
    /// atomically, loads bit-identically, carries its provenance, and still
    /// loads through the plain (meta-unaware) path.
    #[test]
    fn calibrated_checkpoint_round_trips_bit_identically() {
        let dir = unique_dir("calibrated");
        let path = dir.join("model.calibrated.json");
        let model = tiny();
        let meta = CalibrationMeta {
            updates: 17,
            hot_swaps: 3,
            source: "dpo-online".to_string(),
        };
        model.save_calibrated(&path, &meta).expect("saves");
        // Atomic write leaves exactly the published file behind.
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(entries.len(), 1, "temp file left behind: {entries:?}");
        let (restored, restored_meta) = NumericPredictor::load_calibrated(&path).expect("loads");
        let restored_meta = restored_meta.expect("meta preserved");
        assert_eq!(restored_meta.updates, 17);
        assert_eq!(restored_meta.hot_swaps, 3);
        assert_eq!(restored_meta.source, "dpo-online");
        let tokens: Vec<u32> = vec![4, 5, 6, 7, 8];
        let before = model.predict_tokens(&tokens, None);
        let after = restored.predict_tokens(&tokens, None);
        for (a, b) in before.per_metric.iter().zip(&after.per_metric) {
            assert_eq!(a.digits, b.digits);
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
        // The meta-unaware loader reads the same file and simply ignores
        // the calibration section.
        let plain = NumericPredictor::load(&path).expect("plain load");
        assert_eq!(plain.param_count(), model.param_count());
        // A plain save has no calibration section: meta comes back None.
        let plain_path = dir.join("model.json");
        model.save(&plain_path).expect("saves");
        let (_, none_meta) = NumericPredictor::load_calibrated(&plain_path).expect("loads");
        assert!(none_meta.is_none());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Satellite (backward compatibility): files written by the previous
    /// release (format version 1, no calibration section) must still load.
    #[test]
    fn load_accepts_the_previous_format_version() {
        let model = tiny();
        let json = model.to_json().expect("encodes");
        let doctored = json.replacen(
            &format!("\"format_version\":{FORMAT_VERSION}"),
            &format!("\"format_version\":{MIN_FORMAT_VERSION}"),
            1,
        );
        assert_ne!(json, doctored, "the replace must hit the envelope");
        let restored = NumericPredictor::from_json(&doctored).expect("v1 file loads");
        assert_eq!(restored.param_count(), model.param_count());
        let (_, meta) = NumericPredictor::from_json_calibrated(&doctored).expect("loads");
        assert!(meta.is_none(), "v1 files carry no calibration section");
    }

    /// A version-2 file still carries the payload's `beam_width` field; it
    /// loads and predicts bit-identically to the same weights saved now.
    #[test]
    fn v2_file_with_beam_width_predicts_like_the_current_format() {
        let model = tiny();
        let v3 = model.to_json().expect("encodes");
        assert!(
            !v3.contains("beam_width"),
            "the current layout has no width"
        );
        let v2 = v3
            .replacen("\"format_version\":3", "\"format_version\":2", 1)
            .replacen("\"heads\":", "\"beam_width\":4,\"heads\":", 1);
        assert!(v2.contains("\"format_version\":2") && v2.contains("\"beam_width\":4"));
        let old = NumericPredictor::from_json(&v2).expect("v2 file loads");
        let new = NumericPredictor::from_json(&v3).expect("v3 file loads");
        for tokens in [vec![4u32, 5, 6, 7, 8], vec![1], Vec::new()] {
            assert_eq!(
                old.predict_tokens(&tokens, None),
                new.predict_tokens(&tokens, None)
            );
        }
        assert_eq!(old.to_json().expect("encodes"), v3, "re-saves as v3");
    }

    #[test]
    fn save_creates_parent_dirs_and_leaves_no_temp_file() {
        let dir = unique_dir("atomic");
        let path = dir.join("models").join("nested").join("model.json");
        tiny().save(&path).expect("saves into fresh directories");
        assert!(NumericPredictor::load(&path).is_ok());
        let entries: Vec<_> = std::fs::read_dir(path.parent().expect("parent"))
            .expect("readdir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(entries.len(), 1, "temp file left behind: {entries:?}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(matches!(
            NumericPredictor::from_json("not json"),
            Err(PersistError::Codec(_))
        ));
        assert!(matches!(
            NumericPredictor::from_json("[1, 2]"),
            Err(PersistError::Codec(_)),
        ));
        assert!(matches!(
            NumericPredictor::load("/definitely/not/a/path/model.json"),
            Err(PersistError::Io(_))
        ));
    }

    /// Regression for the versioning satellite: a doctored file claiming a
    /// future format version must fail with the typed version error (naming
    /// both versions), not with an arbitrary missing-field decode error.
    #[test]
    fn load_rejects_future_format_version_with_a_clear_error() {
        let dir = unique_dir("future_version");
        let path = dir.join("model.json");
        let model = tiny();
        model.save(&path).expect("saves");
        // Doctor the envelope to a future version, payload untouched.
        let json = std::fs::read_to_string(&path).expect("reads");
        let doctored = json.replacen(
            &format!("\"format_version\":{FORMAT_VERSION}"),
            "\"format_version\":9007",
            1,
        );
        assert_ne!(json, doctored, "the replace must hit the envelope");
        std::fs::write(&path, doctored).expect("writes");
        let err = NumericPredictor::load(&path).expect_err("future version rejected");
        match &err {
            PersistError::Version { found, supported } => {
                assert_eq!(*found, Some(9007));
                assert_eq!(*supported, FORMAT_VERSION);
            }
            other => panic!("expected Version error, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("9007"), "names the found version: {msg}");
        assert!(
            msg.contains(&FORMAT_VERSION.to_string()),
            "names the supported version: {msg}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn load_rejects_unversioned_payload() {
        // A bare (pre-envelope) model payload has no format_version field;
        // the error must say so instead of complaining about a random
        // missing model field.
        let err = NumericPredictor::from_json("{\"config\":{}}").expect_err("rejected");
        assert!(matches!(
            err,
            PersistError::Version {
                found: None,
                supported: FORMAT_VERSION
            }
        ));
        assert!(err.to_string().contains("format_version"), "{err}");
        // A non-integer version is the same rejection.
        let err =
            NumericPredictor::from_json("{\"format_version\":\"one\"}").expect_err("rejected");
        assert!(matches!(err, PersistError::Version { found: None, .. }));
    }

    #[test]
    fn display_mentions_cause() {
        let err = NumericPredictor::from_json("{").unwrap_err();
        assert!(err.to_string().contains("encoding"));
    }
}
