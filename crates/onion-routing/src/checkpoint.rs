//! Crash-resilient sweep checkpointing.
//!
//! A sweep over many parameter points can die at 97% — a power cut, an
//! OOM kill, a pre-empted batch job. [`Checkpoint`] makes that cheap to
//! survive: every completed point is appended to a JSONL file as soon
//! as it finishes, and a restarted sweep opened against the same file
//! skips the finished points and replays their recorded results
//! verbatim. Because replay parses the exact bytes that were written
//! (the vendored `serde_json` guarantees exact `f64` round-trips), a
//! resumed sweep's final summary is byte-identical to an uninterrupted
//! run's.
//!
//! # File format
//!
//! Line 1 is a header, every further line one completed point:
//!
//! ```text
//! {"version":1,"fingerprint":"<sha256 hex of the sweep's config JSON>"}
//! {"key":"deadline=360","value":"<the point's JSON, string-encoded>"}
//! ```
//!
//! The fingerprint binds the file to the sweep's full configuration
//! (protocol config, options, fault plan, sweep axis): resuming with
//! *any* changed parameter is rejected instead of silently splicing
//! incompatible results. The point value is stored as a JSON string so
//! entries round-trip without an untyped JSON value type.
//!
//! A process killed mid-append leaves a partial final line with no
//! terminating newline; [`Checkpoint::open`] detects and truncates it.
//! Torn *complete* lines cannot occur (a partial `write` persists a
//! prefix, and the newline is the last byte), so any complete line that
//! fails to parse is treated as real corruption.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use onion_crypto::sha256::Sha256;
use serde::{Deserialize, DeserializeOwned, Serialize};

/// Current checkpoint file format version.
const VERSION: u32 = 1;

/// Errors opening, reading, or appending a checkpoint file.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A complete line failed to parse (real corruption, not a torn
    /// final append).
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        why: String,
    },
    /// The file was written by a sweep with a different configuration.
    FingerprintMismatch {
        /// Fingerprint of the sweep being resumed.
        expected: String,
        /// Fingerprint recorded in the file.
        found: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { line, why } => {
                write!(f, "checkpoint corrupt at line {line}: {why}")
            }
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different sweep configuration \
                 (file fingerprint {found}, this sweep {expected}); \
                 delete the file or rerun with the original parameters"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

#[derive(Serialize, Deserialize)]
struct Header {
    version: u32,
    fingerprint: String,
}

#[derive(Serialize, Deserialize)]
struct Entry {
    key: String,
    /// The point's own JSON, string-encoded.
    value: String,
}

/// An append-only JSONL record of a sweep's completed points.
#[derive(Debug)]
pub struct Checkpoint {
    file: File,
    done: BTreeMap<String, String>,
    hits: u64,
}

impl Checkpoint {
    /// Hex SHA-256 of a configuration's canonical JSON — the value that
    /// binds a checkpoint file to one exact sweep setup.
    ///
    /// # Panics
    ///
    /// Panics if `config` cannot be serialized (non-finite floats).
    pub fn fingerprint<T: Serialize>(config: &T) -> String {
        let json = serde_json::to_string(config).expect("sweep config must serialize");
        let digest = Sha256::digest(json.as_bytes());
        let mut hex = String::with_capacity(digest.len() * 2);
        for byte in digest {
            use std::fmt::Write as _;
            let _ = write!(hex, "{byte:02x}");
        }
        hex
    }

    /// Opens (or creates) the checkpoint at `path` for a sweep with the
    /// given fingerprint, loading every completed point and truncating a
    /// torn final line left by a killed process.
    ///
    /// # Errors
    ///
    /// I/O failure, corruption in a complete line, or a fingerprint
    /// recorded by a different sweep configuration.
    pub fn open(path: &Path, fingerprint: &str) -> Result<Checkpoint, CheckpointError> {
        let mut done = BTreeMap::new();
        let mut fresh = true;

        if path.exists() {
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            // Only bytes up to (and including) the last newline are
            // trustworthy; anything after is a torn append.
            let complete = match bytes.iter().rposition(|&b| b == b'\n') {
                Some(last_newline) => &bytes[..=last_newline],
                None => &[][..],
            };
            let valid_len = complete.len() as u64;
            let text = std::str::from_utf8(complete).map_err(|e| CheckpointError::Corrupt {
                line: 1,
                why: format!("not UTF-8: {e}"),
            })?;
            let mut lines = text.lines().enumerate();
            if let Some((_, header_line)) = lines.next() {
                fresh = false;
                let header: Header =
                    serde_json::from_str(header_line).map_err(|e| CheckpointError::Corrupt {
                        line: 1,
                        why: format!("bad header: {e}"),
                    })?;
                if header.version != VERSION {
                    return Err(CheckpointError::Corrupt {
                        line: 1,
                        why: format!("unsupported version {}", header.version),
                    });
                }
                if header.fingerprint != fingerprint {
                    return Err(CheckpointError::FingerprintMismatch {
                        expected: fingerprint.to_string(),
                        found: header.fingerprint,
                    });
                }
                for (idx, line) in lines {
                    let entry: Entry =
                        serde_json::from_str(line).map_err(|e| CheckpointError::Corrupt {
                            line: idx + 1,
                            why: format!("bad entry: {e}"),
                        })?;
                    done.insert(entry.key, entry.value);
                }
            }
            if valid_len != bytes.len() as u64 {
                obs::warn!(
                    "onion_routing::checkpoint",
                    "{}: dropping {} torn trailing byte(s) from an interrupted append",
                    path.display(),
                    bytes.len() as u64 - valid_len,
                );
                OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(valid_len)?;
            }
        }

        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if fresh {
            let header = serde_json::to_string(&Header {
                version: VERSION,
                fingerprint: fingerprint.to_string(),
            })
            .expect("header serializes");
            writeln!(file, "{header}")?;
            file.flush()?;
        }
        obs::debug!(
            "onion_routing::checkpoint",
            "{}: {} completed point(s) loaded",
            path.display(),
            done.len(),
        );
        Ok(Checkpoint {
            file,
            done,
            hits: 0,
        })
    }

    /// Number of completed points on record.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether no point has completed yet.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Number of points served from the record by [`Checkpoint::run_point`]
    /// since opening.
    pub fn resumed_points(&self) -> u64 {
        self.hits
    }

    /// Whether `key` has a recorded result.
    pub fn contains(&self, key: &str) -> bool {
        self.done.contains_key(key)
    }

    /// Parses the recorded result for `key`, if any.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] if the recorded value does not parse
    /// as `T`.
    pub fn get<T: DeserializeOwned>(&self, key: &str) -> Result<Option<T>, CheckpointError> {
        match self.done.get(key) {
            None => Ok(None),
            Some(raw) => {
                serde_json::from_str(raw)
                    .map(Some)
                    .map_err(|e| CheckpointError::Corrupt {
                        line: 0,
                        why: format!("recorded value for {key:?} does not parse: {e}"),
                    })
            }
        }
    }

    /// Appends a completed point and flushes it to the OS, so a SIGKILL
    /// immediately afterwards cannot lose it.
    ///
    /// # Errors
    ///
    /// I/O failure while appending.
    pub fn record<T: Serialize>(&mut self, key: &str, value: &T) -> Result<(), CheckpointError> {
        let raw = serde_json::to_string(value).map_err(|e| CheckpointError::Corrupt {
            line: 0,
            why: format!("value for {key:?} does not serialize: {e}"),
        })?;
        let line = serde_json::to_string(&Entry {
            key: key.to_string(),
            value: raw.clone(),
        })
        .expect("entry serializes");
        writeln!(self.file, "{line}")?;
        self.file.flush()?;
        self.done.insert(key.to_string(), raw);
        Ok(())
    }

    /// Returns the recorded result for `key`, or computes, records, and
    /// returns it. The replayed value is parsed from the recorded bytes,
    /// so a resumed sweep reproduces the original run exactly.
    ///
    /// # Errors
    ///
    /// Propagates [`Checkpoint::get`] / [`Checkpoint::record`] errors.
    pub fn run_point<T, F>(&mut self, key: &str, compute: F) -> Result<T, CheckpointError>
    where
        T: Serialize + DeserializeOwned,
        F: FnOnce() -> T,
    {
        if let Some(done) = self.get(key)? {
            self.hits += 1;
            obs::info!(
                "onion_routing::checkpoint",
                "skipping completed point {key:?} (resumed from checkpoint)",
            );
            return Ok(done);
        }
        let value = compute();
        self.record(key, &value)?;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A scratch directory unique to this test, cleaned up on drop.
    struct Scratch(PathBuf);
    impl Scratch {
        fn new(name: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("onion-dtn-checkpoint-{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Row {
        x: f64,
        n: u64,
    }

    #[test]
    fn fingerprint_is_stable_and_config_sensitive() {
        let a = Checkpoint::fingerprint(&("sweep", 1u32, 0.25f64));
        let b = Checkpoint::fingerprint(&("sweep", 1u32, 0.25f64));
        let c = Checkpoint::fingerprint(&("sweep", 2u32, 0.25f64));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn record_and_reopen_replays_points() {
        let scratch = Scratch::new("reopen");
        let path = scratch.file("sweep.jsonl");
        let fp = Checkpoint::fingerprint(&"cfg");

        let mut cp = Checkpoint::open(&path, &fp).unwrap();
        assert!(cp.is_empty());
        cp.record("p=1", &Row { x: 0.1 + 0.2, n: 3 }).unwrap();
        cp.record("p=2", &Row { x: 1.0 / 3.0, n: 9 }).unwrap();
        drop(cp);

        let cp = Checkpoint::open(&path, &fp).unwrap();
        assert_eq!(cp.len(), 2);
        assert!(cp.contains("p=1"));
        assert!(!cp.contains("p=3"));
        // Exact f64 round-trip, bit for bit.
        let row: Row = cp.get("p=2").unwrap().unwrap();
        assert_eq!(row.x.to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(row, Row { x: 1.0 / 3.0, n: 9 });
    }

    #[test]
    fn run_point_computes_once_then_replays() {
        let scratch = Scratch::new("run-point");
        let path = scratch.file("sweep.jsonl");
        let fp = Checkpoint::fingerprint(&"cfg");

        let mut cp = Checkpoint::open(&path, &fp).unwrap();
        let mut computed = 0;
        let first: Row = cp
            .run_point("p", || {
                computed += 1;
                Row { x: 2.5, n: 1 }
            })
            .unwrap();
        let second: Row = cp
            .run_point("p", || {
                computed += 1;
                Row { x: 99.0, n: 99 }
            })
            .unwrap();
        assert_eq!(computed, 1);
        assert_eq!(first, second);
        assert_eq!(cp.resumed_points(), 1);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let scratch = Scratch::new("mismatch");
        let path = scratch.file("sweep.jsonl");
        let mut cp = Checkpoint::open(&path, &Checkpoint::fingerprint(&"one")).unwrap();
        cp.record("p", &1u64).unwrap();
        drop(cp);

        let err = Checkpoint::open(&path, &Checkpoint::fingerprint(&"two")).unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }));
    }

    #[test]
    fn torn_final_line_is_truncated_and_recoverable() {
        let scratch = Scratch::new("torn");
        let path = scratch.file("sweep.jsonl");
        let fp = Checkpoint::fingerprint(&"cfg");
        let mut cp = Checkpoint::open(&path, &fp).unwrap();
        cp.record("p=1", &Row { x: 1.5, n: 1 }).unwrap();
        drop(cp);

        // Simulate a SIGKILL mid-append: a partial line, no newline.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"key\":\"p=2\",\"val").unwrap();
        drop(file);

        let mut cp = Checkpoint::open(&path, &fp).unwrap();
        assert_eq!(cp.len(), 1);
        assert!(cp.contains("p=1"));
        // The torn point simply recomputes and appends cleanly.
        cp.record("p=2", &Row { x: 2.5, n: 2 }).unwrap();
        drop(cp);
        let cp = Checkpoint::open(&path, &fp).unwrap();
        assert_eq!(cp.len(), 2);
    }

    #[test]
    fn corrupt_complete_line_is_an_error() {
        let scratch = Scratch::new("corrupt");
        let path = scratch.file("sweep.jsonl");
        let fp = Checkpoint::fingerprint(&"cfg");
        drop(Checkpoint::open(&path, &fp).unwrap());
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"this is not json\n").unwrap();
        drop(file);

        let err = Checkpoint::open(&path, &fp).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { line: 2, .. }));
    }

    #[test]
    fn missing_file_starts_fresh() {
        let scratch = Scratch::new("fresh");
        let path = scratch.file("new.jsonl");
        let cp = Checkpoint::open(&path, &Checkpoint::fingerprint(&"cfg")).unwrap();
        assert!(cp.is_empty());
        assert!(path.exists());
    }

    #[test]
    fn empty_existing_file_gets_a_header() {
        let scratch = Scratch::new("empty");
        let path = scratch.file("empty.jsonl");
        std::fs::write(&path, b"").unwrap();
        let fp = Checkpoint::fingerprint(&"cfg");
        let mut cp = Checkpoint::open(&path, &fp).unwrap();
        cp.record("p", &1u64).unwrap();
        drop(cp);
        let cp = Checkpoint::open(&path, &fp).unwrap();
        assert_eq!(cp.len(), 1);
    }
}
