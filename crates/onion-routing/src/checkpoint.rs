//! Crash-resilient sweep checkpointing.
//!
//! A sweep over many parameter points can die at 97% — a power cut, an
//! OOM kill, a pre-empted batch job. [`Checkpoint`] makes that cheap to
//! survive: it is a [`RowCache`], so every finished row is appended to a
//! JSONL file as soon as it completes, and a restarted run opened
//! against the same file skips the finished rows and replays their
//! recorded results verbatim. Because replay parses the exact bytes that
//! were written (the vendored `serde_json` guarantees exact `f64`
//! round-trips), a resumed sweep's final summary is byte-identical to an
//! uninterrupted run's.
//!
//! # File format
//!
//! Line 1 is a header, every further line one finished row, keyed as
//! [`RowCache`] documents:
//!
//! ```text
//! {"version":2,"fingerprint":"<identity key>","identity":{"version":1,"spec":…,"opts":…}}
//! {"key":"intensity=0.5","value":"<the row's JSON, string-encoded>"}
//! ```
//!
//! The header records the run's [`Identity`] — its spec (a contact
//! schedule as a digest) and options, `threads` left out — and its
//! [`key`](Identity::key) as the fingerprint. The fingerprint binds the
//! file to the run: resuming with *any* changed parameter, or over an
//! edited trace file, is rejected instead of silently splicing
//! incompatible results. A version-1 file, whose header held the
//! fingerprint alone, is rejected naming its version. The row value is
//! stored as a JSON string so entries round-trip without an untyped JSON
//! value type.
//!
//! A process killed mid-append leaves a partial final line with no
//! terminating newline; [`Checkpoint::open`] detects and truncates it.
//! Torn *complete* lines cannot occur (a partial `write` persists a
//! prefix, and the newline is the last byte), so any complete line that
//! fails to parse, or whose value is not JSON, is treated as real
//! corruption.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use serde::{Deserialize, Serialize, Value};

use crate::sweep::{Identity, RowCache};

/// Current checkpoint file format version: 2 records the run's identity
/// in the header.
const VERSION: u32 = 2;

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
    /// The file's format version is not the one this build reads (2).
    Version {
        /// The version its header names.
        found: u32,
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
            CheckpointError::Version { found } => write!(
                f,
                "checkpoint format version {found} is not supported (this build \
                 reads version {VERSION}); delete the file to start the run afresh"
            ),
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
    /// The identity's key.
    fingerprint: String,
    /// The identity's JSON.
    identity: Value,
}

#[derive(Serialize, Deserialize)]
struct Entry {
    key: String,
    /// The row's own JSON, string-encoded.
    value: String,
}

/// An append-only JSONL record of a run's finished rows, read and
/// written through its [`RowCache`] implementation.
#[derive(Debug)]
pub struct Checkpoint {
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    file: File,
    done: BTreeMap<String, String>,
    hits: u64,
    /// The first append that failed. No row is appended after it: a
    /// partial line followed by another would corrupt the file.
    failure: Option<std::io::Error>,
}

impl Checkpoint {
    /// Opens (or creates) the checkpoint at `path` for the run named by
    /// `identity` ([`SweepSpec::identity`](crate::SweepSpec::identity)),
    /// loading every finished row and truncating a torn final line left
    /// by a killed process.
    ///
    /// # Errors
    ///
    /// I/O failure, corruption in a complete line (one that does not
    /// parse, or whose value is not JSON), a format version other than
    /// the current one, or a fingerprint recorded by a different run.
    pub fn open(path: &Path, identity: &Identity) -> Result<Checkpoint, CheckpointError> {
        let fingerprint = identity.key();
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
                let bad_header = |e: String| CheckpointError::Corrupt {
                    line: 1,
                    why: format!("bad header: {e}"),
                };
                let header =
                    serde_json::parse_value(header_line).map_err(|e| bad_header(e.to_string()))?;
                match header.get("version").map(u32::from_value) {
                    Some(Ok(VERSION)) => {}
                    Some(Ok(found)) => return Err(CheckpointError::Version { found }),
                    _ => return Err(bad_header("no format version".into())),
                }
                let header = Header::from_value(&header).map_err(|e| bad_header(e.to_string()))?;
                if header.fingerprint != fingerprint {
                    return Err(CheckpointError::FingerprintMismatch {
                        expected: fingerprint,
                        found: header.fingerprint,
                    });
                }
                for (idx, line) in lines {
                    let corrupt = |why| CheckpointError::Corrupt { line: idx + 1, why };
                    let entry: Entry = serde_json::from_str(line)
                        .map_err(|e| corrupt(format!("bad entry: {e}")))?;
                    if let Err(e) = serde_json::parse_value(&entry.value) {
                        let key = &entry.key;
                        return Err(corrupt(format!("the value of {key:?} is not JSON: {e}")));
                    }
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
                fingerprint,
                identity: identity.to_value(),
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
            inner: Mutex::new(Inner {
                file,
                done,
                hits: 0,
                failure: None,
            }),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no checkpoint operation panics while holding the lock")
    }

    /// Number of finished rows on record.
    pub fn len(&self) -> usize {
        self.lock().done.len()
    }

    /// Whether no row has finished yet.
    pub fn is_empty(&self) -> bool {
        self.lock().done.is_empty()
    }

    /// Number of rows replayed from the record since opening.
    pub fn resumed_points(&self) -> u64 {
        self.lock().hits
    }

    /// Whether an append has failed since opening; a run polls this to
    /// stop at the next row.
    pub fn failed(&self) -> bool {
        self.lock().failure.is_some()
    }

    /// Reports the first append that failed since opening, if any.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] with that append's error.
    pub fn finish(&self) -> Result<(), CheckpointError> {
        match self.lock().failure.take() {
            Some(e) => Err(CheckpointError::Io(e)),
            None => Ok(()),
        }
    }
}

impl RowCache for Checkpoint {
    fn load(&self, key: &str) -> Option<String> {
        let mut inner = self.lock();
        let row = inner.done.get(key).cloned()?;
        inner.hits += 1;
        obs::info!(
            "onion_routing::checkpoint",
            "skipping completed point {key:?} (resumed from checkpoint)",
        );
        Some(row)
    }

    /// Appends the row and flushes it to the OS, so a SIGKILL right
    /// afterwards cannot lose it. A failed append is kept for
    /// [`Checkpoint::finish`], and no later row is appended.
    fn save(&self, key: &str, row_json: &str) {
        let mut inner = self.lock();
        if inner.failure.is_some() {
            return;
        }
        let line = serde_json::to_string(&Entry {
            key: key.to_string(),
            value: row_json.to_string(),
        })
        .expect("entry serializes");
        let inner = &mut *inner;
        match writeln!(inner.file, "{line}").and_then(|()| inner.file.flush()) {
            Ok(()) => {
                inner.done.insert(key.to_string(), row_json.to_string());
            }
            Err(e) => inner.failure = Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentOptions, ProtocolConfig, SweepSpec};
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

    /// The identity of a Table II point at `seed`.
    fn identity(seed: u64) -> Identity {
        let opts = ExperimentOptions::builder().seed(seed).build();
        SweepSpec::random_graph(ProtocolConfig::table2_defaults()).identity(&opts)
    }

    /// A row's JSON, as a run stores it.
    fn row(x: f64, n: u64) -> String {
        serde_json::to_string(&(x, n)).unwrap()
    }

    #[test]
    fn saved_rows_replay_after_reopen() {
        let scratch = Scratch::new("reopen");
        let path = scratch.file("sweep.jsonl");
        let fp = identity(1);

        let cp = Checkpoint::open(&path, &fp).unwrap();
        assert!(cp.is_empty());
        cp.save("p=1", &row(0.1 + 0.2, 3));
        cp.save("p=2", &row(1.0 / 3.0, 9));
        cp.finish().unwrap();
        drop(cp);

        let cp = Checkpoint::open(&path, &fp).unwrap();
        assert_eq!(cp.len(), 2);
        assert_eq!(cp.load("p=3"), None);
        assert_eq!(cp.resumed_points(), 0);
        // Exact f64 round-trip, bit for bit.
        let (x, n): (f64, u64) = serde_json::from_str(&cp.load("p=2").unwrap()).unwrap();
        assert_eq!((x.to_bits(), n), ((1.0f64 / 3.0).to_bits(), 9));
        assert_eq!(cp.resumed_points(), 1);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let scratch = Scratch::new("mismatch");
        let path = scratch.file("sweep.jsonl");
        let cp = Checkpoint::open(&path, &identity(1)).unwrap();
        cp.save("p", "1");
        drop(cp);

        let err = Checkpoint::open(&path, &identity(2)).unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }));
    }

    /// The header records the identity and its key; a version-1 header,
    /// which held the key alone, is refused naming its version.
    #[test]
    fn the_header_records_the_identity_and_version_1_is_refused() {
        let scratch = Scratch::new("header");
        let path = scratch.file("sweep.jsonl");
        let id = identity(1);
        drop(Checkpoint::open(&path, &id).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let expected = format!(
            "{{\"version\":2,\"fingerprint\":\"{}\",\"identity\":{}}}\n",
            id.key(),
            id.json()
        );
        assert_eq!(text, expected);

        let v1 = format!("{{\"version\":1,\"fingerprint\":\"{}\"}}\n", id.key());
        std::fs::write(&path, &v1).unwrap();
        let err = Checkpoint::open(&path, &id).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Version { found: 1 }),
            "{err}"
        );
        assert!(err.to_string().contains("version 1"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), v1);
    }

    #[test]
    fn torn_final_line_is_truncated_and_recoverable() {
        let scratch = Scratch::new("torn");
        let path = scratch.file("sweep.jsonl");
        let fp = identity(1);
        let cp = Checkpoint::open(&path, &fp).unwrap();
        cp.save("p=1", &row(1.5, 1));
        drop(cp);

        // Simulate a SIGKILL mid-append: a partial line, no newline.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"key\":\"p=2\",\"val").unwrap();
        drop(file);

        let cp = Checkpoint::open(&path, &fp).unwrap();
        assert_eq!(cp.len(), 1);
        assert!(cp.load("p=1").is_some());
        // The torn row simply recomputes and appends cleanly.
        cp.save("p=2", &row(2.5, 2));
        drop(cp);
        let cp = Checkpoint::open(&path, &fp).unwrap();
        assert_eq!(cp.len(), 2);
    }

    #[test]
    fn corrupt_complete_line_is_an_error() {
        let scratch = Scratch::new("corrupt");
        let path = scratch.file("sweep.jsonl");
        let fp = identity(1);
        drop(Checkpoint::open(&path, &fp).unwrap());
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"this is not json\n").unwrap();
        drop(file);

        let err = Checkpoint::open(&path, &fp).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { line: 2, .. }));
    }

    #[test]
    fn an_entry_whose_value_is_not_json_is_an_error() {
        let scratch = Scratch::new("corrupt-value");
        let path = scratch.file("sweep.jsonl");
        let fp = identity(1);
        let cp = Checkpoint::open(&path, &fp).unwrap();
        cp.save("p=1", &row(1.5, 1));
        cp.save("p=2", "{\"x\":");
        drop(cp);

        let err = Checkpoint::open(&path, &fp).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt { line: 3, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("\"p=2\""), "{err}");
    }

    #[test]
    fn a_failed_append_is_reported_and_nothing_is_appended_after_it() {
        let scratch = Scratch::new("failed-append");
        let path = scratch.file("sweep.jsonl");
        let fp = identity(1);
        let cp = Checkpoint::open(&path, &fp).unwrap();
        cp.save("p=1", &row(1.5, 1));
        let recorded = std::fs::read(&path).unwrap();
        // A read-only handle: the next append fails.
        cp.lock().file = File::open(&path).unwrap();
        assert!(!cp.failed());
        cp.save("p=2", &row(2.5, 2));
        assert!(cp.failed());
        cp.lock().file = OpenOptions::new().append(true).open(&path).unwrap();
        cp.save("p=3", &row(3.5, 3));
        assert_eq!(std::fs::read(&path).unwrap(), recorded);
        assert_eq!(cp.len(), 1);
        assert!(matches!(cp.finish(), Err(CheckpointError::Io(_))));
    }

    #[test]
    fn missing_file_starts_fresh() {
        let scratch = Scratch::new("fresh");
        let path = scratch.file("new.jsonl");
        let cp = Checkpoint::open(&path, &identity(1)).unwrap();
        assert!(cp.is_empty());
        assert!(path.exists());
    }

    #[test]
    fn empty_existing_file_gets_a_header() {
        let scratch = Scratch::new("empty");
        let path = scratch.file("empty.jsonl");
        std::fs::write(&path, b"").unwrap();
        let fp = identity(1);
        let cp = Checkpoint::open(&path, &fp).unwrap();
        cp.save("p", "1");
        drop(cp);
        let cp = Checkpoint::open(&path, &fp).unwrap();
        assert_eq!(cp.len(), 1);
    }
}
