//! Crash-safe, disk-backed store: the durable row cache of every sweep
//! the daemon runs, beneath the in-memory
//! [`ShardedLru`](crate::cache::ShardedLru).
//!
//! The format is a single append-only record log (`store.log` inside
//! the store directory):
//!
//! ```text
//! magic:  "ODTNSTR1"                                     (8 bytes)
//! record: len:u32le ‖ crc32:u32le ‖ fingerprint ‖ body   (repeated)
//! ```
//!
//! where the record payload is `fp_len:u16le ‖ fingerprint bytes ‖
//! body bytes`, `len` is the payload length, and `crc32` is the IEEE
//! CRC-32 of the payload. The serving layer stores one sweep row per
//! record, keyed `<key of the spec with its grid emptied>:<row key>`
//! (the key an [`Identity::key`](onion_routing::Identity::key) hex
//! digest, the row key one that `onion_routing::RowCache` documents);
//! values are the rows' JSON. A record names its spec by key alone.
//!
//! Durability model (DESIGN.md §4j):
//!
//! * **Appends are flushed record-at-a-time**, so a `kill -9` mid-write
//!   loses at most the record in flight.
//! * **Recovery is a single scan on open** that rebuilds the in-memory
//!   fingerprint → offset index. A torn tail (fewer bytes than the
//!   header or payload promise) is truncated away, exactly like
//!   `onion_routing::checkpoint` truncates a torn last line. A record
//!   whose CRC does not match is *skipped and counted* — it stays on
//!   disk until the next compaction but is never served
//!   (`store_records_quarantined` gauge).
//! * **Later records supersede earlier ones** for the same fingerprint;
//!   the index keeps the newest offset.
//! * **Oldest-first compaction under a byte budget**: when an append
//!   would push the log over `budget_bytes`, live records are rewritten
//!   newest-preserving into a fresh log (dropping superseded,
//!   quarantined, and — oldest first — enough live records to fit) and
//!   the new log atomically renamed into place.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Leading magic of a store log; refuses to scan foreign files.
const STORE_MAGIC: &[u8; 8] = b"ODTNSTR1";

/// File name of the record log inside the store directory.
pub const STORE_LOG: &str = "store.log";

/// Upper bound on one record payload: the serving layer's body cap plus
/// fingerprint overhead. A `len` beyond this is framing corruption, not
/// a large record.
const MAX_PAYLOAD_BYTES: usize = 4 * 1024 * 1024 + 2 + 256;

/// Record header size: `len:u32le ‖ crc32:u32le`.
const HEADER_BYTES: u64 = 8;

/// A failure opening or using the store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// The file exists but is not a store log (bad magic).
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corrupt: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Point-in-time store health, surfaced as `/metricsz` gauges.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStatus {
    /// Live (servable) records in the index.
    pub records: u64,
    /// Current log file length in bytes.
    pub bytes: u64,
    /// Bad-CRC records skipped since open (recovery scan + reads).
    pub quarantined: u64,
    /// Torn tail bytes truncated by the recovery scan.
    pub truncated_bytes: u64,
    /// Live records evicted by budget compactions since open.
    pub evicted: u64,
    /// Compactions performed since open.
    pub compactions: u64,
}

/// Location of the newest record for a fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Loc {
    /// Offset of the record header within the log.
    offset: u64,
    /// Payload length (excludes the 8-byte header).
    len: u32,
}

struct Inner {
    file: File,
    path: PathBuf,
    index: HashMap<String, Loc>,
    /// Append order of puts (may contain superseded duplicates; an
    /// entry is live iff `index[fp]` still points at its record).
    order: VecDeque<(String, Loc)>,
    bytes: u64,
    quarantined: u64,
    truncated_bytes: u64,
    evicted: u64,
    compactions: u64,
}

/// The disk-backed fingerprint → response-body store. All operations
/// are serialized behind one mutex: store traffic is LRU-miss traffic,
/// which is rare and already sweep-compute bound.
pub struct ResponseStore {
    inner: Mutex<Inner>,
    budget: u64,
}

impl ResponseStore {
    /// Opens (creating if needed) the store in `dir` with a log byte
    /// budget, running the recovery scan described in the module docs.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Corrupt`]
    /// when an existing log does not start with [`STORE_MAGIC`].
    pub fn open(dir: &Path, budget_bytes: u64) -> Result<ResponseStore, StoreError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(STORE_LOG);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;

        if data.is_empty() {
            file.write_all(STORE_MAGIC)?;
            file.flush()?;
            data.extend_from_slice(STORE_MAGIC);
        } else if data.len() < STORE_MAGIC.len() || &data[..STORE_MAGIC.len()] != STORE_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "{} does not start with the store magic",
                path.display()
            )));
        }

        let mut index = HashMap::new();
        let mut order = VecDeque::new();
        let mut quarantined = 0u64;
        let mut offset = STORE_MAGIC.len() as u64;
        let valid_len = loop {
            let remaining = data.len() as u64 - offset;
            if remaining == 0 {
                break offset;
            }
            if remaining < HEADER_BYTES {
                break offset; // torn header
            }
            let at = offset as usize;
            let len = u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(data[at + 4..at + 8].try_into().expect("4 bytes"));
            if (len as usize) < 3 || len as usize > MAX_PAYLOAD_BYTES {
                // A nonsensical length destroys framing for everything
                // after it; treat the rest of the file as torn.
                break offset;
            }
            if remaining < HEADER_BYTES + len as u64 {
                break offset; // torn payload
            }
            let payload = &data[at + 8..at + 8 + len as usize];
            let loc = Loc { offset, len };
            offset += HEADER_BYTES + len as u64;
            if crc32(payload) != crc {
                quarantined += 1;
                continue;
            }
            match parse_payload(payload) {
                Some((fp, _body)) => {
                    let fp = fp.to_string();
                    index.insert(fp.clone(), loc);
                    order.push_back((fp, loc));
                }
                None => quarantined += 1,
            }
        };

        let truncated_bytes = data.len() as u64 - valid_len;
        if truncated_bytes > 0 {
            file.set_len(valid_len)?;
            obs::warn!(
                "serve::store",
                "truncated {truncated_bytes} torn byte(s) from {}",
                path.display()
            );
        }
        obs::info!(
            "serve::store",
            "recovered {} record(s) ({valid_len} bytes) from {}; quarantined {quarantined} \
             bad-CRC record(s), truncated {truncated_bytes} torn byte(s)",
            index.len(),
            path.display()
        );

        Ok(ResponseStore {
            inner: Mutex::new(Inner {
                file,
                path,
                index,
                order,
                bytes: valid_len,
                quarantined,
                truncated_bytes,
                evicted: 0,
                compactions: 0,
            }),
            budget: budget_bytes,
        })
    }

    /// Looks up the newest record for `fingerprint`, re-verifying its
    /// CRC on the way out. A record that fails verification is dropped
    /// from the index and counted as quarantined.
    pub fn get(&self, fingerprint: &str) -> Option<String> {
        let mut inner = self.inner.lock().unwrap();
        let loc = *inner.index.get(fingerprint)?;
        match read_record(&mut inner.file, loc) {
            Ok((fp, body)) if fp == fingerprint => Some(body),
            _ => {
                inner.index.remove(fingerprint);
                inner.quarantined += 1;
                obs::warn!(
                    "serve::store",
                    "quarantined unreadable record for {fingerprint} at offset {}",
                    loc.offset
                );
                None
            }
        }
    }

    /// Appends a record and flushes it before returning, compacting
    /// first when the budget would be exceeded. A record too large for
    /// the whole budget is skipped with a warning rather than thrashing
    /// the log.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failure; the in-memory index is only
    /// updated after the record is fully on disk.
    pub fn put(&self, fingerprint: &str, body: &str) -> Result<(), StoreError> {
        let record = encode_record(fingerprint, body);
        let mut inner = self.inner.lock().unwrap();
        if STORE_MAGIC.len() as u64 + record.len() as u64 > self.budget {
            obs::warn!(
                "serve::store",
                "record for {fingerprint} ({} bytes) exceeds the whole store budget ({}); not stored",
                record.len(),
                self.budget
            );
            return Ok(());
        }
        if inner.bytes + record.len() as u64 > self.budget {
            compact(&mut inner, self.budget.saturating_sub(record.len() as u64))?;
        }
        inner.file.seek(SeekFrom::End(0))?;
        inner.file.write_all(&record)?;
        inner.file.flush()?;
        let loc = Loc {
            offset: inner.bytes,
            len: (record.len() as u64 - HEADER_BYTES) as u32,
        };
        inner.bytes += record.len() as u64;
        inner.index.insert(fingerprint.to_string(), loc);
        inner.order.push_back((fingerprint.to_string(), loc));
        Ok(())
    }

    /// Current health counters.
    pub fn status(&self) -> StoreStatus {
        let inner = self.inner.lock().unwrap();
        StoreStatus {
            records: inner.index.len() as u64,
            bytes: inner.bytes,
            quarantined: inner.quarantined,
            truncated_bytes: inner.truncated_bytes,
            evicted: inner.evicted,
            compactions: inner.compactions,
        }
    }
}

/// Builds the on-disk bytes of one record.
fn encode_record(fingerprint: &str, body: &str) -> Vec<u8> {
    let fp = fingerprint.as_bytes();
    assert!(fp.len() <= u16::MAX as usize, "fingerprint too long");
    let mut payload = Vec::with_capacity(2 + fp.len() + body.len());
    payload.extend_from_slice(&(fp.len() as u16).to_le_bytes());
    payload.extend_from_slice(fp);
    payload.extend_from_slice(body.as_bytes());
    let mut record = Vec::with_capacity(8 + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

/// Splits a verified payload into `(fingerprint, body)`; `None` marks
/// the record quarantine-worthy (bad length prefix or non-UTF-8).
fn parse_payload(payload: &[u8]) -> Option<(&str, &str)> {
    if payload.len() < 2 {
        return None;
    }
    let fp_len = u16::from_le_bytes(payload[..2].try_into().expect("2 bytes")) as usize;
    if 2 + fp_len > payload.len() {
        return None;
    }
    let fp = std::str::from_utf8(&payload[2..2 + fp_len]).ok()?;
    let body = std::str::from_utf8(&payload[2 + fp_len..]).ok()?;
    Some((fp, body))
}

/// Reads and re-verifies one record off the log.
fn read_record(file: &mut File, loc: Loc) -> Result<(String, String), StoreError> {
    file.seek(SeekFrom::Start(loc.offset))?;
    let mut buf = vec![0u8; HEADER_BYTES as usize + loc.len as usize];
    file.read_exact(&mut buf)?;
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let payload = &buf[8..];
    if len != loc.len || crc32(payload) != crc {
        return Err(StoreError::Corrupt(format!(
            "record at offset {} failed verification",
            loc.offset
        )));
    }
    match parse_payload(payload) {
        Some((fp, body)) => Ok((fp.to_string(), body.to_string())),
        None => Err(StoreError::Corrupt(format!(
            "record at offset {} has an invalid payload",
            loc.offset
        ))),
    }
}

/// Rewrites live records into a fresh log, dropping superseded and
/// quarantined bytes, then — oldest first — evicting live records until
/// the result fits in `target` bytes. Atomic via rename.
fn compact(inner: &mut Inner, target: u64) -> Result<(), StoreError> {
    // Live records in append order (oldest first): an `order` entry is
    // live iff the index still points at exactly that record.
    let mut live: Vec<(String, Loc)> = Vec::new();
    let mut seen = HashSet::new();
    for (fp, loc) in inner.order.iter() {
        if inner.index.get(fp) == Some(loc) && seen.insert(fp.clone()) {
            live.push((fp.clone(), *loc));
        }
    }
    let record_size = |loc: &Loc| HEADER_BYTES + loc.len as u64;
    let mut total: u64 =
        STORE_MAGIC.len() as u64 + live.iter().map(|(_, l)| record_size(l)).sum::<u64>();
    let mut evicted = 0u64;
    let mut keep_from = 0usize;
    while keep_from < live.len() && total > target {
        total -= record_size(&live[keep_from].1);
        keep_from += 1;
        evicted += 1;
    }
    let kept = &live[keep_from..];

    let tmp_path = inner.path.with_extension("log.tmp");
    let mut tmp = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp_path)?;
    tmp.write_all(STORE_MAGIC)?;
    let mut new_index = HashMap::with_capacity(kept.len());
    let mut new_order = VecDeque::with_capacity(kept.len());
    let mut offset = STORE_MAGIC.len() as u64;
    for (fp, loc) in kept {
        let (_, body) = read_record(&mut inner.file, *loc)?;
        let record = encode_record(fp, &body);
        tmp.write_all(&record)?;
        let new_loc = Loc {
            offset,
            len: (record.len() as u64 - HEADER_BYTES) as u32,
        };
        offset += record.len() as u64;
        new_index.insert(fp.clone(), new_loc);
        new_order.push_back((fp.clone(), new_loc));
    }
    tmp.flush()?;
    std::fs::rename(&tmp_path, &inner.path)?;
    obs::info!(
        "serve::store",
        "compacted {} to {} live record(s) ({offset} bytes), evicted {evicted} oldest",
        inner.path.display(),
        kept.len()
    );
    inner.file = tmp;
    inner.index = new_index;
    inner.order = new_order;
    inner.bytes = offset;
    inner.evicted += evicted;
    inner.compactions += 1;
    Ok(())
}

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// IEEE CRC-32 (the `zlib`/`binascii.crc32` polynomial), so external
/// tooling can frame records without this crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut state = !0u32;
    for &b in bytes {
        state = (state >> 8) ^ CRC_TABLE[((state ^ b as u32) & 0xFF) as usize];
    }
    !state
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scratch(PathBuf);
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    impl Scratch {
        fn new(name: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("onion-dtn-store-{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    const BUDGET: u64 = 1 << 20;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The canonical CRC-32/ISO-HDLC check value — matches zlib and
        // Python's binascii.crc32, which the CI chaos job relies on.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn put_get_roundtrips_and_survives_reopen() {
        let scratch = Scratch::new("roundtrip");
        let store = ResponseStore::open(&scratch.0, BUDGET).unwrap();
        assert_eq!(store.get("k1"), None);
        store.put("k1", "{\"v\":1}").unwrap();
        store.put("k2", "{\"v\":2}").unwrap();
        assert_eq!(store.get("k1").unwrap(), "{\"v\":1}");
        assert_eq!(store.get("k2").unwrap(), "{\"v\":2}");
        drop(store);

        let reopened = ResponseStore::open(&scratch.0, BUDGET).unwrap();
        assert_eq!(reopened.get("k1").unwrap(), "{\"v\":1}");
        assert_eq!(reopened.get("k2").unwrap(), "{\"v\":2}");
        let s = reopened.status();
        assert_eq!(s.records, 2);
        assert_eq!(s.quarantined, 0);
        assert_eq!(s.truncated_bytes, 0);
    }

    #[test]
    fn newer_records_supersede_older_ones() {
        let scratch = Scratch::new("supersede");
        let store = ResponseStore::open(&scratch.0, BUDGET).unwrap();
        store.put("k", "old").unwrap();
        store.put("k", "new").unwrap();
        assert_eq!(store.get("k").unwrap(), "new");
        drop(store);
        let reopened = ResponseStore::open(&scratch.0, BUDGET).unwrap();
        assert_eq!(reopened.get("k").unwrap(), "new");
        assert_eq!(reopened.status().records, 1);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let scratch = Scratch::new("torn");
        let store = ResponseStore::open(&scratch.0, BUDGET).unwrap();
        store.put("whole", "survives").unwrap();
        let log = scratch.0.join(STORE_LOG);
        let clean_len = store.status().bytes;
        drop(store);

        // Simulate a kill -9 mid-append: a header promising more
        // payload than exists.
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&500u32.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.write_all(b"only a few bytes").unwrap();
        drop(f);

        let reopened = ResponseStore::open(&scratch.0, BUDGET).unwrap();
        assert_eq!(reopened.get("whole").unwrap(), "survives");
        let s = reopened.status();
        assert_eq!(s.records, 1);
        assert_eq!(
            s.bytes, clean_len,
            "tail truncated back to the last whole record"
        );
        assert!(s.truncated_bytes > 0);
        assert_eq!(s.quarantined, 0);

        // And the store keeps working after recovery.
        reopened.put("after", "recovery").unwrap();
        assert_eq!(reopened.get("after").unwrap(), "recovery");
    }

    #[test]
    fn bad_crc_records_are_skipped_and_counted() {
        let scratch = Scratch::new("badcrc");
        let store = ResponseStore::open(&scratch.0, BUDGET).unwrap();
        store.put("good", "kept").unwrap();
        let log = scratch.0.join(STORE_LOG);
        drop(store);

        // A complete, well-framed record whose CRC is wrong.
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u16.to_le_bytes());
        payload.extend_from_slice(b"bad");
        payload.extend_from_slice(b"\"value\"");
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
        f.write_all(&payload).unwrap();
        // Followed by another good record, proving the scan resyncs.
        drop(f);

        let reopened = ResponseStore::open(&scratch.0, BUDGET).unwrap();
        let s = reopened.status();
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.truncated_bytes, 0);
        assert_eq!(reopened.get("good").unwrap(), "kept");
        assert_eq!(reopened.get("bad"), None);

        // New appends after the quarantined record still index correctly.
        reopened.put("later", "fine").unwrap();
        drop(reopened);
        let again = ResponseStore::open(&scratch.0, BUDGET).unwrap();
        assert_eq!(again.get("later").unwrap(), "fine");
        assert_eq!(again.status().quarantined, 1);
    }

    #[test]
    fn foreign_files_are_refused() {
        let scratch = Scratch::new("foreign");
        std::fs::write(scratch.0.join(STORE_LOG), b"definitely not a store log").unwrap();
        assert!(matches!(
            ResponseStore::open(&scratch.0, BUDGET),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn budget_compaction_evicts_oldest_first() {
        let scratch = Scratch::new("budget");
        // Each record is ~8 + 2 + 2 + 100 bytes; budget fits ~4 of them.
        let store = ResponseStore::open(&scratch.0, 500).unwrap();
        let body = "x".repeat(100);
        for i in 0..8 {
            store.put(&format!("k{i}"), &body).unwrap();
        }
        let s = store.status();
        assert!(s.bytes <= 500, "log stays within budget, got {}", s.bytes);
        assert!(s.compactions >= 1);
        assert!(s.evicted >= 1);
        // The newest record always survives; the oldest is gone.
        assert_eq!(store.get("k7").unwrap(), body);
        assert_eq!(store.get("k0"), None);
        drop(store);

        // Compaction output is itself a valid, recoverable log.
        let reopened = ResponseStore::open(&scratch.0, 500).unwrap();
        assert_eq!(reopened.get("k7").unwrap(), body);
        assert_eq!(reopened.status().quarantined, 0);
        assert_eq!(reopened.status().truncated_bytes, 0);
    }

    #[test]
    fn compaction_drops_superseded_bytes_without_evicting_live_records() {
        let scratch = Scratch::new("compact-dead");
        let store = ResponseStore::open(&scratch.0, 10_000).unwrap();
        // Twelve ~1 KiB generations of the same key: only the newest is
        // live, so the log fills with superseded bytes and compaction
        // fires — but the live set (one record) is tiny, so nothing is
        // evicted.
        let mut last = String::new();
        for i in 0..12 {
            last = format!("generation {i}{}", "p".repeat(1000));
            store.put("k", &last).unwrap();
        }
        let s = store.status();
        assert!(s.compactions >= 1);
        assert!(s.bytes <= 10_000);
        assert_eq!(s.records, 1);
        assert_eq!(s.evicted, 0, "live records must survive compaction");
        assert_eq!(store.get("k").unwrap(), last);
    }

    #[test]
    fn oversized_record_is_skipped_not_stored() {
        let scratch = Scratch::new("oversize");
        let store = ResponseStore::open(&scratch.0, 64).unwrap();
        store.put("big", &"y".repeat(1000)).unwrap();
        assert_eq!(store.get("big"), None);
        assert_eq!(store.status().records, 0);
    }
}
