//! Parser for CRAWDAD `cambridge/haggle` contact traces.
//!
//! The iMote trace files list one contact per line:
//!
//! ```text
//! <id_a> <id_b> <start_seconds> <end_seconds> [extra columns...]
//! ```
//!
//! Lines starting with `#` (or `%`) and blank lines are ignored. Device ids
//! are arbitrary integers; they are remapped to dense [`NodeId`]s, and times
//! are shifted so the first contact is at `t = 0`.

use std::collections::BTreeMap;
use std::io::BufRead;

use contact_graph::{ContactEvent, ContactSchedule, NodeId, Time};

/// Errors produced while parsing a Haggle trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// An I/O error from the underlying reader.
    Io(std::io::Error),
    /// A data line did not have at least four whitespace-separated fields.
    MissingFields {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse as a number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A contact listed the same device twice.
    SelfContact {
        /// 1-based line number.
        line: usize,
    },
    /// The trace contained no usable contacts (after filtering).
    Empty,
    /// Lenient parsing skipped more than the allowed fraction of data
    /// lines (see [`HaggleParser::lenient`]).
    TooManyBadLines {
        /// Data lines that failed to parse and were skipped.
        skipped: usize,
        /// Total data lines seen (parsed + skipped).
        total: usize,
        /// The configured maximum skipped fraction.
        max_ratio: f64,
        /// The first per-line error encountered.
        first: Box<TraceError>,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            TraceError::MissingFields { line } => {
                write!(f, "line {line}: expected at least 4 fields")
            }
            TraceError::BadNumber { line, token } => {
                write!(f, "line {line}: cannot parse number from {token:?}")
            }
            TraceError::SelfContact { line } => {
                write!(f, "line {line}: contact lists the same device twice")
            }
            TraceError::Empty => write!(f, "trace contains no usable contacts"),
            TraceError::TooManyBadLines {
                skipped,
                total,
                max_ratio,
                first,
            } => write!(
                f,
                "{skipped} of {total} data lines unparseable \
                 (over the {max_ratio} lenient threshold); first: {first}"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A parsed trace: the contact schedule plus the mapping from original
/// device ids to dense node ids.
#[derive(Debug, Clone)]
pub struct ParsedTrace {
    /// The time-ordered contact schedule (times in the trace's own unit,
    /// seconds for the Haggle datasets, shifted so the first contact is at
    /// `t = 0`).
    pub schedule: ContactSchedule,
    /// `device_ids[k]` is the original id of node `k`.
    pub device_ids: Vec<u64>,
    /// Malformed data lines skipped by [`HaggleParser::lenient`] mode
    /// (always `0` for a strict parse).
    pub lines_skipped: usize,
}

impl ParsedTrace {
    /// The dense node id of an original device id, if it appears.
    pub fn node_of_device(&self, device: u64) -> Option<NodeId> {
        self.device_ids
            .iter()
            .position(|&d| d == device)
            .map(|i| NodeId(i as u32))
    }
}

/// Configurable Haggle-format parser.
///
/// # Examples
///
/// ```
/// use traces::HaggleParser;
///
/// let trace = "\
/// % three iMotes
/// 1 2 100 160
/// 2 3 150 170
/// ";
/// let parsed = HaggleParser::new().parse_str(trace).unwrap();
/// assert_eq!(parsed.schedule.node_count(), 3);
/// assert_eq!(parsed.schedule.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct HaggleParser {
    /// `Some(max_bad_ratio)` skips malformed data lines instead of
    /// failing, up to that fraction of all data lines.
    lenient: Option<f64>,
}

impl HaggleParser {
    /// Creates a strict parser: the first malformed data line fails the
    /// parse.
    pub fn new() -> Self {
        HaggleParser { lenient: None }
    }

    /// Skips malformed data lines instead of failing, as long as they
    /// stay within `max_bad_ratio` of all data lines (`0.0` tolerates
    /// none, `1.0` tolerates anything). Skipped lines are counted in
    /// [`ParsedTrace::lines_skipped`] and on the `trace.lines_skipped`
    /// telemetry counter; exceeding the ratio yields
    /// [`TraceError::TooManyBadLines`] carrying the first line error.
    ///
    /// Real CRAWDAD exports are occasionally dirty — a truncated final
    /// line, a stray header mid-file — and a multi-day parse should not
    /// die on one of them.
    pub fn lenient(mut self, max_bad_ratio: f64) -> Self {
        self.lenient = Some(max_bad_ratio.clamp(0.0, 1.0));
        self
    }

    /// Parses a trace from a string.
    ///
    /// # Errors
    ///
    /// See [`TraceError`].
    pub fn parse_str(&self, s: &str) -> Result<ParsedTrace, TraceError> {
        self.parse_reader(s.as_bytes())
    }

    /// Parses a trace from any buffered reader.
    ///
    /// # Errors
    ///
    /// See [`TraceError`].
    pub fn parse_reader<R: BufRead>(&self, reader: R) -> Result<ParsedTrace, TraceError> {
        let mut raw: Vec<(u64, u64, f64)> = Vec::new();
        let mut data_lines = 0usize;
        let mut skipped = 0usize;
        let mut first_bad: Option<TraceError> = None;
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let line = line.trim();
            let lineno = lineno + 1;
            if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
                continue;
            }
            data_lines += 1;
            match parse_data_line(line, lineno) {
                Ok((a, b, start)) => raw.push((a, b, start)),
                Err(e) if self.lenient.is_some() => {
                    skipped += 1;
                    obs::counter_add("trace.lines_skipped", 1);
                    obs::debug!("traces::haggle", "skipping line {lineno}: {e}");
                    first_bad.get_or_insert(e);
                }
                Err(e) => return Err(e),
            }
        }

        if let Some(max_ratio) = self.lenient {
            if skipped > 0 && skipped as f64 > max_ratio * data_lines as f64 {
                return Err(TraceError::TooManyBadLines {
                    skipped,
                    total: data_lines,
                    max_ratio,
                    first: Box::new(first_bad.expect("skipped > 0 implies a first error")),
                });
            }
        }

        if raw.is_empty() {
            return Err(TraceError::Empty);
        }

        // Dense id remapping, deterministic by original id.
        let mut id_map: BTreeMap<u64, u32> = BTreeMap::new();
        for &(a, b, _) in &raw {
            let next = id_map.len() as u32;
            id_map.entry(a).or_insert(next);
            let next = id_map.len() as u32;
            id_map.entry(b).or_insert(next);
        }
        let mut device_ids = vec![0u64; id_map.len()];
        for (&dev, &idx) in &id_map {
            device_ids[idx as usize] = dev;
        }

        let origin = raw.iter().map(|&(_, _, t)| t).fold(f64::INFINITY, f64::min);

        let events: Vec<ContactEvent> = raw
            .iter()
            .map(|&(a, b, t)| {
                ContactEvent::new(
                    Time::new(t - origin),
                    NodeId(id_map[&a]),
                    NodeId(id_map[&b]),
                )
            })
            .collect();
        let horizon = events
            .iter()
            .map(|e| e.time)
            .max()
            .expect("non-empty events");

        Ok(ParsedTrace {
            schedule: ContactSchedule::from_events(events, device_ids.len(), horizon),
            device_ids,
            lines_skipped: skipped,
        })
    }
}

/// Parses one non-comment trace line into `(device_a, device_b, start)`.
fn parse_data_line(line: &str, lineno: usize) -> Result<(u64, u64, f64), TraceError> {
    let mut fields = line.split_whitespace();
    let mut next_field = || {
        fields
            .next()
            .ok_or(TraceError::MissingFields { line: lineno })
    };
    let a_tok = next_field()?;
    let b_tok = next_field()?;
    let start_tok = next_field()?;
    let _end_tok = next_field()?;

    let parse_u64 = |tok: &str| {
        tok.parse::<u64>().map_err(|_| TraceError::BadNumber {
            line: lineno,
            token: tok.to_string(),
        })
    };
    let a = parse_u64(a_tok)?;
    let b = parse_u64(b_tok)?;
    let start = start_tok
        .parse::<f64>()
        .map_err(|_| TraceError::BadNumber {
            line: lineno,
            token: start_tok.to_string(),
        })?;
    if a == b {
        return Err(TraceError::SelfContact { line: lineno });
    }
    Ok((a, b, start))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# comment line
% another comment

3 7 1000 1050 1 0
7 12 1010 1020
3 12 1030.5 1090
";

    #[test]
    fn parses_and_remaps() {
        let parsed = HaggleParser::new().parse_str(SAMPLE).unwrap();
        assert_eq!(parsed.schedule.node_count(), 3);
        assert_eq!(parsed.schedule.len(), 3);
        assert_eq!(parsed.device_ids, vec![3, 7, 12]);
        assert_eq!(parsed.node_of_device(7), Some(NodeId(1)));
        assert_eq!(parsed.node_of_device(99), None);
        // Origin shifted: first contact at t = 0.
        assert_eq!(parsed.schedule.events()[0].time, Time::ZERO);
        assert_eq!(parsed.schedule.horizon(), Time::new(30.5));
    }

    #[test]
    fn missing_fields_reported_with_line() {
        let err = HaggleParser::new().parse_str("1 2 100\n").unwrap_err();
        assert!(matches!(err, TraceError::MissingFields { line: 1 }));
    }

    #[test]
    fn bad_number_reported() {
        let err = HaggleParser::new().parse_str("1 x 100 200\n").unwrap_err();
        assert!(matches!(err, TraceError::BadNumber { line: 1, .. }));
    }

    #[test]
    fn self_contact_rejected() {
        let err = HaggleParser::new().parse_str("5 5 1 2\n").unwrap_err();
        assert!(matches!(err, TraceError::SelfContact { line: 1 }));
    }

    #[test]
    fn empty_trace_rejected() {
        assert!(matches!(
            HaggleParser::new().parse_str("# nothing\n").unwrap_err(),
            TraceError::Empty
        ));
    }

    #[test]
    fn extra_columns_ignored() {
        let parsed = HaggleParser::new()
            .parse_str("1 2 0 10 99 88 77 66\n")
            .unwrap();
        assert_eq!(parsed.schedule.len(), 1);
    }

    #[test]
    fn errors_display() {
        let e = HaggleParser::new().parse_str("1 2 x 10\n").unwrap_err();
        assert!(e.to_string().contains("line 1"));
    }

    const DIRTY: &str = "\
1 2 100 160
not a data line
2 3 150 170
3 3 180 190
";

    #[test]
    fn strict_parse_reports_zero_skipped() {
        let parsed = HaggleParser::new().parse_str(SAMPLE).unwrap();
        assert_eq!(parsed.lines_skipped, 0);
    }

    #[test]
    fn lenient_skips_and_counts_bad_lines() {
        // 4 data lines, 2 bad (short line + self-contact): ratio 0.5.
        let parsed = HaggleParser::new().lenient(0.5).parse_str(DIRTY).unwrap();
        assert_eq!(parsed.lines_skipped, 2);
        assert_eq!(parsed.schedule.len(), 2);
        assert_eq!(parsed.device_ids, vec![1, 2, 3]);
    }

    #[test]
    fn lenient_over_ratio_fails_with_first_error() {
        let err = HaggleParser::new()
            .lenient(0.25)
            .parse_str(DIRTY)
            .unwrap_err();
        match err {
            TraceError::TooManyBadLines {
                skipped,
                total,
                first,
                ..
            } => {
                assert_eq!((skipped, total), (2, 4));
                assert!(matches!(*first, TraceError::BadNumber { line: 2, .. }));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn lenient_zero_tolerates_no_bad_lines() {
        assert!(matches!(
            HaggleParser::new()
                .lenient(0.0)
                .parse_str(DIRTY)
                .unwrap_err(),
            TraceError::TooManyBadLines { .. }
        ));
        // ...but a clean trace parses fine at ratio zero.
        assert!(HaggleParser::new().lenient(0.0).parse_str(SAMPLE).is_ok());
    }
}
