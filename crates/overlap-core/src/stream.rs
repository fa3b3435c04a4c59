//! Streaming JSONL ingest: fold an exported event stream back into
//! batch-identical aggregates with bounded memory.
//!
//! The batch pipeline folds events inside the instrumented process and reads
//! the result out at finalize. This module is the same fold turned inside
//! out: it consumes the `<id>.events.jsonl` export (see [`crate::trace::jsonl`])
//! line by line — from a file, a socket, or an HTTP body — and maintains the
//! identical running aggregates per `(scope, rank)`, so a long-running
//! service (`overlapd`) can answer overlap questions while runs are still in
//! flight.
//!
//! **Batch/stream equivalence.** For the same event stream, a
//! [`SessionFold`]'s outputs reconcile byte-identically with the batch
//! pipeline's: [`RankSummary`] carries the same totals, per-bin stats, call
//! stats, anomaly counters and [`MetricsRegistry`] contents as the rank's
//! [`crate::report::OverlapReport`]; the windowed series runs through
//! [`crate::trace::windowed_parts`]; and attribution artifacts run through
//! [`crate::artifact`] — the same constructors the batch CLI uses. Bound
//! records are consumed from the stream's `xfer_bounds` lines (authoritative:
//! the a-priori transfer-time table never leaves the instrumented process),
//! wait intervals from its `wait` lines, and everything re-derivable from the
//! raw events is re-derived by the exact processor fold.
//!
//! **Memory model.** Raw events pass through a capped [`EventRing`] and are
//! folded on overflow ([`FoldOpts::ring_capacity`]) — they are never
//! retained, so memory is O(sessions × ranks × ring) plus the *derived*
//! records the served artifacts require (one [`BoundRecord`] per transfer,
//! one span per top-level call, one interval per recorded wait), never
//! O(raw events).
//!
//! Call and section names are interned into one process-global pool capped
//! at [`INTERN_CAP`] distinct names; a line that would add a name beyond
//! the cap is refused and changes nothing.
//!
//! **Views are a function of the accepted lines.** [`SessionFold::lines`]
//! counts accepted lines and serves as the session's generation: a refused
//! line changes nothing, and a read folds the ring early without changing
//! what any later read returns (`ring_folds` counts the folds the pushed
//! events force, not the reads). `overlapd` keeps each served body for as
//! long as the generation holds.
//!
//! **Ingest cost.** [`parse_line`] builds no JSON tree for the lines the
//! in-tree exporter writes. A borrowed scanner reads them in the
//! exporter's fixed key order, straight into a [`StreamLine`] whose scope
//! borrows from the line, so [`SessionFold::push_line`] allocates a scope
//! string only the first time it meets a scope. The scanner takes a line
//! only when it matches that shape exactly: no whitespace, no other key
//! order, no escapes or control bytes in strings, plain decimal `u64`
//! numbers without signs, fractions, exponents, leading zeros or
//! overflow, and nothing after the closing brace. Every other line goes
//! to the general `serde_json` reader (`parse_line_general`), which
//! alone refuses lines, so the accepted language and every error message
//! are those of the general reader; `tests/stream_scanner.rs` checks the
//! two paths agree line for line. On a 2-vCPU x86-64 VM, a 256-rank halo
//! export parses at 4.3–5.0M lines/s (the general reader: 0.28–0.36M) and
//! folds into a fresh session at 2.6–3.1M lines/s with ~0.12 allocations
//! per line, all of them per-scope and per-rank set-up.
//!
//! **Schema guard.** A stream must open with the
//! `{"ev":"header","schema_version":N}` line written by the exporter; a
//! missing or mismatched header is rejected with a one-line
//! [`StreamError`] before any state is touched.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Mutex;

use serde::Serialize;

use crate::artifact::{self, AttributionArtifact, RankArtifactInput, ScopeWaitStates};
use crate::attribution::{self, RankAttribution, WaitCause, WaitInterval};
use crate::bins::SizeBins;
use crate::bounds::OverlapBounds;
use crate::event::{Event, EventKind};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::queue::EventRing;
use crate::report::{Anomalies, CallStats, OverlapStats};
use crate::trace::{case_from_label, BoundRecord, RankWindowParts, WindowRow, SCHEMA_VERSION};

/// Most distinct call/section names the process-global intern pool holds.
/// A line that would add a new name to a full pool is refused with a
/// one-line [`StreamError::BadLine`] and changes nothing.
pub const INTERN_CAP: usize = 4096;

static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Intern a call/section name into a `&'static str`.
///
/// The event model carries static names (the instrumented library passes
/// string literals); a stream reader has to reconstruct them. Names are
/// leaked once into a process-global pool of at most [`INTERN_CAP`] names,
/// so hostile input cannot grow it without bound: a new name beyond the cap
/// is refused with a one-line error and the pool is left unchanged.
fn intern(s: &str, line: &str) -> Result<&'static str, StreamError> {
    // Every update is a single insert, so a poisoned pool is still valid.
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&v) = pool.get(s) {
        return Ok(v);
    }
    if pool.len() >= INTERN_CAP {
        return Err(bad(
            line,
            &format!("name pool full ({INTERN_CAP} distinct call/section names)"),
        ));
    }
    let v: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.insert(v);
    Ok(v)
}

/// Distinct names in the process-global intern pool (for tests).
#[doc(hidden)]
pub fn intern_pool_len() -> usize {
    POOL.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Why a stream line (or stream) was rejected. Every variant renders as a
/// single line, suitable for a one-line client error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The stream did not open with a schema header line.
    MissingHeader,
    /// The stream's `schema_version` differs from this reader's
    /// [`SCHEMA_VERSION`].
    SchemaMismatch {
        /// The version the stream declared.
        found: u64,
    },
    /// A line was not valid JSONL of any known shape.
    BadLine {
        /// What was wrong, with a snippet of the offending line.
        detail: String,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::MissingHeader => write!(
                f,
                "missing schema header: stream must open with {{\"ev\":\"header\",\"schema_version\":{SCHEMA_VERSION}}}"
            ),
            StreamError::SchemaMismatch { found } => write!(
                f,
                "schema_version mismatch: stream declares {found}, this reader expects {SCHEMA_VERSION}"
            ),
            StreamError::BadLine { detail } => write!(f, "bad stream line: {detail}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Truncate a line for inclusion in an error message.
fn snip(line: &str) -> String {
    if line.len() <= 120 {
        line.to_string()
    } else {
        let mut s: String = line.chars().take(120).collect();
        s.push('…');
        s
    }
}

fn bad(line: &str, what: &str) -> StreamError {
    StreamError::BadLine {
        detail: format!("{what} in `{}`", snip(line)),
    }
}

fn req_u64(v: &serde_json::Value, key: &str, line: &str) -> Result<u64, StreamError> {
    v.get(key)
        .and_then(|x| x.as_u64())
        .ok_or_else(|| bad(line, &format!("missing or non-numeric `{key}`")))
}

fn opt_u64(v: &serde_json::Value, key: &str, line: &str) -> Result<Option<u64>, StreamError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) if x.is_null() => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(line, &format!("non-numeric `{key}`"))),
    }
}

fn req_bool(v: &serde_json::Value, key: &str, line: &str) -> Result<bool, StreamError> {
    v.get(key)
        .and_then(|x| x.as_bool())
        .ok_or_else(|| bad(line, &format!("missing or non-boolean `{key}`")))
}

fn req_str<'v>(v: &'v serde_json::Value, key: &str, line: &str) -> Result<&'v str, StreamError> {
    v.get(key)
        .and_then(|x| x.as_str())
        .ok_or_else(|| bad(line, &format!("missing or non-string `{key}`")))
}

/// One parsed line of the JSONL stream. Scope labels borrow from the line
/// when it was read by the fast scanner, so folding a line allocates no
/// scope string.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamLine<'a> {
    /// The schema header line (always first in an export).
    Header {
        /// Declared schema version.
        schema_version: u64,
    },
    /// A raw instrumentation event.
    Event {
        /// Scope label the line belongs to.
        scope: Cow<'a, str>,
        /// Rank within the scope.
        rank: usize,
        /// The reconstructed event.
        event: Event,
    },
    /// A derived per-transfer bound record (`"ev":"xfer_bounds"`).
    Bound {
        /// Scope label the line belongs to.
        scope: Cow<'a, str>,
        /// Rank within the scope.
        rank: usize,
        /// The reconstructed record.
        record: BoundRecord,
    },
    /// A classified wait interval (`"ev":"wait"`).
    Wait {
        /// Scope label the line belongs to.
        scope: Cow<'a, str>,
        /// Rank within the scope.
        rank: usize,
        /// The reconstructed interval.
        wait: WaitInterval,
    },
    /// A fabric-side extra (`"ev":"fault"`); only the timestamp matters to
    /// the fold (the windowed series counts faults per window).
    Fault {
        /// Scope label the line belongs to.
        scope: Cow<'a, str>,
        /// Virtual timestamp, ns.
        t: u64,
    },
}

/// A `call_enter` or `section_begin` line whose name still has to be
/// interned. Both parse paths finish through [`NamedEvent::intern`], after
/// the whole line has been validated.
struct NamedEvent<'a, 'n> {
    scope: Cow<'a, str>,
    rank: usize,
    t: u64,
    name: &'n str,
    section: bool,
}

impl<'a> NamedEvent<'a, '_> {
    fn intern(self, line: &str) -> Result<StreamLine<'a>, StreamError> {
        let name = intern(self.name, line)?;
        let kind = if self.section {
            EventKind::SectionBegin { name }
        } else {
            EventKind::CallEnter { name }
        };
        Ok(StreamLine::Event {
            scope: self.scope,
            rank: self.rank,
            event: Event::new(self.t, kind),
        })
    }
}

/// Parse one JSONL line into a [`StreamLine`]. Rejects unknown `ev` kinds
/// and malformed fields with a one-line [`StreamError`].
///
/// Lines in the exact byte shape [`crate::trace::jsonl`] writes are read by
/// a borrowed scanner that builds no JSON tree; every other line — and
/// every line the scanner is unsure of — goes through the general
/// `serde_json` reader, which alone decides what is refused and how. Both
/// paths yield the same value for every line the scanner accepts.
pub fn parse_line(line: &str) -> Result<StreamLine<'_>, StreamError> {
    match scan::line(line) {
        Some(scan::Scanned::Line(parsed)) => Ok(parsed),
        Some(scan::Scanned::Named(named)) => named.intern(line),
        None => parse_line_general(line),
    }
}

/// The general `serde_json` reader behind [`parse_line`]: accepts any key
/// order and any valid JSON encoding of the fields. Exposed only so tests
/// can compare the two paths.
#[doc(hidden)]
pub fn parse_line_general(line: &str) -> Result<StreamLine<'static>, StreamError> {
    let v: serde_json::Value =
        serde_json::from_str(line).map_err(|e| bad(line, &format!("not JSON ({e})")))?;
    let ev = req_str(&v, "ev", line)?;
    if ev == "header" {
        return Ok(StreamLine::Header {
            schema_version: req_u64(&v, "schema_version", line)?,
        });
    }
    let scope = Cow::Owned(req_str(&v, "scope", line)?.to_string());
    let t = req_u64(&v, "t", line)?;
    if ev == "fault" {
        return Ok(StreamLine::Fault { scope, t });
    }
    let rank = req_u64(&v, "rank", line)? as usize;
    let kind = match ev {
        "call_enter" | "section_begin" => {
            return NamedEvent {
                scope,
                rank,
                t,
                name: req_str(&v, "name", line)?,
                section: ev == "section_begin",
            }
            .intern(line)
        }
        "call_exit" => EventKind::CallExit,
        "xfer_begin" => EventKind::XferBegin {
            id: req_u64(&v, "id", line)?,
            bytes: req_u64(&v, "bytes", line)?,
        },
        "xfer_end" => EventKind::XferEnd {
            id: req_u64(&v, "id", line)?,
            bytes: req_u64(&v, "bytes", line)?,
        },
        "section_end" => EventKind::SectionEnd,
        "xfer_flag" => EventKind::XferFlag {
            id: req_u64(&v, "id", line)?,
        },
        "xfer_bounds" => {
            let case_s = req_str(&v, "case", line)?;
            let case = case_from_label(case_s).ok_or_else(|| bad(line, "unknown bound `case`"))?;
            return Ok(StreamLine::Bound {
                scope,
                rank,
                record: BoundRecord {
                    id: opt_u64(&v, "id", line)?,
                    bytes: req_u64(&v, "bytes", line)?,
                    begin_t: opt_u64(&v, "begin_t", line)?,
                    end_t: t,
                    xfer_time: req_u64(&v, "xfer_time", line)?,
                    min: req_u64(&v, "min", line)?,
                    max: req_u64(&v, "max", line)?,
                    case,
                    flagged: req_bool(&v, "flagged", line)?,
                    clamped: req_bool(&v, "clamped", line)?,
                },
            });
        }
        "wait" => {
            let cause_s = req_str(&v, "cause", line)?;
            let cause =
                WaitCause::from_label(cause_s).ok_or_else(|| bad(line, "unknown wait `cause`"))?;
            return Ok(StreamLine::Wait {
                scope,
                rank,
                wait: WaitInterval {
                    start: t,
                    end: req_u64(&v, "end", line)?,
                    cause,
                    xfer: opt_u64(&v, "xfer", line)?,
                },
            });
        }
        other => return Err(bad(line, &format!("unknown `ev` kind \"{other}\""))),
    };
    Ok(StreamLine::Event {
        scope,
        rank,
        event: Event::new(t, kind),
    })
}

/// The fast path of [`parse_line`]: a borrowed, allocation-free scanner for
/// the exact lines [`crate::trace::jsonl`] writes. Keys must appear in the
/// exporter's order with no whitespace; numbers must be plain decimal `u64`
/// without leading zeros; strings must hold no escapes or control bytes.
/// Anything else — including unknown `ev` kinds, labels and trailing bytes —
/// returns `None` and is left to the general reader.
mod scan {
    use std::borrow::Cow;

    use super::{NamedEvent, StreamLine};
    use crate::attribution::{WaitCause, WaitInterval};
    use crate::event::{Event, EventKind};
    use crate::trace::{case_from_label, BoundRecord};

    /// A fully validated line.
    pub(super) enum Scanned<'a> {
        /// Ready to fold.
        Line(StreamLine<'a>),
        /// Ready once its name is interned.
        Named(NamedEvent<'a, 'a>),
    }

    struct Cursor<'a> {
        s: &'a str,
        i: usize,
    }

    impl<'a> Cursor<'a> {
        fn rest(&self) -> &'a [u8] {
            &self.s.as_bytes()[self.i..]
        }

        /// Consume `lit` exactly.
        fn lit(&mut self, lit: &str) -> Option<()> {
            self.rest().starts_with(lit.as_bytes()).then(|| {
                self.i += lit.len();
            })
        }

        /// A plain decimal `u64`: no sign, fraction, exponent, leading zero
        /// or overflow.
        fn u64(&mut self) -> Option<u64> {
            let digits = self
                .rest()
                .iter()
                .take_while(|c| c.is_ascii_digit())
                .count();
            let d = &self.rest()[..digits];
            if d.is_empty() || (d.len() > 1 && d[0] == b'0') {
                return None;
            }
            let v = d.iter().try_fold(0u64, |v, &c| {
                v.checked_mul(10)?.checked_add(u64::from(c - b'0'))
            })?;
            self.i += digits;
            Some(v)
        }

        /// `null` or a plain `u64`.
        fn opt_u64(&mut self) -> Option<Option<u64>> {
            match self.lit("null") {
                Some(()) => Some(None),
                None => self.u64().map(Some),
            }
        }

        fn bool(&mut self) -> Option<bool> {
            if self.lit("true").is_some() {
                Some(true)
            } else {
                self.lit("false").map(|()| false)
            }
        }

        /// A string with no escapes or control bytes, borrowed from the line.
        fn str(&mut self) -> Option<&'a str> {
            self.lit("\"")?;
            let len = self.rest().iter().position(|&c| c == b'"')?;
            let body = &self.rest()[..len];
            if body.iter().any(|&c| c == b'\\' || c < 0x20) {
                return None;
            }
            // Both ends sit next to an ASCII quote, so they are char
            // boundaries.
            let out = &self.s[self.i..self.i + len];
            self.i += len + 1;
            Some(out)
        }

        /// `key` (given with its leading `,"` and trailing `":`) and then a
        /// value read by `read`.
        fn field<T>(&mut self, key: &str, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
            self.lit(key)?;
            read(self)
        }

        /// The closing brace, and nothing after it.
        fn close(&mut self) -> Option<()> {
            self.lit("}")?;
            (self.i == self.s.len()).then_some(())
        }
    }

    /// Scan one line; `None` means "not the exporter's exact shape".
    pub(super) fn line(line: &str) -> Option<Scanned<'_>> {
        let mut c = Cursor { s: line, i: 0 };
        if c.lit(r#"{"ev":"header""#).is_some() {
            let schema_version = c.field(r#","schema_version":"#, Cursor::u64)?;
            c.close()?;
            return Some(Scanned::Line(StreamLine::Header { schema_version }));
        }
        let scope = c.field(r#"{"scope":"#, Cursor::str)?;
        // Only fault lines carry no rank, so `t` right after the scope
        // commits the scanner to the fault shape.
        if c.lit(r#","t":"#).is_some() {
            let t = c.u64()?;
            c.field(r#","ev":"fault","name":"#, Cursor::str)?;
            c.field(r#","detail":"#, Cursor::str)?;
            c.close()?;
            return Some(Scanned::Line(StreamLine::Fault {
                scope: Cow::Borrowed(scope),
                t,
            }));
        }
        let rank = usize::try_from(c.field(r#","rank":"#, Cursor::u64)?).ok()?;
        let t = c.field(r#","t":"#, Cursor::u64)?;
        let ev = c.field(r#","ev":"#, Cursor::str)?;
        let scope = Cow::Borrowed(scope);
        let kind = match ev {
            "call_enter" | "section_begin" => {
                let name = c.field(r#","name":"#, Cursor::str)?;
                c.close()?;
                return Some(Scanned::Named(NamedEvent {
                    scope,
                    rank,
                    t,
                    name,
                    section: ev == "section_begin",
                }));
            }
            "call_exit" => EventKind::CallExit,
            "xfer_begin" | "xfer_end" => {
                let id = c.field(r#","id":"#, Cursor::u64)?;
                let bytes = c.field(r#","bytes":"#, Cursor::u64)?;
                if ev == "xfer_begin" {
                    EventKind::XferBegin { id, bytes }
                } else {
                    EventKind::XferEnd { id, bytes }
                }
            }
            "section_end" => EventKind::SectionEnd,
            "xfer_flag" => EventKind::XferFlag {
                id: c.field(r#","id":"#, Cursor::u64)?,
            },
            "xfer_bounds" => {
                let record = BoundRecord {
                    id: c.field(r#","id":"#, Cursor::opt_u64)?,
                    bytes: c.field(r#","bytes":"#, Cursor::u64)?,
                    begin_t: c.field(r#","begin_t":"#, Cursor::opt_u64)?,
                    end_t: t,
                    xfer_time: c.field(r#","xfer_time":"#, Cursor::u64)?,
                    min: c.field(r#","min":"#, Cursor::u64)?,
                    max: c.field(r#","max":"#, Cursor::u64)?,
                    case: case_from_label(c.field(r#","case":"#, Cursor::str)?)?,
                    flagged: c.field(r#","flagged":"#, Cursor::bool)?,
                    clamped: c.field(r#","clamped":"#, Cursor::bool)?,
                };
                c.close()?;
                return Some(Scanned::Line(StreamLine::Bound {
                    scope,
                    rank,
                    record,
                }));
            }
            "wait" => {
                let wait = WaitInterval {
                    start: t,
                    end: c.field(r#","end":"#, Cursor::u64)?,
                    cause: WaitCause::from_label(c.field(r#","cause":"#, Cursor::str)?)?,
                    xfer: c.field(r#","xfer":"#, Cursor::opt_u64)?,
                };
                c.close()?;
                return Some(Scanned::Line(StreamLine::Wait { scope, rank, wait }));
            }
            _ => return None,
        };
        c.close()?;
        Some(Scanned::Line(StreamLine::Event {
            scope,
            rank,
            event: Event::new(t, kind),
        }))
    }
}

/// Tuning knobs for a [`SessionFold`].
#[derive(Debug, Clone)]
pub struct FoldOpts {
    /// Capacity of the per-(scope, rank) event ring; events fold into the
    /// running aggregates whenever it fills. Minimum 2.
    pub ring_capacity: usize,
    /// Message-size bin layout; must match the instrumented process's layout
    /// (the default, [`SizeBins::default`], always does in this repository).
    pub bins: SizeBins,
}

impl Default for FoldOpts {
    fn default() -> Self {
        FoldOpts {
            ring_capacity: 4096,
            bins: SizeBins::default(),
        }
    }
}

/// One rank's streaming fold: the processor's interval sweep re-run on the
/// replayed events, plus the folded bound aggregates and the derived records
/// the read endpoints need.
struct RankFold {
    ring: EventRing,
    /// Reusable drain buffer so steady-state folding never allocates.
    scratch: Vec<Event>,
    ring_folds: u64,
    /// Events pushed since the last counted fold. A read drains the ring
    /// early; counting folds off this instead of the ring's fill keeps
    /// `ring_folds` a function of the pushed events alone.
    unfolded: usize,
    events_seen: u64,
    /// Max event timestamp seen (what the batch trace calls the rank's last
    /// stamp; closes a trailing open call span).
    last_event_t: u64,
    // --- interval sweep (mirrors Processor::advance_to) ---
    depth: u32,
    cursor: u64,
    first_t: Option<u64>,
    user_compute: u64,
    comm_call: u64,
    // --- per-call stats ---
    call_stack: Vec<(&'static str, u64)>,
    calls: BTreeMap<&'static str, CallStats>,
    // --- top-level call spans + flags (windowed series, attribution) ---
    closed_spans: Vec<(u64, u64, &'static str)>,
    open_span: Option<(u64, &'static str)>,
    flags: Vec<u64>,
    // --- anomaly mirrors ---
    active: BTreeSet<u64>,
    section_depth: u32,
    anomalies: Anomalies,
    // --- folded bound aggregates ---
    total: OverlapStats,
    by_bin: Vec<OverlapStats>,
    bounds: Vec<BoundRecord>,
    bounds_hi: u64,
    waits: Vec<WaitInterval>,
    // --- builtin metrics (same fields the batch processor maintains) ---
    xfers_closed: u64,
    xfers_flagged: u64,
    xfers_clamped: u64,
    calls_completed: u64,
    xfer_apriori_ns: Histogram,
    xfer_wall_ns: Histogram,
    call_latency_ns: Histogram,
    bin_hists: Vec<(Histogram, Histogram)>,
}

impl RankFold {
    fn new(ring_capacity: usize, nbins: usize) -> Self {
        RankFold {
            ring: EventRing::new(ring_capacity),
            scratch: Vec::with_capacity(ring_capacity),
            ring_folds: 0,
            unfolded: 0,
            events_seen: 0,
            last_event_t: 0,
            depth: 0,
            cursor: 0,
            first_t: None,
            user_compute: 0,
            comm_call: 0,
            call_stack: Vec::new(),
            calls: BTreeMap::new(),
            closed_spans: Vec::new(),
            open_span: None,
            flags: Vec::new(),
            active: BTreeSet::new(),
            section_depth: 0,
            anomalies: Anomalies::default(),
            total: OverlapStats::default(),
            by_bin: vec![OverlapStats::default(); nbins],
            bounds: Vec::new(),
            bounds_hi: 0,
            waits: Vec::new(),
            xfers_closed: 0,
            xfers_flagged: 0,
            xfers_clamped: 0,
            calls_completed: 0,
            xfer_apriori_ns: Histogram::latency_default(),
            xfer_wall_ns: Histogram::latency_default(),
            call_latency_ns: Histogram::latency_default(),
            bin_hists: (0..nbins)
                .map(|_| (Histogram::latency_default(), Histogram::latency_default()))
                .collect(),
        }
    }

    fn push_event(&mut self, e: Event) {
        self.events_seen += 1;
        self.last_event_t = self.last_event_t.max(e.t);
        if self.unfolded == self.ring.capacity() {
            self.ring_folds += 1;
            self.unfolded = 0;
        }
        self.unfolded += 1;
        if let Err(rejected) = self.ring.push(e) {
            self.flush_ring();
            // Capacity >= 2, so the push cannot fail on an empty ring.
            let _ = self.ring.push(rejected.0);
        }
    }

    fn flush_ring(&mut self) {
        // fold_event needs `&mut self`, so stage the drained events in the
        // reusable scratch buffer first (no steady-state allocation).
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(self.ring.drain());
        for &e in &scratch {
            self.fold_event(e);
        }
        self.scratch = scratch;
    }

    /// `Processor::advance_to`, minus the per-transfer and per-section time
    /// accounting (the bound records arrive pre-derived on the stream, and
    /// the streaming summary does not reproduce section reports).
    fn advance_to(&mut self, t: u64) {
        if self.first_t.is_none() {
            self.first_t = Some(t);
            self.cursor = t;
            return;
        }
        if t < self.cursor {
            self.anomalies.clock_skew += 1;
            return;
        }
        let dt = t - self.cursor;
        if dt == 0 {
            return;
        }
        if self.depth == 0 {
            self.user_compute += dt;
        } else {
            self.comm_call += dt;
        }
        self.cursor = t;
    }

    fn fold_event(&mut self, e: Event) {
        self.advance_to(e.t);
        match e.kind {
            EventKind::CallEnter { name } => {
                if self.depth == 0 {
                    self.open_span = Some((e.t, name));
                }
                self.depth += 1;
                self.call_stack.push((name, e.t));
            }
            EventKind::CallExit => {
                if self.depth == 0 {
                    self.anomalies.unbalanced_calls += 1;
                } else {
                    self.depth -= 1;
                    if self.depth == 0 {
                        if let Some((s, _)) = self.open_span.take() {
                            self.closed_spans.push((
                                s,
                                e.t,
                                // The span keeps the *outermost* call's name.
                                self.call_stack
                                    .first()
                                    .map(|&(n, _)| n)
                                    .unwrap_or("(unknown)"),
                            ));
                        }
                    }
                    if let Some((name, t0)) = self.call_stack.pop() {
                        let c = self.calls.entry(name).or_default();
                        c.count += 1;
                        let dt = e.t.saturating_sub(t0);
                        c.total_time += dt;
                        self.calls_completed += 1;
                        self.call_latency_ns.observe(dt);
                    }
                }
            }
            EventKind::XferBegin { id, .. } => {
                if !self.active.insert(id) {
                    self.anomalies.duplicate_begin += 1;
                }
            }
            EventKind::XferEnd { id, .. } => {
                self.active.remove(&id);
            }
            EventKind::XferFlag { id } => {
                self.flags.push(e.t);
                if !self.active.contains(&id) {
                    self.anomalies.orphan_flags += 1;
                }
            }
            EventKind::SectionBegin { .. } => {
                self.section_depth += 1;
            }
            EventKind::SectionEnd => {
                if self.section_depth == 0 {
                    self.anomalies.unbalanced_sections += 1;
                } else {
                    self.section_depth -= 1;
                }
            }
        }
    }

    /// `Processor::close_transfer`'s aggregate/metric effects, replayed from
    /// the authoritative bound record on the stream.
    fn fold_bound(&mut self, rec: BoundRecord, bins: &SizeBins) {
        let b = OverlapBounds {
            min: rec.min,
            max: rec.max,
            case: rec.case,
        };
        let bin = bins.index(rec.bytes);
        for s in [&mut self.total, &mut self.by_bin[bin]] {
            s.add_bounds(rec.bytes, rec.xfer_time, b);
            if rec.flagged {
                s.note_flagged();
            }
            if rec.clamped {
                s.note_clamped();
            }
        }
        self.xfers_closed += 1;
        if rec.flagged {
            self.xfers_flagged += 1;
        }
        if rec.clamped {
            self.xfers_clamped += 1;
        }
        self.xfer_apriori_ns.observe(rec.xfer_time);
        if let Some(t0) = rec.begin_t {
            self.xfer_wall_ns.observe(rec.end_t.saturating_sub(t0));
        }
        let (min_h, max_h) = &mut self.bin_hists[bin];
        min_h.observe(rec.min);
        max_h.observe(rec.max);
        self.bounds_hi = self.bounds_hi.max(rec.end_t);
        self.bounds.push(rec);
    }

    /// Call spans in the shape [`attribution::call_spans_of`] derives from a
    /// captured trace: a trailing open call closes at the last event stamp.
    fn attr_spans(&self) -> Vec<(u64, u64, &'static str)> {
        let mut spans = self.closed_spans.clone();
        if let Some((s, name)) = self.open_span {
            if self.last_event_t > s {
                spans.push((s, self.last_event_t, name));
            }
        }
        spans
    }

    /// Call spans in the shape the windowed series consumes (trailing open
    /// call closes at the scope span's end `t1`).
    fn window_spans(&self, t1: u64) -> Vec<(u64, u64)> {
        let mut spans: Vec<(u64, u64)> =
            self.closed_spans.iter().map(|&(s, e, _)| (s, e)).collect();
        if let Some((s, _)) = self.open_span {
            spans.push((s, t1));
        }
        spans
    }

    fn attribution(&mut self, rank: usize) -> RankAttribution {
        self.flush_ring();
        attribution::attribute_parts(rank, &self.attr_spans(), &self.waits, &self.bounds)
    }

    fn summary(&mut self, rank: usize, bins: &SizeBins) -> RankSummary {
        self.flush_ring();
        // The batch pipeline finishes at the rank's final stamp; sweep the
        // residual interval on the side so a live snapshot never perturbs
        // the ongoing fold.
        let end = self.last_event_t.max(self.bounds_hi);
        let mut user = self.user_compute;
        let mut comm = self.comm_call;
        if self.first_t.is_some() && end > self.cursor {
            let dt = end - self.cursor;
            if self.depth == 0 {
                user += dt;
            } else {
                comm += dt;
            }
        }
        let elapsed = end.saturating_sub(self.first_t.unwrap_or(end));
        let mut metrics = MetricsRegistry::new();
        for (name, v) in [
            ("xfers_closed", self.xfers_closed),
            ("xfers_flagged", self.xfers_flagged),
            ("xfers_clamped", self.xfers_clamped),
            ("calls_completed", self.calls_completed),
        ] {
            if v > 0 {
                metrics.inc(name, v);
            }
        }
        for (name, h) in [
            ("xfer_apriori_ns", &self.xfer_apriori_ns),
            ("xfer_wall_ns", &self.xfer_wall_ns),
            ("call_latency_ns", &self.call_latency_ns),
        ] {
            if h.count() > 0 {
                metrics.histograms.insert(name.to_string(), h.clone());
            }
        }
        let bin_labels = bins.labels();
        for ((min_h, max_h), label) in self.bin_hists.iter().zip(&bin_labels) {
            if min_h.count() > 0 {
                metrics
                    .histograms
                    .insert(format!("overlap_min_ns/{label}"), min_h.clone());
            }
            if max_h.count() > 0 {
                metrics
                    .histograms
                    .insert(format!("overlap_max_ns/{label}"), max_h.clone());
            }
        }
        let attr =
            attribution::attribute_parts(rank, &self.attr_spans(), &self.waits, &self.bounds);
        attribution::fold_metrics(&attr, bins, &mut metrics);
        RankSummary {
            rank,
            elapsed,
            user_compute_time: user,
            comm_call_time: comm,
            total: self.total,
            bin_labels,
            by_bin: self.by_bin.clone(),
            calls: self
                .calls
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            events_seen: self.events_seen,
            ring_folds: self.ring_folds,
            anomalies: self.anomalies,
            metrics,
        }
    }
}

/// One scope's streaming fold: per-rank folds plus the scope-level span and
/// fabric extras the windowed series needs.
#[derive(Default)]
struct ScopeFold {
    ranks: BTreeMap<usize, RankFold>,
    extras_t: Vec<u64>,
    lo: u64,
    hi: u64,
    any: bool,
}

impl ScopeFold {
    /// Track the covered span exactly as [`crate::trace::TraceBundle::span`]
    /// does: event stamps, bound close/begin stamps, and extras — not waits.
    fn see(&mut self, t: u64) {
        if !self.any {
            self.lo = t;
            self.hi = t;
            self.any = true;
        } else {
            self.lo = self.lo.min(t);
            self.hi = self.hi.max(t);
        }
    }

    fn rank_mut(&mut self, rank: usize, opts: &FoldOpts) -> &mut RankFold {
        let nbins = opts.bins.count();
        let cap = opts.ring_capacity;
        self.ranks
            .entry(rank)
            .or_insert_with(|| RankFold::new(cap, nbins))
    }

    fn series(&mut self, scope: &str, width: Option<u64>) -> ScopeSeries {
        if !self.any {
            return ScopeSeries {
                scope: scope.to_string(),
                window_ns: width.unwrap_or(1).max(1),
                windows: Vec::new(),
            };
        }
        let (t0, t1) = (self.lo, self.hi);
        let window_ns = width
            .unwrap_or_else(|| (t1.saturating_sub(t0) / 16).max(1))
            .max(1);
        for rf in self.ranks.values_mut() {
            rf.flush_ring();
        }
        let spans: Vec<Vec<(u64, u64)>> =
            self.ranks.values().map(|rf| rf.window_spans(t1)).collect();
        let parts: Vec<RankWindowParts<'_>> = self
            .ranks
            .values()
            .zip(&spans)
            .map(|(rf, sp)| RankWindowParts {
                bounds: &rf.bounds,
                call_spans: sp,
                flags: &rf.flags,
            })
            .collect();
        ScopeSeries {
            scope: scope.to_string(),
            window_ns,
            windows: crate::trace::windowed_parts((t0, t1), &parts, &self.extras_t, window_ns),
        }
    }
}

/// One rank's live summary — the streaming analogue of
/// [`crate::report::OverlapReport`] (minus section reports and the
/// recorder-side queue counters, which never ride the export).
#[derive(Debug, Clone, Serialize)]
pub struct RankSummary {
    /// Rank index.
    pub rank: usize,
    /// Time between the rank's first and last stamps, ns.
    pub elapsed: u64,
    /// Aggregate user computation time, ns.
    pub user_compute_time: u64,
    /// Aggregate communication call time, ns.
    pub comm_call_time: u64,
    /// Overall overlap measures.
    pub total: OverlapStats,
    /// Labels of the size bins, in order.
    pub bin_labels: Vec<String>,
    /// Per-size-bin overlap measures.
    pub by_bin: Vec<OverlapStats>,
    /// Per-call-name statistics.
    pub calls: BTreeMap<String, CallStats>,
    /// Raw event lines folded for this rank.
    pub events_seen: u64,
    /// Times the streaming ring filled and was folded.
    pub ring_folds: u64,
    /// Stream irregularities absorbed during the fold.
    pub anomalies: Anomalies,
    /// Metrics registry — byte-identical contents to the batch report's.
    pub metrics: MetricsRegistry,
}

/// One scope's live report: per-rank summaries in rank order.
#[derive(Debug, Clone, Serialize)]
pub struct ScopeReport {
    /// Scope label.
    pub scope: String,
    /// Per-rank summaries.
    pub ranks: Vec<RankSummary>,
}

/// One scope's live windowed series (the trace-window JSON shape).
#[derive(Debug, Clone, Serialize)]
pub struct ScopeSeries {
    /// Scope label.
    pub scope: String,
    /// Window width, ns.
    pub window_ns: u64,
    /// The windows, in time order.
    pub windows: Vec<WindowRow>,
}

/// A streaming session: one pushed event stream (one or more scopes), folded
/// incrementally. See the module docs for the memory model and the
/// batch/stream equivalence guarantee.
pub struct SessionFold {
    opts: FoldOpts,
    header_seen: bool,
    scope_order: Vec<String>,
    scopes: BTreeMap<String, ScopeFold>,
    event_lines: u64,
    lines: u64,
}

impl Default for SessionFold {
    fn default() -> Self {
        SessionFold::new(FoldOpts::default())
    }
}

impl SessionFold {
    /// Create an empty session fold.
    pub fn new(opts: FoldOpts) -> Self {
        SessionFold {
            opts,
            header_seen: false,
            scope_order: Vec::new(),
            scopes: BTreeMap::new(),
            event_lines: 0,
            lines: 0,
        }
    }

    /// True once a valid schema header has been accepted.
    pub fn header_seen(&self) -> bool {
        self.header_seen
    }

    /// Raw event lines folded so far (across all scopes and ranks).
    pub fn event_lines(&self) -> u64 {
        self.event_lines
    }

    /// Total non-empty lines accepted so far (header lines included).
    ///
    /// This is the session's generation. Every accepted line bumps it, and
    /// a refused line changes no state. Reads fold the ring early but never
    /// change what they return, so every read view ([`SessionFold::report`],
    /// [`SessionFold::series`], [`SessionFold::wait_states`],
    /// [`SessionFold::attribution`], [`SessionFold::collapsed`]) is a
    /// function of the accepted lines, and a caller may keep a built view
    /// for as long as `lines()` is unchanged.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Scope labels in first-seen (stream) order — the order the batch
    /// exporter wrote them, which read endpoints preserve.
    pub fn scope_names(&self) -> Vec<String> {
        self.scope_order.clone()
    }

    /// Fold one line. Empty/whitespace lines are ignored. The first
    /// meaningful line must be a valid schema header; every error is
    /// one-line and leaves previously folded state intact.
    pub fn push_line(&mut self, line: &str) -> Result<(), StreamError> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        let parsed = parse_line(line)?;
        if let StreamLine::Header { schema_version } = parsed {
            if schema_version != u64::from(SCHEMA_VERSION) {
                return Err(StreamError::SchemaMismatch {
                    found: schema_version,
                });
            }
            // Repeated headers are fine: every pushed file/scope chunk
            // re-states the schema.
            self.header_seen = true;
            self.lines += 1;
            return Ok(());
        }
        if !self.header_seen {
            return Err(StreamError::MissingHeader);
        }
        self.lines += 1;
        let opts = &self.opts;
        match parsed {
            StreamLine::Header { .. } => unreachable!("handled above"),
            StreamLine::Event { scope, rank, event } => {
                self.event_lines += 1;
                let sf = scope_entry(&mut self.scope_order, &mut self.scopes, &scope);
                sf.see(event.t);
                sf.rank_mut(rank, opts).push_event(event);
            }
            StreamLine::Bound {
                scope,
                rank,
                record,
            } => {
                let sf = scope_entry(&mut self.scope_order, &mut self.scopes, &scope);
                sf.see(record.end_t);
                if let Some(t0) = record.begin_t {
                    sf.see(t0);
                }
                sf.rank_mut(rank, opts).fold_bound(record, &opts.bins);
            }
            StreamLine::Wait { scope, rank, wait } => {
                let sf = scope_entry(&mut self.scope_order, &mut self.scopes, &scope);
                sf.rank_mut(rank, opts).waits.push(wait);
            }
            StreamLine::Fault { scope, t } => {
                let sf = scope_entry(&mut self.scope_order, &mut self.scopes, &scope);
                sf.see(t);
                sf.extras_t.push(t);
            }
        }
        Ok(())
    }

    /// Fold a block of complete lines (convenience for clients and tests).
    pub fn push_text(&mut self, text: &str) -> Result<(), StreamError> {
        for line in text.lines() {
            self.push_line(line)?;
        }
        Ok(())
    }

    /// Per-scope, per-rank live summaries, scopes in stream order.
    pub fn report(&mut self) -> Vec<ScopeReport> {
        let order = self.scope_order.clone();
        let bins = self.opts.bins.clone();
        order
            .iter()
            .map(|scope| {
                let sf = self.scopes.get_mut(scope).expect("ordered scope exists");
                let ranks = sf
                    .ranks
                    .iter_mut()
                    .map(|(&rank, rf)| rf.summary(rank, &bins))
                    .collect();
                ScopeReport {
                    scope: scope.clone(),
                    ranks,
                }
            })
            .collect()
    }

    /// Per-scope live windowed series, scopes in stream order. `width` of
    /// `None` picks each scope's default (1/16th of its span, min 1 ns) —
    /// the same default the batch trace export uses.
    pub fn series(&mut self, width: Option<u64>) -> Vec<ScopeSeries> {
        let order = self.scope_order.clone();
        order
            .iter()
            .map(|scope| {
                let sf = self.scopes.get_mut(scope).expect("ordered scope exists");
                sf.series(scope, width)
            })
            .collect()
    }

    /// Per-scope wait-state breakdowns (the `--json` report shape).
    pub fn wait_states(&mut self) -> Vec<ScopeWaitStates> {
        let order = self.scope_order.clone();
        order
            .iter()
            .map(|scope| {
                let sf = self.scopes.get_mut(scope).expect("ordered scope exists");
                let ranks = sf
                    .ranks
                    .iter_mut()
                    .map(|(&rank, rf)| artifact::rank_wait_states(&rf.attribution(rank)))
                    .collect();
                ScopeWaitStates {
                    scope: scope.clone(),
                    ranks,
                }
            })
            .collect()
    }

    /// The `<id>.attribution.json` artifact for everything folded so far —
    /// byte-identical to the batch `--critical-path` output for the same
    /// stream (same shared constructor, same inputs).
    pub fn attribution(&mut self, id: &str) -> AttributionArtifact {
        let order = self.scope_order.clone();
        let scoped: Vec<(String, Vec<RankArtifactInput>)> = order
            .iter()
            .map(|scope| {
                let sf = self.scopes.get_mut(scope).expect("ordered scope exists");
                let inputs = sf
                    .ranks
                    .iter_mut()
                    .map(|(&rank, rf)| RankArtifactInput {
                        events: rf.events_seen,
                        attribution: rf.attribution(rank),
                    })
                    .collect();
                (scope.clone(), inputs)
            })
            .collect();
        artifact::attribution_artifact(id, &scoped)
    }

    /// The `<id>.critpath.folded` flamegraph text for everything folded so
    /// far — byte-identical to the batch output for the same stream.
    pub fn collapsed(&mut self) -> String {
        let order = self.scope_order.clone();
        let mut out = String::new();
        for scope in &order {
            let sf = self.scopes.get_mut(scope).expect("ordered scope exists");
            let mut weights: BTreeMap<String, u64> = BTreeMap::new();
            for (&rank, rf) in sf.ranks.iter_mut() {
                rf.flush_ring();
                attribution::collapsed_weights(
                    scope,
                    rank,
                    &rf.attr_spans(),
                    &rf.waits,
                    &mut weights,
                );
            }
            out.push_str(&attribution::render_collapsed(&weights));
        }
        out
    }
}

fn scope_entry<'a>(
    order: &mut Vec<String>,
    scopes: &'a mut BTreeMap<String, ScopeFold>,
    scope: &str,
) -> &'a mut ScopeFold {
    if !scopes.contains_key(scope) {
        order.push(scope.to_string());
        scopes.insert(scope.to_string(), ScopeFold::default());
    }
    scopes.get_mut(scope).expect("just inserted")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::attribute;
    use crate::bounds::XferCase;
    use crate::trace::{jsonl, windowed, ExtraEvent, RankTrace, TraceBundle};

    fn ev(t: u64, kind: EventKind) -> Event {
        Event::new(t, kind)
    }

    fn sample_bundle() -> TraceBundle {
        TraceBundle {
            scope: "test/one".to_string(),
            ranks: vec![RankTrace {
                rank: 0,
                events: vec![
                    ev(0, EventKind::CallEnter { name: "MPI_Isend" }),
                    ev(5, EventKind::XferBegin { id: 1, bytes: 1024 }),
                    ev(10, EventKind::CallExit),
                    ev(1_000, EventKind::CallEnter { name: "MPI_Wait" }),
                    ev(1_200, EventKind::XferFlag { id: 1 }),
                    ev(1_500, EventKind::XferEnd { id: 1, bytes: 1024 }),
                    ev(1_510, EventKind::CallExit),
                ],
                bounds: vec![BoundRecord {
                    id: Some(1),
                    bytes: 1024,
                    begin_t: Some(5),
                    end_t: 1_500,
                    xfer_time: 400,
                    min: 0,
                    max: 400,
                    case: XferCase::SplitCalls,
                    flagged: true,
                    clamped: false,
                }],
                waits: vec![WaitInterval {
                    start: 1_000,
                    end: 1_500,
                    cause: WaitCause::LateSender,
                    xfer: Some(1),
                }],
            }],
            extras: vec![ExtraEvent {
                t: 1_100,
                name: "fault.dropped".to_string(),
                detail: "src 0 -> dst 1".to_string(),
            }],
        }
    }

    fn fold(text: &str) -> SessionFold {
        let mut s = SessionFold::default();
        s.push_text(text).expect("stream folds");
        s
    }

    #[test]
    fn rejects_missing_header_with_one_line_error() {
        let mut s = SessionFold::default();
        let err = s
            .push_line(r#"{"scope":"x","rank":0,"t":0,"ev":"call_exit"}"#)
            .unwrap_err();
        assert_eq!(err, StreamError::MissingHeader);
        assert!(!format!("{err}").contains('\n'));
    }

    #[test]
    fn rejects_schema_mismatch_with_one_line_error() {
        let mut s = SessionFold::default();
        let err = s
            .push_line(r#"{"ev":"header","schema_version":999}"#)
            .unwrap_err();
        assert_eq!(err, StreamError::SchemaMismatch { found: 999 });
        let msg = format!("{err}");
        assert!(msg.contains("999") && !msg.contains('\n'));
        assert!(!s.header_seen());
    }

    #[test]
    fn rejects_garbage_and_unknown_kinds() {
        assert!(matches!(
            parse_line("not json at all"),
            Err(StreamError::BadLine { .. })
        ));
        assert!(matches!(
            parse_line(r#"{"scope":"x","rank":0,"t":0,"ev":"mystery"}"#),
            Err(StreamError::BadLine { .. })
        ));
    }

    #[test]
    fn exporter_lines_take_the_fast_path() {
        let text = jsonl(&[sample_bundle()]);
        for line in text.lines() {
            let fast = match scan::line(line) {
                Some(scan::Scanned::Line(parsed)) => parsed,
                Some(scan::Scanned::Named(named)) => named.intern(line).unwrap(),
                None => panic!("scanner declined an exporter line: {line}"),
            };
            assert_eq!(fast, parse_line_general(line).unwrap());
        }
        // One byte off the exporter's shape, and the general reader decides.
        for line in [
            r#"{"scope":"x","rank":0,"t":0,"ev":"call_exit"} "#,
            r#"{"rank":0,"scope":"x","t":0,"ev":"call_exit"}"#,
            r#"{"scope":"x","rank":0,"t":00,"ev":"call_exit"}"#,
            r#"{"scope":"x\"","rank":0,"t":0,"ev":"call_exit"}"#,
        ] {
            assert!(scan::line(line).is_none(), "{line}");
            assert!(parse_line(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn stream_summary_matches_bound_aggregates() {
        let text = jsonl(&[sample_bundle()]);
        let mut s = fold(&text);
        assert!(s.header_seen());
        assert_eq!(s.event_lines(), 7);
        let reports = s.report();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].scope, "test/one");
        let r = &reports[0].ranks[0];
        assert_eq!(r.rank, 0);
        assert_eq!(r.total.transfers, 1);
        assert_eq!(r.total.max_overlap, 400);
        assert_eq!(r.total.flagged, 1);
        assert_eq!(r.elapsed, 1_510);
        assert_eq!(r.comm_call_time, 10 + 510);
        assert_eq!(r.user_compute_time, 990);
        assert_eq!(r.calls["MPI_Wait"].count, 1);
        assert_eq!(r.metrics.counter("xfers_closed"), 1);
        assert_eq!(r.metrics.counter("xfers_flagged"), 1);
        assert!(r.metrics.histogram("xfer_wall_ns").is_some());
    }

    #[test]
    fn stream_series_matches_batch_windowed() {
        let b = sample_bundle();
        let text = jsonl(std::slice::from_ref(&b));
        let mut s = fold(&text);
        for width in [1, 100, 500, 5_000] {
            let series = s.series(Some(width));
            assert_eq!(series.len(), 1);
            assert_eq!(series[0].windows, windowed(&b, width));
        }
        // The default width matches the batch default too.
        let series = s.series(None);
        assert_eq!(
            series[0].windows,
            windowed(&b, crate::trace::default_window_width(&b))
        );
    }

    #[test]
    fn stream_attribution_matches_batch_artifact() {
        let b = sample_bundle();
        let text = jsonl(std::slice::from_ref(&b));
        let mut s = fold(&text);
        let batch_inputs: Vec<(String, Vec<RankArtifactInput>)> = vec![(
            b.scope.clone(),
            b.ranks
                .iter()
                .map(|tr| RankArtifactInput {
                    events: tr.events.len() as u64,
                    attribution: attribute(tr),
                })
                .collect(),
        )];
        let batch = artifact::attribution_artifact("test", &batch_inputs);
        let stream = s.attribution("test");
        assert_eq!(
            serde_json::to_string_pretty(&stream).unwrap(),
            serde_json::to_string_pretty(&batch).unwrap(),
            "attribution artifacts must be byte-identical"
        );
        // And the collapsed flamegraph text.
        let batch_folded = attribution::collapsed_stack(&b);
        assert_eq!(s.collapsed(), batch_folded);
    }

    #[test]
    fn empty_session_serves_empty_views() {
        let mut s = SessionFold::default();
        s.push_line(r#"{"ev":"header","schema_version":1}"#)
            .unwrap();
        assert!(s.report().is_empty());
        assert!(s.series(None).is_empty());
        assert!(s.collapsed().is_empty());
        let art = s.attribution("empty");
        assert!(art.scopes.is_empty());
        assert_eq!(art.overhead.ranks, 0);
    }

    #[test]
    fn tiny_ring_folds_at_capacity_without_changing_results() {
        let b = sample_bundle();
        let text = jsonl(std::slice::from_ref(&b));
        let mut big = SessionFold::default();
        big.push_text(&text).unwrap();
        let mut tiny = SessionFold::new(FoldOpts {
            ring_capacity: 2,
            bins: SizeBins::default(),
        });
        tiny.push_text(&text).unwrap();
        let (big_r, tiny_r) = (big.report(), tiny.report());
        assert!(tiny_r[0].ranks[0].ring_folds > 0);
        assert_eq!(
            serde_json::to_string(&big_r[0].ranks[0].metrics).unwrap(),
            serde_json::to_string(&tiny_r[0].ranks[0].metrics).unwrap()
        );
        assert_eq!(big_r[0].ranks[0].total, tiny_r[0].ranks[0].total);
        assert_eq!(
            big_r[0].ranks[0].user_compute_time,
            tiny_r[0].ranks[0].user_compute_time
        );
    }

    #[test]
    fn mid_stream_snapshot_does_not_perturb_final_state() {
        let b = sample_bundle();
        let text = jsonl(std::slice::from_ref(&b));
        let lines: Vec<&str> = text.lines().collect();
        let mut s = SessionFold::default();
        // Push half, snapshot, push the rest: final report must equal the
        // uninterrupted fold.
        for l in &lines[..5] {
            s.push_line(l).unwrap();
        }
        let _ = s.report();
        let _ = s.series(None);
        for l in &lines[5..] {
            s.push_line(l).unwrap();
        }
        let mut clean = fold(&text);
        assert_eq!(
            serde_json::to_string(&s.report()).unwrap(),
            serde_json::to_string(&clean.report()).unwrap()
        );
    }

    #[test]
    fn mid_stream_reads_leave_ring_folds_alone() {
        let b = sample_bundle();
        let text = jsonl(std::slice::from_ref(&b));
        let tiny = || {
            SessionFold::new(FoldOpts {
                ring_capacity: 2,
                bins: SizeBins::default(),
            })
        };
        let mut clean = tiny();
        clean.push_text(&text).unwrap();
        // A read after every line drains the ring each time; the served
        // report must still equal the unread fold's, fold count included.
        let mut read = tiny();
        for l in text.lines() {
            read.push_line(l).unwrap();
            let _ = read.report();
        }
        let (read_r, clean_r) = (read.report(), clean.report());
        assert!(clean_r[0].ranks[0].ring_folds > 0);
        assert_eq!(
            serde_json::to_string(&read_r).unwrap(),
            serde_json::to_string(&clean_r).unwrap()
        );
    }
}
