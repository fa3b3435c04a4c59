//! Differential property test for the streaming JSONL reader: the fast
//! borrowed scanner behind `overlap_core::stream::parse_line` and the
//! general `serde_json` reader must agree on every line — the same `Ok`
//! value, or the same one-line error text.
//!
//! Lines come from the in-tree exporter (`trace::jsonl`) over random
//! bundles, then go through mutations the exporter never writes: reordered
//! keys, added whitespace, escaped characters, other number spellings,
//! `null` in place of a number, unknown kinds, trailing bytes and
//! truncation. Unmutated exporter lines must also take the fast path,
//! which shows as a scope borrowed from the line.

use std::borrow::Cow;

use proptest::prelude::*;
use proptest::TestCaseError;

use overlap_core::attribution::{WaitCause, WaitInterval};
use overlap_core::bounds::XferCase;
use overlap_core::stream::{parse_line, parse_line_general, StreamError, StreamLine};
use overlap_core::trace::{jsonl, BoundRecord, ExtraEvent, RankTrace, TraceBundle};
use overlap_core::{Event, EventKind};

/// Call/section names, including ones the exporter must escape. A fixed
/// list keeps the process-global intern pool small.
const NAMES: [&str; 8] = [
    "MPI_Isend",
    "MPI_Wait",
    "ARMCI_NbPut",
    "phase \"a\"",
    "back\\slash",
    "tab\there",
    "ünïcode",
    "",
];

const SCOPES: [&str; 6] = [
    "fig03/eager",
    "halo 64x64",
    "quo\"te",
    "back\\slash",
    "new\nline",
    "ünïcode/σ",
];

/// Keys whose exporter values are plain numbers (or `null`).
const NUMERIC_KEYS: [&str; 11] = [
    "schema_version",
    "rank",
    "t",
    "id",
    "bytes",
    "begin_t",
    "xfer_time",
    "min",
    "max",
    "end",
    "xfer",
];

/// Number spellings JSON allows, forbids, or `u64` cannot hold.
const NUMBER_FORMS: [&str; 11] = [
    "",
    "-0",
    "-1",
    "1.0",
    "1e3",
    "01",
    "00",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "null",
];

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..2_000, any::<u64>(), Just(u64::MAX)]
}

fn arb_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (0..NAMES.len()).prop_map(|i| EventKind::CallEnter { name: NAMES[i] }),
        Just(EventKind::CallExit),
        (arb_u64(), arb_u64()).prop_map(|(id, bytes)| EventKind::XferBegin { id, bytes }),
        (arb_u64(), arb_u64()).prop_map(|(id, bytes)| EventKind::XferEnd { id, bytes }),
        (0..NAMES.len()).prop_map(|i| EventKind::SectionBegin { name: NAMES[i] }),
        Just(EventKind::SectionEnd),
        arb_u64().prop_map(|id| EventKind::XferFlag { id }),
    ]
}

fn arb_bound() -> impl Strategy<Value = BoundRecord> {
    (
        (prop::option::of(arb_u64()), prop::option::of(arb_u64())),
        (arb_u64(), arb_u64(), arb_u64(), arb_u64(), arb_u64()),
        0usize..3,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |((id, begin_t), (bytes, end_t, xfer_time, min, max), case, flagged, clamped)| {
                BoundRecord {
                    id,
                    bytes,
                    begin_t,
                    end_t,
                    xfer_time,
                    min,
                    max,
                    case: [
                        XferCase::SameCall,
                        XferCase::SplitCalls,
                        XferCase::SingleStamp,
                    ][case],
                    flagged,
                    clamped,
                }
            },
        )
}

fn arb_wait() -> impl Strategy<Value = WaitInterval> {
    (
        arb_u64(),
        arb_u64(),
        0..WaitCause::ALL.len(),
        prop::option::of(arb_u64()),
    )
        .prop_map(|(start, end, cause, xfer)| WaitInterval {
            start,
            end,
            cause: WaitCause::ALL[cause],
            xfer,
        })
}

fn arb_rank() -> impl Strategy<Value = RankTrace> {
    (
        prop_oneof![0usize..64, Just(usize::MAX)],
        prop::collection::vec((arb_u64(), arb_kind()), 0..8),
        prop::collection::vec(arb_bound(), 0..3),
        prop::collection::vec(arb_wait(), 0..3),
    )
        .prop_map(|(rank, events, bounds, waits)| RankTrace {
            rank,
            events: events.into_iter().map(|(t, k)| Event::new(t, k)).collect(),
            bounds,
            waits,
        })
}

fn arb_bundle() -> impl Strategy<Value = TraceBundle> {
    (
        0..SCOPES.len(),
        prop::collection::vec(arb_rank(), 1..3),
        prop::collection::vec((arb_u64(), 0..SCOPES.len(), 0..NAMES.len()), 0..3),
    )
        .prop_map(|(scope, ranks, extras)| TraceBundle {
            scope: SCOPES[scope].to_string(),
            ranks,
            extras: extras
                .into_iter()
                .map(|(t, n, d)| ExtraEvent {
                    t,
                    name: SCOPES[n].to_string(),
                    detail: NAMES[d].to_string(),
                })
                .collect(),
        })
}

/// A change the exporter never makes to a line.
#[derive(Debug, Clone)]
enum Mutation {
    /// Move the first key to the end.
    ReorderKeys,
    /// Insert a space at a byte position (on a char boundary).
    Whitespace(usize),
    /// Spell the scope's first character as a `\u` escape.
    EscapeScope,
    /// Replace a numeric key's value with another spelling.
    Number { key: usize, form: usize },
    /// Remove a numeric key and its value.
    DropKey(usize),
    /// Replace the `ev` kind with an unknown one.
    UnknownKind,
    /// Append bytes after the closing brace.
    Trailing(&'static str),
    /// Cut the line at a byte position (on a char boundary).
    Truncate(usize),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::ReorderKeys),
        any::<usize>().prop_map(Mutation::Whitespace),
        Just(Mutation::EscapeScope),
        (0..NUMERIC_KEYS.len(), 0..NUMBER_FORMS.len())
            .prop_map(|(key, form)| Mutation::Number { key, form }),
        (0..NUMERIC_KEYS.len()).prop_map(Mutation::DropKey),
        Just(Mutation::UnknownKind),
        prop_oneof![Just(" "), Just("x"), Just("}"), Just("\t"), Just(",")]
            .prop_map(Mutation::Trailing),
        any::<usize>().prop_map(Mutation::Truncate),
    ]
}

/// The nearest char boundary at or below `at % (len + 1)`.
fn boundary(line: &str, at: usize) -> usize {
    let mut i = at % (line.len() + 1);
    while !line.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Replace the value after the first `"key":` up to the next `,` or `}`.
fn replace_value(line: &str, key: &str, new: &str) -> String {
    let pat = format!("\"{key}\":");
    let Some(at) = line.find(&pat) else {
        return line.to_string();
    };
    let start = at + pat.len();
    let end = line[start..]
        .find([',', '}'])
        .map_or(line.len(), |n| start + n);
    format!("{}{new}{}", &line[..start], &line[end..])
}

fn mutate(line: &str, m: &Mutation) -> String {
    match m {
        Mutation::ReorderKeys => match serde_json::from_str::<serde_json::Value>(line) {
            Ok(serde_json::Value::Object(mut members)) if members.len() > 1 => {
                members.rotate_left(1);
                serde_json::to_string(&serde_json::Value::Object(members)).expect("prints")
            }
            _ => line.to_string(),
        },
        Mutation::Whitespace(at) => {
            let i = boundary(line, *at);
            format!("{} {}", &line[..i], &line[i..])
        }
        Mutation::EscapeScope => {
            let pat = "{\"scope\":\"";
            match line
                .strip_prefix(pat)
                .and_then(|r| r.chars().next().map(|c| (r, c)))
            {
                Some((rest, c)) if c != '"' && c != '\\' && (c as u32) < 0x1_0000 => {
                    format!("{pat}\\u{:04x}{}", c as u32, &rest[c.len_utf8()..])
                }
                _ => line.to_string(),
            }
        }
        Mutation::Number { key, form } => {
            replace_value(line, NUMERIC_KEYS[*key], NUMBER_FORMS[*form])
        }
        Mutation::DropKey(key) => {
            let pat = format!(",\"{}\":", NUMERIC_KEYS[*key]);
            match line.find(&pat) {
                Some(at) => {
                    let rest = &line[at + pat.len()..];
                    let end = rest.find([',', '}']).unwrap_or(rest.len());
                    format!("{}{}", &line[..at], &rest[end..])
                }
                None => line.to_string(),
            }
        }
        Mutation::UnknownKind => replace_value(line, "ev", "\"mystery\""),
        Mutation::Trailing(tail) => format!("{line}{tail}"),
        Mutation::Truncate(at) => line[..boundary(line, *at)].to_string(),
    }
}

/// The two readers agree: equal values, or equal error text.
fn assert_agree(line: &str) -> Result<(), TestCaseError> {
    let fast = parse_line(line);
    let general = parse_line_general(line);
    match (&fast, &general) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "values differ for {}", line),
        (Err(a), Err(b)) => {
            prop_assert_eq!(a.to_string(), b.to_string(), "errors differ for {}", line)
        }
        _ => prop_assert!(false, "paths disagree on {line}: {fast:?} vs {general:?}"),
    }
    Ok(())
}

fn scope_of<'a>(parsed: &'a StreamLine<'_>) -> Option<&'a Cow<'a, str>> {
    match parsed {
        StreamLine::Header { .. } => None,
        StreamLine::Event { scope, .. }
        | StreamLine::Bound { scope, .. }
        | StreamLine::Wait { scope, .. }
        | StreamLine::Fault { scope, .. } => Some(scope),
    }
}

/// True when the exporter writes `s` with no escape.
fn plain(s: &str) -> bool {
    !s.chars()
        .any(|c| c == '"' || c == '\\' || (c as u32) < 0x20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn scanner_agrees_with_general_reader(
        bundle in arb_bundle(),
        mutations in prop::collection::vec(arb_mutation(), 1..4),
    ) {
        let text = jsonl(std::slice::from_ref(&bundle));
        let extras_plain = bundle.extras.iter().all(|x| plain(&x.name) && plain(&x.detail));
        for line in text.lines() {
            assert_agree(line)?;
            // Exporter lines take the fast path whenever nothing in them is
            // escaped: the scope then borrows from the line.
            let parsed = parse_line(line).expect("exporter lines parse");
            let fast_expected = plain(&bundle.scope)
                && match &parsed {
                    StreamLine::Event { event, .. } => match event.kind {
                        EventKind::CallEnter { name } | EventKind::SectionBegin { name } => {
                            plain(name)
                        }
                        _ => true,
                    },
                    StreamLine::Fault { .. } => extras_plain,
                    _ => true,
                };
            if let (Some(scope), true) = (scope_of(&parsed), fast_expected) {
                prop_assert!(
                    matches!(scope, Cow::Borrowed(_)),
                    "exporter line missed the fast path: {}", line
                );
            }
            let mut mutated = line.to_string();
            for m in &mutations {
                mutated = mutate(&mutated, m);
                assert_agree(&mutated)?;
            }
        }
    }
}

#[test]
fn refusals_keep_their_text() {
    for line in [
        "not json at all",
        r#"{"scope":"x","rank":0,"t":0,"ev":"mystery"}"#,
        r#"{"scope":"x","rank":0,"t":-1,"ev":"call_exit"}"#,
        r#"{"scope":"x","t":,"rank":0,"t":0,"ev":"call_exit"}"#,
        r#"{"scope":"x","rank":0,"t":0,"ev":"call_enter","name":}"#,
        r#"{"scope":"x","rank":0,"t":18446744073709551616,"ev":"call_exit"}"#,
        r#"{"scope":"x","rank":0,"t":0,"ev":"call_exit"}x"#,
        r#"{"scope":"x","rank":0,"t":0,"ev":"xfer_bounds","id":null,"bytes":1,"begin_t":null,"xfer_time":1,"min":0,"max":1,"case":"bogus","flagged":false,"clamped":false}"#,
        r#"{"scope":"x","rank":0,"t":0,"ev":"wait","end":1,"cause":"bogus","xfer":null}"#,
    ] {
        let err = parse_line(line).expect_err("refused");
        assert!(matches!(err, StreamError::BadLine { .. }), "{err:?}");
        assert_eq!(
            err.to_string(),
            parse_line_general(line).expect_err("refused").to_string()
        );
        assert!(!err.to_string().contains('\n'));
    }
}
