//! The serve leg: an `overlapd::Server` on 127.0.0.1:0, a closed push loop
//! on one client connection at a time and a closed GET loop on another,
//! plus the in-process fold that splits push time into fold and transport.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use overlap_core::artifact::AttributionArtifact;
use overlap_core::stream::{parse_line, SessionFold};
use overlap_core::trace::TraceBundle;
use overlapd::{PushError, Server, Service};

use crate::span;
use crate::stats::median;
use crate::{Plant, Tally};

/// A JSONL stream to push, with the batch artifacts the served ones must
/// match byte for byte.
pub struct ServeInput {
    /// The `trace::jsonl` export.
    pub text: String,
    /// Lines in `text` (header included).
    pub lines: u64,
    /// Raw event lines in `text` (what the server acknowledges).
    pub event_lines: u64,
    /// Batch attribution artifact; its `id` is replaced by the session name
    /// before comparing.
    pub batch_attribution: AttributionArtifact,
    /// Batch collapsed critical-path text.
    pub batch_folded: String,
}

impl ServeInput {
    /// Export `bundles` and build the batch artifacts for them, exactly as
    /// `repro --trace --critical-path` does.
    pub fn new(bundles: &[TraceBundle]) -> Self {
        let text = {
            let _s = span::enter("overlap-core.export");
            overlap_core::trace::jsonl(bundles)
        };
        let _s = span::enter("overlap-core.artifact");
        let inputs: Vec<_> = bundles
            .iter()
            .map(|b| {
                let ranks = b
                    .ranks
                    .iter()
                    .map(|tr| overlap_core::artifact::RankArtifactInput {
                        events: tr.events.len() as u64,
                        attribution: overlap_core::attribution::attribute(tr),
                    })
                    .collect();
                (b.scope.clone(), ranks)
            })
            .collect();
        let batch_attribution = overlap_core::artifact::attribution_artifact("", &inputs);
        let batch_folded = bundles
            .iter()
            .map(overlap_core::attribution::collapsed_stack)
            .collect();
        ServeInput {
            lines: text.lines().count() as u64,
            event_lines: bundles
                .iter()
                .flat_map(|b| b.ranks.iter())
                .map(|r| r.events.len() as u64)
                .sum(),
            text,
            batch_attribution,
            batch_folded,
        }
    }
}

/// The GET endpoints of the query loop, in the order it issues them.
pub const ENDPOINTS: [&str; 5] = ["report", "series", "waits", "fleet", "attribution"];

/// Span name of each endpoint's GET.
const GET_SPANS: [&str; 5] = [
    "overlapd.get.report",
    "overlapd.get.series",
    "overlapd.get.waits",
    "overlapd.get.fleet",
    "overlapd.get.attribution",
];

/// One finished GET of the query loop.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Index into [`ENDPOINTS`].
    pub endpoint: usize,
    /// Latency, ms (connect to last response byte).
    pub ms: f64,
    /// Whether a push was in flight when the GET was issued.
    pub during_push: bool,
}

/// What one serve leg measured.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Seconds per successful push (connect to acknowledgement of every
    /// event line).
    pub push_s: Vec<f64>,
    /// Query-loop GETs.
    pub queries: Vec<Query>,
    /// Fleet GETs with no push in flight, ms.
    pub idle_fleet_ms: Vec<f64>,
    /// Pushes refused and GETs answered with a 4xx status.
    pub refusals: u64,
    /// Response body bytes of every GET.
    pub response_bytes: u64,
    /// When the last push and GET finished: the end of the leg's timed
    /// part, before the artifact gate and the server's shutdown.
    pub done: Option<Instant>,
}

struct Shared {
    finished: Vec<String>,
    pushing: bool,
}

/// Run one serve leg against a fresh server: `pushes` pushes of the input,
/// each into a fresh session, and a closed GET loop over the endpoints on
/// the newest finished session until the pushes are done and it has made
/// at least `min_queries` GETs; then a few idle fleet GETs, and the gate on
/// the served artifacts of the last session. With `concurrent` the GET loop
/// runs on a second client thread beside the pushes; without, it follows
/// them on the calling thread.
pub fn serve_leg(
    input: &ServeInput,
    tag: &str,
    pushes: usize,
    min_queries: usize,
    concurrent: bool,
    plant: Plant,
    tally: &mut Tally,
) -> ServeStats {
    let mut stats = ServeStats::default();
    let server = match Server::bind("127.0.0.1:0", Arc::new(Service::default())) {
        Ok(s) => s,
        Err(e) => {
            tally.fail(format!("server bind failed: {e}"));
            return stats;
        }
    };
    let (addr, handle) = match (server.local_addr(), server.handle()) {
        (Ok(a), Ok(h)) => (a, h),
        _ => {
            tally.fail("server has no local address".to_string());
            return stats;
        }
    };
    let shared = (
        Mutex::new(Shared {
            finished: Vec::new(),
            pushing: true,
        }),
        Condvar::new(),
    );
    let parent = span::enter("overlapd.serve_leg");
    let parent_id = parent.id();
    std::thread::scope(|scope| {
        let srv = scope.spawn(move || server.run());
        let querier =
            concurrent.then(|| scope.spawn(|| query_loop(addr, &shared, min_queries, parent_id)));
        push_loop(addr, tag, input, pushes, &shared, &mut stats, tally);
        let q = match querier {
            Some(q) => q.join().expect("query thread panicked"),
            None => query_loop(addr, &shared, min_queries, parent_id),
        };
        stats.queries = q.queries;
        stats.idle_fleet_ms = q.idle_fleet_ms;
        stats.refusals += q.refusals;
        stats.response_bytes += q.response_bytes;
        stats.done = Some(Instant::now());
        tally.attempted += q.attempted;
        for note in q.failures {
            tally.failed_with(note);
        }
        let last = shared
            .0
            .lock()
            .expect("serve state lock")
            .finished
            .last()
            .cloned();
        if let Some(session) = last {
            check_served_artifacts(addr, &session, input, plant, tally);
        }
        handle.shutdown();
        if let Err(e) = srv.join().expect("server thread panicked") {
            tally.fail(format!("server stopped with an error: {e}"));
        }
    });
    drop(parent);
    stats
}

/// The push loop: `pushes` pushes of the input, each into a fresh session;
/// a push counts only if the server acknowledged every event line.
fn push_loop(
    addr: SocketAddr,
    tag: &str,
    input: &ServeInput,
    pushes: usize,
    shared: &(Mutex<Shared>, Condvar),
    stats: &mut ServeStats,
    tally: &mut Tally,
) {
    let (lock, cv) = shared;
    let addr = addr.to_string();
    for i in 0..pushes {
        let session = format!("{tag}-{i}");
        let t0 = Instant::now();
        let r = {
            let _s = span::enter("overlapd.push");
            overlapd::push_text(&addr, &session, &input.text)
        };
        let dt = t0.elapsed().as_secs_f64();
        tally.attempted += 1;
        match r {
            Ok(acked) if acked == input.event_lines => {
                stats.push_s.push(dt);
                lock.lock()
                    .expect("serve state lock")
                    .finished
                    .push(session);
                cv.notify_all();
            }
            Ok(acked) => tally.failed_with(format!(
                "push acknowledged {acked} events, pushed {}",
                input.event_lines
            )),
            Err(PushError::Refused(m)) => {
                stats.refusals += 1;
                tally.failed_with(format!("push refused: {m}"));
            }
            Err(e) => tally.failed_with(format!("push failed: {e}")),
        }
    }
    lock.lock().expect("serve state lock").pushing = false;
    cv.notify_all();
}

#[derive(Default)]
struct QueryOut {
    queries: Vec<Query>,
    idle_fleet_ms: Vec<f64>,
    refusals: u64,
    response_bytes: u64,
    attempted: u64,
    failures: Vec<String>,
}

fn query_loop(
    addr: SocketAddr,
    shared: &(Mutex<Shared>, Condvar),
    min_queries: usize,
    parent: Option<u64>,
) -> QueryOut {
    let _root = span::enter_under("bench.query_loop", parent);
    let mut out = QueryOut::default();
    let (lock, cv) = shared;
    {
        let mut g = lock.lock().expect("serve state lock");
        while g.finished.is_empty() && g.pushing {
            g = cv.wait(g).expect("serve state lock");
        }
        if g.finished.is_empty() {
            return out;
        }
    }
    loop {
        for (i, ep) in ENDPOINTS.iter().enumerate() {
            let (session, during_push) = {
                let g = lock.lock().expect("serve state lock");
                (
                    g.finished.last().cloned().expect("a finished session"),
                    g.pushing,
                )
            };
            let path = match *ep {
                "fleet" => "/v1/fleet".to_string(),
                "attribution" => format!("/v1/sessions/{session}/attribution.json"),
                other => format!("/v1/sessions/{session}/{other}"),
            };
            let t0 = Instant::now();
            let resp = {
                let _s = span::enter(GET_SPANS[i]);
                http_get(addr, &path)
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            match resp {
                Ok((200, body)) => {
                    out.response_bytes += body.len() as u64;
                    out.queries.push(Query {
                        endpoint: i,
                        ms,
                        during_push,
                    });
                    if *ep == "report" && has_clock_skew(&body) {
                        out.failures.push(format!(
                            "served report of {session} shows clock_skew anomalies"
                        ));
                    }
                }
                Ok((status, body)) => {
                    out.refusals += u64::from((400..500).contains(&status));
                    out.failures.push(format!(
                        "GET {path} answered {status}: {}",
                        String::from_utf8_lossy(&body).trim()
                    ));
                }
                Err(e) => out.failures.push(format!("GET {path} failed: {e}")),
            }
        }
        let pushing = lock.lock().expect("serve state lock").pushing;
        if !pushing && out.queries.len() + out.failures.len() >= min_queries {
            break;
        }
    }
    for _ in 0..5 {
        let t0 = Instant::now();
        let resp = http_get(addr, "/v1/fleet");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match resp {
            Ok((200, body)) => {
                out.response_bytes += body.len() as u64;
                out.idle_fleet_ms.push(ms);
            }
            _ => out.failures.push("idle fleet GET failed".to_string()),
        }
        out.attempted += 1;
    }
    out
}

/// True when any `"clock_skew":N` in a served report has N > 0.
pub fn has_clock_skew(body: &[u8]) -> bool {
    let text = String::from_utf8_lossy(body);
    text.split("\"clock_skew\":").skip(1).any(|rest| {
        let digits: String = rest
            .trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse::<u64>().map_or(true, |n| n > 0)
    })
}

/// Gate: the served `attribution.json` and `critpath.folded` of `session`
/// are byte-identical to the batch artifacts for the same traces.
/// `plant.corrupt_served_byte` flips one byte of the served artifact first.
fn check_served_artifacts(
    addr: SocketAddr,
    session: &str,
    input: &ServeInput,
    plant: Plant,
    tally: &mut Tally,
) {
    let mut want = input.batch_attribution.clone();
    want.id = session.to_string();
    let want_attr = serde_json::to_string_pretty(&want).expect("artifact serializes");
    for (path, want) in [
        (
            format!("/v1/sessions/{session}/attribution.json"),
            want_attr.as_bytes(),
        ),
        (
            format!("/v1/sessions/{session}/critpath.folded"),
            input.batch_folded.as_bytes(),
        ),
    ] {
        match http_get(addr, &path) {
            Ok((200, mut body)) => {
                if plant.corrupt_served_byte {
                    let mid = body.len() / 2;
                    if let Some(b) = body.get_mut(mid) {
                        *b ^= 0x20;
                    }
                }
                tally.check(body == want, || {
                    format!("served {path} differs from the batch artifact")
                });
            }
            Ok((status, _)) => tally.fail(format!("GET {path} answered {status}")),
            Err(e) => tally.fail(format!("GET {path} failed: {e}")),
        }
    }
}

/// One HTTP/1.1 GET on a fresh connection (the server answers one request
/// per connection). Returns the status and the body.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect(addr)?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    s.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// In-process costs of the overlap-core stream layer on `input`: parse
/// every line, fold into a fresh session, build the report.
#[derive(Debug, Default, Clone, Copy)]
pub struct FoldCost {
    /// Seconds to `parse_line` every line.
    pub parse_s: f64,
    /// Seconds to fold the stream into a fresh `SessionFold`.
    pub fold_s: f64,
    /// Allocation calls per line during the fold.
    pub allocs_per_line: f64,
    /// Seconds for `SessionFold::report` on the folded session.
    pub report_s: f64,
}

/// Measure [`FoldCost`] `reps` times and take medians.
pub fn fold_cost(input: &ServeInput, reps: usize, tally: &mut Tally) -> FoldCost {
    let (mut parse, mut fold, mut allocs, mut report) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        let t0 = Instant::now();
        {
            let _s = span::enter("overlap-core.parse");
            for line in input.text.lines() {
                std::hint::black_box(parse_line(line).is_ok());
            }
        }
        parse.push(t0.elapsed().as_secs_f64());
        let mut session = SessionFold::default();
        let a0 = crate::alloc::allocs();
        let t0 = Instant::now();
        let r = {
            let _s = span::enter("overlap-core.fold");
            session.push_text(&input.text)
        };
        fold.push(t0.elapsed().as_secs_f64());
        allocs.push((crate::alloc::allocs() - a0) as f64 / input.lines as f64);
        tally.check(r.is_ok(), || {
            format!("in-process fold refused the stream: {r:?}")
        });
        let t0 = Instant::now();
        {
            let _s = span::enter("overlap-core.report");
            std::hint::black_box(session.report());
        }
        report.push(t0.elapsed().as_secs_f64());
    }
    FoldCost {
        parse_s: median(&parse),
        fold_s: median(&fold),
        allocs_per_line: median(&allocs),
        report_s: median(&report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_skew_scan() {
        assert!(!has_clock_skew(
            br#"{"a":{"clock_skew":0,"x":1},"b":{"clock_skew":0}}"#
        ));
        assert!(has_clock_skew(
            br#"{"a":{"clock_skew":0},"b":{"clock_skew":3}}"#
        ));
        assert!(has_clock_skew(br#"{"clock_skew":01}"#));
        assert!(!has_clock_skew(b"{}"));
    }
}
