//! Multi-client service semantics over real loopback sockets, driven by a
//! real captured figure stream:
//!
//! * two sessions pushed **concurrently** from interleaved client threads
//!   (each session arrives as many small framed pushes racing the other
//!   session's) produce per-session reports byte-identical to pushing the
//!   same streams serially — and to a local in-process fold;
//! * the fleet view equals the merged view of the same streams folded
//!   locally through [`overlapd::Service`], also after a further push into
//!   an existing session;
//! * the `repro push` CLI exits 0 on success and 2 when the server refuses
//!   the stream (missing/mismatched `schema_version`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use overlap_core::stream::SessionFold;
use overlap_core::trace::jsonl;
use overlap_core::{MetricsRegistry, OverlapStats};
use overlapd::{push_text, FleetView, Server, Service};

/// Serialize tests: `tracecap` is process-global.
fn global_lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn start_server() -> (
    String,
    overlapd::server::ServerHandle,
    std::thread::JoinHandle<()>,
) {
    let service = Arc::new(Service::default());
    let server = Server::bind("127.0.0.1:0", service).expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

/// Tiny HTTP client: one request, returns (status, body bytes).
fn http(addr: &str, method: &str, path: &str) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let head = format!("{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    s.write_all(head.as_bytes()).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let sep = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body separator");
    (status, raw[sep + 4..].to_vec())
}

/// The fig03 event stream, exactly as `repro fig03 --trace` exports it.
fn fig03_stream() -> String {
    bench::tracecap::enable();
    let _ = bench::tracecap::drain();
    let h = bench::figures::all()
        .into_iter()
        .find(|h| h.id == "fig03")
        .expect("fig03 registered");
    let _series = (h.run)();
    let bundles: Vec<_> = bench::tracecap::drain().into_values().collect();
    assert!(!bundles.is_empty(), "fig03 should register traced scopes");
    jsonl(&bundles)
}

/// Split a JSONL text into chunks of complete lines so a session arrives
/// as many separate framed pushes (the header rides only in the first).
fn line_chunks(text: &str, lines_per_chunk: usize) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    lines
        .chunks(lines_per_chunk)
        .map(|c| {
            let mut s = c.join("\n");
            s.push('\n');
            s
        })
        .collect()
}

/// The fleet view merged rank by rank from each session's full report.
fn rank_by_rank_fleet(sessions: &mut [(&str, &mut SessionFold)]) -> FleetView {
    let mut view = FleetView {
        sessions: Vec::new(),
        scopes: 0,
        ranks: 0,
        events: 0,
        total: OverlapStats::default(),
        metrics: MetricsRegistry::new(),
    };
    for (name, fold) in sessions.iter_mut() {
        view.sessions.push(name.to_string());
        for scope in fold.report() {
            view.scopes += 1;
            for rank in &scope.ranks {
                view.ranks += 1;
                view.events += rank.events_seen;
                view.total.merge(&rank.total);
                view.metrics.merge(&rank.metrics);
            }
        }
    }
    view
}

#[test]
fn interleaved_concurrent_pushes_match_serial_and_local_folds() {
    let _g = global_lock();
    let fig = fig03_stream();
    let probe = bench::enginebench::ingest_stream(4, 300);

    // Concurrent: each session arrives as many small pushes, the two client
    // threads racing each other connection-by-connection.
    let (addr, handle, join) = start_server();
    let push_chunked = |addr: String, session: &'static str, text: String| {
        std::thread::spawn(move || {
            for chunk in line_chunks(&text, 500) {
                push_text(&addr, session, &chunk).expect("chunk push");
            }
        })
    };
    let ta = push_chunked(addr.clone(), "fig03", fig.clone());
    let tb = push_chunked(addr.clone(), "probe", probe.clone());
    ta.join().unwrap();
    tb.join().unwrap();

    // Serial: same streams, one push each, a fresh server.
    let (serial_addr, serial_handle, serial_join) = start_server();
    push_text(&serial_addr, "fig03", &fig).expect("serial fig03 push");
    push_text(&serial_addr, "probe", &probe).expect("serial probe push");

    // Local reference folds.
    let mut ref_fig = SessionFold::default();
    ref_fig.push_text(&fig).unwrap();
    let mut ref_probe = SessionFold::default();
    ref_probe.push_text(&probe).unwrap();

    for (session, reference) in [("fig03", &mut ref_fig), ("probe", &mut ref_probe)] {
        let path = format!("/v1/sessions/{session}/report");
        let (st, concurrent) = http(&addr, "GET", &path);
        assert_eq!(st, 200);
        let (st, serial) = http(&serial_addr, "GET", &path);
        assert_eq!(st, 200);
        let local = serde_json::to_string(&reference.report())
            .unwrap()
            .into_bytes();
        assert_eq!(
            concurrent, serial,
            "{session}: concurrent interleaved pushes diverge from serial pushes"
        );
        assert_eq!(
            concurrent, local,
            "{session}: server report diverges from the local fold"
        );
        // The artifacts agree too, not just the summaries.
        let (_, c_attr) = http(
            &addr,
            "GET",
            &format!("/v1/sessions/{session}/attribution.json"),
        );
        let l_attr = serde_json::to_string_pretty(&reference.attribution(session))
            .unwrap()
            .into_bytes();
        assert_eq!(c_attr, l_attr, "{session}: attribution artifact diverges");
    }

    // Fleet view equals the merged local folds of the same streams.
    let expected = Service::default();
    expected
        .session("fig03")
        .lock()
        .unwrap()
        .push_text(&fig)
        .unwrap();
    expected
        .session("probe")
        .lock()
        .unwrap()
        .push_text(&probe)
        .unwrap();
    let (st, fleet) = http(&addr, "GET", "/v1/fleet");
    assert_eq!(st, 200);
    assert_eq!(
        fleet,
        serde_json::to_string(&expected.fleet())
            .unwrap()
            .into_bytes(),
        "fleet view diverges from the merged local folds"
    );

    // A second push into an existing session moves that session's fleet
    // partial to a new generation; the fleet follows it.
    let more = bench::enginebench::ingest_stream(2, 40);
    push_text(&addr, "probe", &more).expect("second probe push");
    expected
        .session("probe")
        .lock()
        .unwrap()
        .push_text(&more)
        .unwrap();
    let (st, fleet_after) = http(&addr, "GET", "/v1/fleet");
    assert_eq!(st, 200);
    assert_ne!(fleet_after, fleet, "fleet view is stale after a push");
    assert_eq!(
        fleet_after,
        serde_json::to_string(&expected.fleet())
            .unwrap()
            .into_bytes(),
        "fleet view diverges from the merged local folds after a second push"
    );
    // And it equals a rank-by-rank merge of full local reports.
    ref_probe.push_text(&more).unwrap();
    assert_eq!(
        fleet_after,
        serde_json::to_string(&rank_by_rank_fleet(&mut [
            ("fig03", &mut ref_fig),
            ("probe", &mut ref_probe)
        ]))
        .unwrap()
        .into_bytes(),
        "fleet view diverges from a rank-by-rank merge"
    );

    handle.shutdown();
    join.join().unwrap();
    serial_handle.shutdown();
    serial_join.join().unwrap();
}

#[test]
fn repro_push_cli_exit_codes() {
    let _g = global_lock();
    let (addr, handle, join) = start_server();
    let dir = std::env::temp_dir().join(format!("overlapd-push-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // A refused stream (no schema header) exits 2.
    let bad = dir.join("bad.events.jsonl");
    std::fs::write(
        &bad,
        "{\"scope\":\"x\",\"rank\":0,\"t\":0,\"ev\":\"call_exit\"}\n",
    )
    .unwrap();
    let code =
        bench::serve::push_main(&[bad.display().to_string(), "--to".to_string(), addr.clone()]);
    assert_eq!(code, 2, "refused stream must exit 2");

    // A mismatched schema_version exits 2 as well.
    let old = dir.join("old.events.jsonl");
    std::fs::write(&old, "{\"ev\":\"header\",\"schema_version\":999}\n").unwrap();
    let code =
        bench::serve::push_main(&[old.display().to_string(), "--to".to_string(), addr.clone()]);
    assert_eq!(code, 2, "schema mismatch must exit 2");

    // A well-formed stream exits 0 and lands in a session named after the
    // file (the trailing `.events` is stripped).
    let good = dir.join("probe.events.jsonl");
    std::fs::write(&good, bench::enginebench::ingest_stream(2, 20)).unwrap();
    let code =
        bench::serve::push_main(&[good.display().to_string(), "--to".to_string(), addr.clone()]);
    assert_eq!(code, 0, "well-formed stream must exit 0");
    let (st, body) = http(&addr, "GET", "/v1/sessions/probe/report");
    assert_eq!(st, 200);
    assert!(
        body.len() > 2,
        "pushed session should serve a non-empty report"
    );

    std::fs::remove_dir_all(&dir).ok();
    handle.shutdown();
    join.join().unwrap();
}
