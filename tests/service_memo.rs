//! The per-session view memo over real loopback sockets:
//!
//! * repeated GETs return the same bytes, served from the memo;
//! * a push after a GET moves the session to a new generation, and the
//!   next GET serves the new view — equal to a fresh local fold of the same
//!   text, never the stale body;
//! * every `window_ns` gets its own series, and hostile widths keep at most
//!   one series body per session;
//! * refused requests (400, 404, 405) store nothing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use overlap_core::stream::SessionFold;
use overlapd::{push_text, Server, Service, View};

struct Running {
    addr: String,
    service: Arc<Service>,
    handle: overlapd::server::ServerHandle,
    join: std::thread::JoinHandle<()>,
}

impl Running {
    fn start() -> Running {
        let service = Arc::new(Service::default());
        let server = Server::bind("127.0.0.1:0", service.clone()).expect("bind loopback");
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle().unwrap();
        let join = std::thread::spawn(move || server.run().expect("server run"));
        Running {
            addr,
            service,
            handle,
            join,
        }
    }

    /// One request on its own connection; returns (status, body bytes).
    fn http(&self, method: &str, path: &str) -> (u16, Vec<u8>) {
        let mut s = TcpStream::connect(&self.addr).expect("connect");
        let head = format!("{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
        s.write_all(head.as_bytes()).unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap();
        let status = String::from_utf8_lossy(&raw)
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

    fn get(&self, path: &str) -> Vec<u8> {
        let (status, body) = self.http("GET", path);
        assert_eq!(status, 200, "GET {path}");
        body
    }

    fn memoized(&self, session: &str) -> Vec<View> {
        let s = self.service.get(session).expect("session exists");
        let memoized = s.lock().unwrap().memoized();
        memoized
    }

    fn stop(self) {
        self.handle.shutdown();
        self.join.join().unwrap();
    }
}

/// The endpoint paths of every memoized view of `session`.
fn view_paths(session: &str) -> Vec<String> {
    [
        "report",
        "series",
        "waits",
        "attribution.json",
        "critpath.folded",
    ]
    .iter()
    .map(|v| format!("/v1/sessions/{session}/{v}"))
    .collect()
}

/// What each of [`view_paths`] must serve, from a local fold.
fn local_views(fold: &mut SessionFold, session: &str) -> Vec<Vec<u8>> {
    vec![
        serde_json::to_string(&fold.report()).unwrap().into_bytes(),
        serde_json::to_string(&fold.series(None))
            .unwrap()
            .into_bytes(),
        serde_json::to_string(&fold.wait_states())
            .unwrap()
            .into_bytes(),
        serde_json::to_string_pretty(&fold.attribution(session))
            .unwrap()
            .into_bytes(),
        fold.collapsed().into_bytes(),
    ]
}

#[test]
fn repeated_gets_are_byte_identical() {
    let server = Running::start();
    let text = bench::enginebench::ingest_stream(3, 40);
    push_text(&server.addr, "s", &text).expect("push");
    for path in view_paths("s") {
        let first = server.get(&path);
        assert!(!first.is_empty(), "{path}");
        for _ in 0..3 {
            assert_eq!(server.get(&path), first, "{path}: repeated GET differs");
        }
    }
    assert_eq!(
        server.memoized("s"),
        [
            View::Report,
            View::Series(None),
            View::Waits,
            View::Attribution,
            View::Collapsed
        ]
    );
    server.stop();
}

#[test]
fn a_push_after_a_get_serves_the_new_view() {
    let server = Running::start();
    // Two ranks of 4,800 events each: the second push overflows the
    // default 4,096-event ring after the first GETs drained it.
    let text = bench::enginebench::ingest_stream(2, 800);
    let lines: Vec<&str> = text.lines().collect();
    let cut = 4_000;
    let first = lines[..cut].join("\n") + "\n";
    let rest = lines[cut..].join("\n") + "\n";

    push_text(&server.addr, "s", &first).expect("first push");
    let mut local = SessionFold::default();
    local.push_text(&first).unwrap();
    let before: Vec<Vec<u8>> = view_paths("s").iter().map(|p| server.get(p)).collect();
    assert_eq!(before, local_views(&mut local, "s"));

    push_text(&server.addr, "s", &rest).expect("second push");
    let mut fresh = SessionFold::default();
    fresh.push_text(&text).unwrap();
    let expected = local_views(&mut fresh, "s");
    for ((path, old), want) in view_paths("s").iter().zip(&before).zip(&expected) {
        let after = server.get(path);
        assert_ne!(&after, old, "{path}: stale body after a push");
        assert_eq!(&after, want, "{path}: differs from a fresh local fold");
    }
    server.stop();
}

#[test]
fn each_window_width_gets_its_own_series() {
    let server = Running::start();
    let text = bench::enginebench::ingest_stream(2, 60);
    push_text(&server.addr, "s", &text).expect("push");
    let mut local = SessionFold::default();
    local.push_text(&text).unwrap();
    for width in [1_000u64, 7_919, 1_000] {
        let served = server.get(&format!("/v1/sessions/s/series?window_ns={width}"));
        let want = serde_json::to_string(&local.series(Some(width))).unwrap();
        assert_eq!(served, want.into_bytes(), "window_ns={width}");
        assert_eq!(server.memoized("s"), [View::Series(Some(width))]);
    }
    // The default width is its own key, too.
    let served = server.get("/v1/sessions/s/series");
    let want = serde_json::to_string(&local.series(None)).unwrap();
    assert_eq!(served, want.into_bytes());
    server.stop();
}

#[test]
fn refused_requests_store_nothing() {
    let server = Running::start();
    push_text(&server.addr, "s", &bench::enginebench::ingest_stream(2, 10)).expect("push");
    for (method, path, want) in [
        ("GET", "/v1/sessions/s/series?window_ns=0", 400),
        ("GET", "/v1/sessions/s/series?window_ns=wide", 400),
        ("GET", "/v1/sessions/s/bogus", 404),
        ("GET", "/v1/sessions/missing/report", 404),
        ("DELETE", "/v1/sessions/s/report", 405),
        ("POST", "/v1/sessions/s/attribution.json", 405),
    ] {
        let (status, _) = server.http(method, path);
        assert_eq!(status, want, "{method} {path}");
    }
    assert_eq!(server.memoized("s"), []);
    assert!(server.service.get("missing").is_none());
    server.stop();
}

#[test]
fn hostile_window_widths_keep_one_series_body() {
    let server = Running::start();
    push_text(&server.addr, "s", &bench::enginebench::ingest_stream(1, 4)).expect("push");
    for width in 1..=1_000u64 {
        server.get(&format!("/v1/sessions/s/series?window_ns={width}"));
    }
    assert_eq!(server.memoized("s"), [View::Series(Some(1_000))]);
    server.stop();
}
