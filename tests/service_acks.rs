//! Ingest acknowledgements count the events folded by *this* push: an HTTP
//! upload into an existing session and a framed push racing another push
//! into the same session each get their own count, not the session's
//! running total.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use overlap_core::stream::SessionFold;
use overlapd::{push_text, Server, Service};

fn event_lines(text: &str) -> u64 {
    let mut fold = SessionFold::default();
    fold.push_text(text).unwrap();
    fold.event_lines()
}

fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let status = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = raw.split_once("\r\n\r\n").expect("separator").1.to_string();
    (status, body)
}

fn write_frame(w: &mut TcpStream, bytes: &[u8]) {
    w.write_all(&(bytes.len() as u32).to_be_bytes()).unwrap();
    w.write_all(bytes).unwrap();
    w.flush().unwrap();
}

#[test]
fn each_push_acknowledges_its_own_events() {
    let server = Server::bind("127.0.0.1:0", Arc::new(Service::default())).expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));

    // Two HTTP uploads into one session.
    let one = bench::enginebench::ingest_stream(2, 10);
    let two = bench::enginebench::ingest_stream(3, 7);
    for text in [&one, &two] {
        let (status, body) = request(&addr, "POST", "/v1/sessions/http", text);
        assert_eq!(status, 200);
        assert_eq!(body, format!("ok events={}\n", event_lines(text)));
    }

    // Framed push A folds one frame and holds its connection open ...
    let a_text = bench::enginebench::ingest_stream(2, 12);
    let mut a = TcpStream::connect(&addr).expect("connect A");
    a.write_all(b"OVLP1 framed\n").unwrap();
    write_frame(&mut a, a_text.as_bytes());
    let a_lines = a_text.lines().count();
    let folded = format!("\"name\":\"framed\",\"lines\":{a_lines},");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !request(&addr, "GET", "/v1/sessions", "")
        .1
        .contains(&folded)
    {
        assert!(Instant::now() < deadline, "A's frame was never folded");
        std::thread::sleep(Duration::from_millis(5));
    }

    // ... while push B completes into the same session ...
    let b_text = bench::enginebench::ingest_stream(1, 9);
    let b_ack = push_text(&addr, "framed", &b_text).expect("push B");
    assert_eq!(b_ack, event_lines(&b_text));

    // ... and then A finishes: its ack counts only its own events.
    write_frame(&mut a, b"");
    let mut reply = String::new();
    BufReader::new(a).read_line(&mut reply).unwrap();
    assert_eq!(reply, format!("ok events={}\n", event_lines(&a_text)));

    handle.shutdown();
    join.join().unwrap();
}
