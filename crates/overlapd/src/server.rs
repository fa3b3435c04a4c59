//! The TCP front end: framed ingest and HTTP read side on one port.
//!
//! A connection's first bytes select the protocol:
//!
//! * `OVLP1 ` — the length-framed ingest protocol (see `docs/SERVICE.md`):
//!   a greeting line `OVLP1 <session>\n`, then u32-big-endian-length-prefixed
//!   frames of JSONL text (frames may split lines; the server carries the
//!   partial line), a zero-length frame to finish, one reply line
//!   (`ok events=<n>\n` or `err <one-line reason>\n`).
//! * anything else — HTTP/1.1 ([`crate::http`]): `POST
//!   /v1/sessions/<name>` uploads (Content-Length or chunked), `GET`
//!   endpoints for live reports, windowed series, fleet view, and the
//!   on-demand artifacts.
//!
//! Frames and uploads are folded under the session lock before the next
//! read, so TCP flow control is the ingest backpressure — the server never
//! queues unbounded data behind a slow fold.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http;
use crate::service::{lock, Service, Session, View};

/// Largest accepted ingest frame, bytes. Bounds per-connection buffering;
/// clients split at line boundaries well below this.
pub const MAX_FRAME: usize = 1 << 20;

/// The listening server. Construct with [`Server::bind`], then either call
/// [`Server::run`] on a dedicated thread or integrate
/// [`Server::handle`]-driven shutdown into your own lifecycle.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    active: Arc<(Mutex<usize>, Condvar)>,
}

/// A cheap clonable handle for stopping a running server from another
/// thread (or from the `POST /v1/shutdown` endpoint).
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Request graceful shutdown: stop accepting, finish in-flight
    /// connections. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

impl Server {
    /// Bind to `addr` (e.g. `127.0.0.1:7077`, or port 0 for ephemeral) and
    /// serve `service`.
    pub fn bind<A: ToSocketAddrs>(addr: A, service: Arc<Service>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            service,
            shutdown: Arc::new(AtomicBool::new(false)),
            active: Arc::new((Mutex::new(0), Condvar::new())),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle for this server.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            shutdown: self.shutdown.clone(),
        })
    }

    /// Accept and serve until [`ServerHandle::shutdown`] (or the shutdown
    /// endpoint) fires, then drain in-flight connections (bounded wait) and
    /// return.
    pub fn run(self) -> io::Result<()> {
        let handle = self.handle()?;
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(x) => x,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let service = self.service.clone();
            let conn_handle = handle.clone();
            let active = self.active.clone();
            {
                let (lock, _) = &*active;
                *lock.lock().unwrap_or_else(|e| e.into_inner()) += 1;
            }
            std::thread::spawn(move || {
                let _ = handle_conn(stream, &service, &conn_handle);
                let (lock, cv) = &*active;
                *lock.lock().unwrap_or_else(|e| e.into_inner()) -= 1;
                cv.notify_all();
            });
        }
        // Graceful drain: give in-flight connections a bounded window.
        let deadline = Instant::now() + Duration::from_secs(10);
        let (lock, cv) = &*self.active;
        let mut g = lock.lock().unwrap_or_else(|e| e.into_inner());
        while *g > 0 && Instant::now() < deadline {
            let (ng, _) = cv
                .wait_timeout(g, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            g = ng;
        }
        Ok(())
    }
}

fn handle_conn(stream: TcpStream, service: &Service, handle: &ServerHandle) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let head = reader.fill_buf()?;
    if head.starts_with(b"OVLP1 ") || (head.len() < 6 && b"OVLP1 ".starts_with(head)) {
        serve_framed(&mut reader, &mut writer, service)
    } else {
        serve_http(&mut reader, &mut writer, service, handle)
    }
}

/// The framed ingest path. Replies exactly one line and returns.
fn serve_framed<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    service: &Service,
) -> io::Result<()> {
    let mut greeting = String::new();
    reader.read_line(&mut greeting)?;
    let session_name = match greeting.trim_end().strip_prefix("OVLP1 ") {
        Some(name) if !name.is_empty() => name.to_string(),
        _ => {
            writer.write_all(b"err malformed greeting (want `OVLP1 <session>`)\n")?;
            return writer.flush();
        }
    };
    let session = service.session(&session_name);
    let mut events = 0;
    let mut fold = |bytes: &[u8]| push_bytes(&session, bytes).map(|n| events += n);
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let mut len_buf = [0u8; 4];
        if let Err(e) = reader.read_exact(&mut len_buf) {
            writer.write_all(format!("err stream truncated mid-frame: {e}\n").as_bytes())?;
            return writer.flush();
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        if len == 0 {
            break;
        }
        if len > MAX_FRAME {
            writer.write_all(
                format!("err frame of {len} bytes exceeds the {MAX_FRAME} byte limit\n").as_bytes(),
            )?;
            return writer.flush();
        }
        let start = carry.len();
        carry.resize(start + len, 0);
        if let Err(e) = reader.read_exact(&mut carry[start..]) {
            writer.write_all(format!("err stream truncated mid-frame: {e}\n").as_bytes())?;
            return writer.flush();
        }
        // Fold every complete line; keep the partial tail for the next
        // frame. The fold runs under the session lock *before* the next
        // read — that synchronous apply is the backpressure.
        let cut = match carry.iter().rposition(|&b| b == b'\n') {
            Some(i) => i + 1,
            None => continue,
        };
        if let Err(e) = fold(&carry[..cut]) {
            writer.write_all(format!("err {e}\n").as_bytes())?;
            return writer.flush();
        }
        carry.drain(..cut);
    }
    if !carry.is_empty() {
        if let Err(e) = fold(&carry) {
            writer.write_all(format!("err {e}\n").as_bytes())?;
            return writer.flush();
        }
    }
    writer.write_all(format!("ok events={events}\n").as_bytes())?;
    writer.flush()
}

/// Fold a block of complete lines into the session. Returns the event
/// lines this call folded, counted under the session lock so a concurrent
/// push into the same session cannot inflate it, or the one-line reason
/// on refusal.
fn push_bytes(session: &Mutex<Session>, bytes: &[u8]) -> Result<u64, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("stream is not UTF-8: {e}"))?;
    lock(session).push_text(text).map_err(|e| e.to_string())
}

/// The HTTP path: one request, one response.
fn serve_http<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    service: &Service,
    handle: &ServerHandle,
) -> io::Result<()> {
    let req = match http::read_request(reader) {
        Ok(Some(req)) => req,
        Ok(None) => return Ok(()),
        Err(e) => {
            return http::respond(writer, 400, Some("text/plain"), format!("{e}\n").as_bytes())
        }
    };
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => http::respond(writer, 200, Some("text/plain"), b"ok\n"),
        ("GET", ["v1", "sessions"]) => json(writer, &service.list()),
        ("GET", ["v1", "fleet"]) => json(writer, &service.fleet()),
        ("POST", ["v1", "shutdown"]) => {
            let r = http::respond(writer, 200, Some("text/plain"), b"shutting down\n");
            handle.shutdown();
            r
        }
        ("POST", ["v1", "sessions", name]) => {
            let session = service.session(name);
            match push_bytes(&session, &req.body) {
                Ok(events) => http::respond(
                    writer,
                    200,
                    Some("text/plain"),
                    format!("ok events={events}\n").as_bytes(),
                ),
                Err(e) => {
                    http::respond(writer, 400, Some("text/plain"), format!("{e}\n").as_bytes())
                }
            }
        }
        ("GET", ["v1", "sessions", name, what]) => {
            let Some(session) = service.get(name) else {
                return http::respond(writer, 404, Some("text/plain"), b"no such session\n");
            };
            let view = match *what {
                "report" => View::Report,
                "series" => match req.query.get("window_ns").map(|v| v.parse::<u64>()) {
                    None => View::Series(None),
                    Some(Ok(n)) if n > 0 => View::Series(Some(n)),
                    Some(_) => {
                        return http::respond(
                            writer,
                            400,
                            Some("text/plain"),
                            b"window_ns must be a positive integer\n",
                        )
                    }
                },
                "waits" => View::Waits,
                "attribution.json" => View::Attribution,
                "critpath.folded" => View::Collapsed,
                _ => return http::respond(writer, 404, Some("text/plain"), b"unknown endpoint\n"),
            };
            // Build (or fetch) the body under the session lock; write it
            // after the lock is released, so a slow reader stalls neither
            // pushes into the session nor the fleet view.
            let body = lock(&session).view(view);
            http::respond(writer, 200, view.content_type(), &body)
        }
        (_, ["healthz" | "v1", ..]) => {
            http::respond(writer, 405, Some("text/plain"), b"method not allowed\n")
        }
        _ => http::respond(writer, 404, Some("text/plain"), b"unknown endpoint\n"),
    }
}

fn json<W: Write, T: serde::Serialize>(writer: &mut W, value: &T) -> io::Result<()> {
    let body = serde_json::to_string(value).expect("endpoint value serializes");
    http::respond(writer, 200, None, body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// A response sink whose first write parks until the test releases it.
    struct ParkedWriter {
        parked: Sender<()>,
        release: Receiver<()>,
        waited: bool,
        out: Vec<u8>,
    }

    impl Write for ParkedWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !self.waited {
                self.waited = true;
                self.parked.send(()).unwrap();
                self.release.recv().unwrap();
            }
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn get_writes_the_response_after_releasing_the_session_lock() {
        let service = Service::default();
        let text = format!(
            "{{\"ev\":\"header\",\"schema_version\":{}}}\n\
             {{\"scope\":\"s\",\"rank\":0,\"t\":5,\"ev\":\"call_exit\"}}\n",
            overlap_core::trace::SCHEMA_VERSION
        );
        service
            .session("a")
            .lock()
            .unwrap()
            .push_text(&text)
            .unwrap();
        let handle = ServerHandle {
            addr: "127.0.0.1:9".parse().unwrap(),
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        for path in [
            "/v1/sessions/a/report",
            "/v1/sessions/a/series?window_ns=3",
            "/v1/sessions/a/critpath.folded",
            "/v1/fleet",
        ] {
            let request = format!("GET {path} HTTP/1.1\r\n\r\n");
            let (parked_tx, parked_rx) = channel();
            let (release_tx, release_rx) = channel();
            let mut writer = ParkedWriter {
                parked: parked_tx,
                release: release_rx,
                waited: false,
                out: Vec::new(),
            };
            let unlocked_while_writing = std::thread::scope(|scope| {
                let serving = scope
                    .spawn(|| serve_http(&mut request.as_bytes(), &mut writer, &service, &handle));
                parked_rx.recv().unwrap();
                let unlocked = service.get("a").unwrap().try_lock().is_ok();
                release_tx.send(()).unwrap();
                serving.join().unwrap().unwrap();
                unlocked
            });
            assert!(
                unlocked_while_writing,
                "{path}: session locked while the response is being written"
            );
            assert!(writer.out.starts_with(b"HTTP/1.1 200 OK\r\n"), "{path}");
        }
    }
}
