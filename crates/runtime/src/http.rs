//! Optional std-only HTTP scrape endpoint for [`crate::Telemetry`]
//! (feature `telemetry-http`).
//!
//! A [`TelemetryServer`] owns one background accept thread serving three
//! routes from a plain `TcpListener`:
//!
//! * `GET /metrics` — OpenMetrics text ([`crate::Telemetry::render_openmetrics`])
//! * `GET /metrics.json` — JSON snapshot ([`crate::Telemetry::render_json`])
//! * `GET /flight` — human-readable flight-recorder dump
//!
//! No HTTP library, no TLS, no keep-alive: one request per connection,
//! just enough protocol for `curl` and a Prometheus scraper. Dropping the
//! server stops the thread.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::telemetry::Telemetry;

/// A running scrape endpoint; stops serving when dropped.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9925"`, or port 0 for an ephemeral
    /// port) and serve `telemetry` until the returned server is dropped.
    pub fn serve(telemetry: Arc<Telemetry>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("fx-telemetry-http".into())
            .spawn(move || accept_loop(listener, telemetry, stop2))?;
        Ok(TelemetryServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Poke the listener so the blocking accept() observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, telemetry: Arc<Telemetry>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = serve_one(&mut stream, &telemetry);
    }
}

/// Upper bound on bytes read while looking for the end of the request's
/// header block. Generous for any `GET <path> HTTP/1.1` plus headers a
/// scraper sends; a client that exceeds it is answered from whatever
/// arrived.
const MAX_REQUEST_HEAD: usize = 8192;

/// How long a client may stay silent before the server stops waiting for
/// it — while reading the request, and again while draining after the
/// response.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// Read from `stream` until the blank line that ends the header block
/// (`\r\n\r\n`) has arrived, then return the request line. The head may
/// arrive split across any number of TCP segments (small MSS, Nagle-off
/// byte-at-a-time writers), so a single `read()` is not enough. Bounded
/// by [`MAX_REQUEST_HEAD`]; EOF or a silent client ends it early and the
/// route is taken from what arrived.
///
/// Stopping at the request line's own CRLF would be enough to route, but
/// leaves the headers unread: closing a socket with unread bytes makes
/// the kernel send RST instead of FIN, and the client loses the response.
fn read_request_line(stream: &mut TcpStream) -> std::io::Result<String> {
    const END: &[u8] = b"\r\n\r\n";
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 1024];
    let mut scanned = 0;
    while buf.len() < MAX_REQUEST_HEAD {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(e) => return Err(e),
        };
        buf.extend_from_slice(&chunk[..n]);
        if buf[scanned..].windows(END.len()).any(|w| w == END) {
            break;
        }
        scanned = buf.len().saturating_sub(END.len() - 1);
    }
    let line_end = buf.windows(2).position(|w| w == b"\r\n").unwrap_or(buf.len());
    Ok(String::from_utf8_lossy(&buf[..line_end]).into_owned())
}

/// Half-close, then read until the client has closed too (or gone
/// silent): whatever it was still sending — headers past
/// [`MAX_REQUEST_HEAD`], a body — is consumed, so dropping the socket
/// sends FIN and the response survives.
fn finish(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.shutdown(Shutdown::Write)?;
    let deadline = Instant::now() + CLIENT_TIMEOUT;
    let mut sink = [0u8; 1024];
    while Instant::now() < deadline && matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    Ok(())
}

fn serve_one(stream: &mut TcpStream, telemetry: &Telemetry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    // The route is the request line's; headers and body are read and
    // ignored.
    let request = read_request_line(stream)?;
    let path = request.split_whitespace().nth(1).unwrap_or("/");

    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "application/openmetrics-text; version=1.0.0; charset=utf-8",
            telemetry.render_openmetrics(),
        ),
        "/metrics.json" => ("200 OK", "application/json", telemetry.render_json()),
        "/flight" => ("200 OK", "text/plain; charset=utf-8", telemetry.flight_dump()),
        "/trace" => ("200 OK", "text/plain; charset=utf-8", trace_index(telemetry)),
        p if p.starts_with("/trace/") => match lookup_trace(telemetry, &p["/trace/".len()..]) {
            Some(json) => ("200 OK", "application/json", json),
            None => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                format!("no retained trace {}; see /trace for the ring\n", &p["/trace/".len()..]),
            ),
        },
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "routes: /metrics /metrics.json /flight /trace /trace/<id>\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    finish(stream)
}

/// The `/trace` index: one line per retained exemplar trace, slowest
/// first, with the hex id to paste into `/trace/<id>`.
fn trace_index(telemetry: &Telemetry) -> String {
    let traces = telemetry.exemplar_traces();
    if traces.is_empty() {
        return "no retained traces (serve with tracing on)\n".to_string();
    }
    let mut out = String::from("retained exemplar traces (slowest first):\n");
    for e in traces {
        out.push_str(&format!("  /trace/{:016x}  latency {} ns\n", e.trace_id, e.latency_ns));
    }
    out
}

/// Resolve `/trace/<id>` — the id in hex, with or without leading zeros
/// or a `0x` prefix (the forms `/trace` and the OpenMetrics exemplars
/// print) — to the retained per-request Chrome-trace JSON.
fn lookup_trace(telemetry: &Telemetry, id: &str) -> Option<String> {
    let id = u64::from_str_radix(id.trim_start_matches("0x"), 16).ok()?;
    telemetry.exemplar_trace(id).map(|e| e.json)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One client connection: `send` writes the request however it likes,
    /// the response is read to EOF, and the socket closes on return — a
    /// client that lingers holds the one accept thread in its drain.
    fn exchange(addr: SocketAddr, send: impl FnOnce(&mut TcpStream)) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        send(&mut s);
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        exchange(addr, |s| {
            s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap()
        })
    }

    #[test]
    fn scrape_endpoint_serves_openmetrics_json_and_flight() {
        let telemetry = Arc::new(Telemetry::new());
        let machine = crate::Machine::real(2).with_telemetry(Arc::clone(&telemetry));
        crate::run(&machine, |cx| {
            if cx.rank() == 0 {
                cx.send(1, 1, vec![1u8; 64]);
            } else {
                let _: Vec<u8> = cx.recv(0, 1);
            }
        });

        let server = TelemetryServer::serve(Arc::clone(&telemetry), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let om = get(addr, "/metrics");
        assert!(om.starts_with("HTTP/1.1 200 OK"), "{om}");
        assert!(om.contains("application/openmetrics-text"));
        assert!(om.contains("fx_sends_total{proc=\"0\"} 1"));
        assert!(om.trim_end().ends_with("# EOF"));

        let json = get(addr, "/metrics.json");
        assert!(json.contains("\"sends\":1"), "{json}");

        let flight = get(addr, "/flight");
        assert!(flight.contains("processor 0"), "{flight}");
        assert!(flight.contains("send"), "{flight}");

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        drop(server);
        // The port is released; a fresh bind to the same address works.
        let again = TcpListener::bind(addr);
        assert!(again.is_ok(), "server thread should have released the socket");
    }

    #[test]
    fn trace_routes_serve_the_exemplar_ring() {
        let telemetry = Arc::new(Telemetry::new());
        let server = TelemetryServer::serve(Arc::clone(&telemetry), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        // Empty ring: the index explains itself, a lookup 404s.
        let idx = get(addr, "/trace");
        assert!(idx.starts_with("HTTP/1.1 200 OK"), "{idx}");
        assert!(idx.contains("no retained traces"), "{idx}");
        assert!(get(addr, "/trace/dead").starts_with("HTTP/1.1 404"));

        telemetry.publish_serving(Vec::new(), [(0xDEAD, 5_000)], |_| "{\"traceEvents\":[]}".to_string());
        let idx = get(addr, "/trace");
        assert!(idx.contains("/trace/000000000000dead"), "{idx}");
        // Hex with and without leading zeros or a 0x prefix all resolve
        // to the same retained trace.
        for id in ["dead", "000000000000dead", "0xdead"] {
            let hit = get(addr, &format!("/trace/{id}"));
            assert!(hit.starts_with("HTTP/1.1 200 OK"), "/trace/{id}: {hit}");
            assert!(hit.contains("{\"traceEvents\":[]}"), "{hit}");
            assert!(hit.contains("application/json"));
        }
        assert!(get(addr, "/trace/beef").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/trace/notahexid").starts_with("HTTP/1.1 404"));
        // The 404 listing advertises the new routes.
        assert!(get(addr, "/nope").contains("/trace/<id>"));
    }

    #[test]
    fn request_line_split_across_segments_parses_whole_path() {
        let telemetry = Arc::new(Telemetry::new());
        let server = TelemetryServer::serve(Arc::clone(&telemetry), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        // Two-segment writer: the request line arrives in two TCP
        // segments with a pause between them. TCP_NODELAY plus the flush
        // and delay makes the server's first read() return only the
        // prefix, which the old single-read parser turned into the path
        // "/met" (a 404).
        let out = exchange(addr, |s| {
            s.write_all(b"GET /met").unwrap();
            s.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(100));
            s.write_all(b"rics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        });
        assert!(out.starts_with("HTTP/1.1 200 OK"), "split request line must still route: {out}");
        assert!(out.contains("application/openmetrics-text"), "{out}");

        // Byte-at-a-time writer: the degenerate many-segment case. The
        // server must not answer and close while bytes are still coming.
        let out = exchange(addr, |s| {
            for b in b"GET /metrics.json HTTP/1.1\r\n\r\n" {
                s.write_all(&[*b]).unwrap();
            }
        });
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.contains("application/json"), "{out}");

        // The prefix-matched /trace/<id> route through the same
        // multi-segment path: a split inside the id must not truncate it
        // into a different (or invalid) trace id.
        telemetry.publish_serving(Vec::new(), [(0xFEED, 1_000)], |_| "{\"traceEvents\":[]}".to_string());
        let out = exchange(addr, |s| {
            s.write_all(b"GET /trace/00000000").unwrap();
            s.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(100));
            s.write_all(b"0000feed HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        });
        assert!(out.starts_with("HTTP/1.1 200 OK"), "split trace id must still route: {out}");
        assert!(out.contains("{\"traceEvents\":[]}"), "{out}");
    }

    #[test]
    fn headers_are_read_before_the_response_so_the_close_is_not_a_reset() {
        let telemetry = Arc::new(Telemetry::new());
        let server = TelemetryServer::serve(Arc::clone(&telemetry), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        // A scraper's worth of headers: 4 KiB after the request line.
        // Answering at the first CRLF and closing with these unread makes
        // the kernel send RST, and the client's read fails.
        let padding = "x".repeat(4096);
        let head = format!("GET /flight HTTP/1.1\r\nHost: x\r\nX-Pad: {padding}\r\n\r\n");
        for _ in 0..20 {
            let out = exchange(addr, |s| s.write_all(head.as_bytes()).unwrap());
            assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
            assert!(out.contains("text/plain"), "{out}");
        }

        // Past the bound the route still comes from the first line, and
        // the excess is drained, not left to reset the connection.
        let head = format!("GET /metrics.json HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "x".repeat(20_000));
        let out = exchange(addr, |s| s.write_all(head.as_bytes()).unwrap());
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.contains("application/json"), "{out}");
    }
}
