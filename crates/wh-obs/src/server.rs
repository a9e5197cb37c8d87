//! A dependency-free live introspection server.
//!
//! One background thread, a std [`TcpListener`], HTTP/1.0 with
//! `Connection: close` — enough for `curl` and a Prometheus scraper, zero
//! dependencies per the workspace policy. Endpoints:
//!
//! | path           | body                                                |
//! |----------------|-----------------------------------------------------|
//! | `/metrics`     | Prometheus text exposition of the registry snapshot |
//! | `/snapshot`    | the same snapshot as JSON (counters/gauges/…)       |
//! | `/health`      | sliding-window SLO verdict (503 while degraded)     |
//! | `/traces`      | recent trace ids with root span name + event count  |
//! | `/traces/<id>` | every event of one trace, in causal (seq) order     |
//!
//! The server only *reads* process-global state, so it compiles and runs
//! identically with observability disabled (everything is just empty).
//! [`IntrospectionServer::start`] binds (port 0 picks a free port),
//! [`IntrospectionServer::stop`] joins the accept loop; dropping the
//! handle stops it too.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Handle to a running introspection server.
#[derive(Debug)]
pub struct IntrospectionServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl IntrospectionServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving in a
    /// background thread.
    pub fn start(addr: &str) -> std::io::Result<IntrospectionServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("wh-introspect".into())
            .spawn(move || accept_loop(&listener, &stop_flag))?;
        Ok(IntrospectionServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the accept loop to exit and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release); // ordering: server-stop Release — pairs with the Acquire poll in the accept loop; everything before stop() happens-before loop exit
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

impl Drop for IntrospectionServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool) {
    // ordering: server-stop Acquire — pairs with the Release store in stop(); see everything the stopper published
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                crate::counter!("obs.server.requests").inc();
                serve_connection(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Longest one connection may take to deliver its request head, and again
/// to accept its response. There is one serving thread and `stop()`/`Drop`
/// join it, so a silent, trickling or never-reading client must cost a
/// bounded wait, not a wedge: both budgets are overall deadlines, not
/// per-syscall timeouts a byte every second could renew forever.
const IO_DEADLINE: Duration = Duration::from_secs(2);

/// Time left until `deadline`; `None` once it has passed (a zero timeout
/// is an error to `set_read_timeout`/`set_write_timeout`, not "don't wait").
fn time_left(deadline: Instant) -> Option<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
}

/// The request head, or `None` if it did not arrive whole in time.
fn read_head(stream: &mut TcpStream) -> Option<String> {
    let deadline = Instant::now() + IO_DEADLINE;
    let mut buf = [0u8; 2048];
    let mut len = 0usize;
    // Read until the end of the request head (or the buffer fills; a bare
    // "GET /path HTTP/1.0" fits many times over).
    while len < buf.len() {
        stream.set_read_timeout(Some(time_left(deadline)?)).ok()?;
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    Some(String::from_utf8_lossy(&buf[..len]).into_owned())
}

/// `write_all` under one deadline; gives up on the client when it passes.
fn write_response(stream: &mut TcpStream, response: &[u8]) {
    let deadline = Instant::now() + IO_DEADLINE;
    let mut rest = response;
    while !rest.is_empty() {
        let Some(left) = time_left(deadline) else {
            return;
        };
        if stream.set_write_timeout(Some(left)).is_err() {
            return;
        }
        match stream.write(rest) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Ok(0) | Err(_) => return,
            Ok(n) => rest = &rest[n..],
        }
    }
    stream.flush().ok();
}

fn serve_connection(mut stream: TcpStream) {
    stream.set_nonblocking(false).ok();
    let Some(head) = read_head(&mut stream) else {
        return;
    };
    let mut parts = head.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return;
    };
    let (status, content_type, body) = if method != "GET" {
        (405, "text/plain", "method not allowed\n".to_string())
    } else {
        route(path)
    };
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "OK",
    };
    let response = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    write_response(&mut stream, response.as_bytes());
}

fn route(path: &str) -> (u16, &'static str, String) {
    // Scrapers commonly append query strings (GET /metrics?format=text);
    // match on the path component only.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4",
            crate::registry::global().snapshot().to_prometheus(),
        ),
        "/snapshot" => (
            200,
            "application/json",
            crate::registry::global().snapshot().to_json(),
        ),
        "/health" => {
            let (ok, body) = crate::slo::health();
            (if ok { 200 } else { 503 }, "application/json", body)
        }
        "/traces" => (200, "application/json", traces_index()),
        p => {
            if let Some(id) = p
                .strip_prefix("/traces/")
                .and_then(|id| id.parse::<u64>().ok())
            {
                let events = crate::trace::trace_events(id);
                if events.is_empty() {
                    (
                        404,
                        "application/json",
                        "{\"error\":\"no such trace\"}\n".to_string(),
                    )
                } else {
                    (200, "application/json", trace_json(&events))
                }
            } else {
                (404, "text/plain", "not found\n".to_string())
            }
        }
    }
}

fn traces_index() -> String {
    let mut out = String::from("[");
    for (i, (id, root, events)) in crate::trace::recent_traces().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"trace\": {id}, \"root\": \"{}\", \"events\": {events}}}",
            crate::encode::json_escape(root)
        ));
    }
    out.push_str("\n]\n");
    out
}

fn trace_json(events: &[crate::trace::TraceEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            concat!(
                "\n  {{\"seq\": {}, \"trace\": {}, \"span\": {}, \"parent\": {}, ",
                "\"name\": \"{}\", \"kind\": \"{}\", \"thread\": {}, ",
                "\"ts_ns\": {}, \"arg\": {}}}"
            ),
            e.seq,
            e.trace_id,
            e.span_id,
            e.parent_id,
            crate::encode::json_escape(e.name),
            e.kind.label(),
            e.thread,
            e.ts_ns,
            e.arg,
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_all_endpoints() {
        let server = IntrospectionServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        crate::counter!("obs.test.server_counter").inc();
        let (status, body) = get(addr, "/snapshot");
        assert_eq!(status, 200);
        assert!(body.contains("\"counters\""));

        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        if crate::is_enabled() {
            assert!(metrics.contains("obs_test_server_counter_total"));
        }

        let (status, health) = get(addr, "/health");
        assert!(status == 200 || status == 503);
        assert!(health.contains("\"status\""));

        let (status, _) = get(addr, "/traces");
        assert_eq!(status, 200);

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        // Query strings from probes/scrapers must not 404 the endpoint.
        let (status, metrics) = get(addr, "/metrics?format=text");
        assert_eq!(status, 200);
        if crate::is_enabled() {
            assert!(metrics.contains("obs_test_server_counter_total"));
        }
        let (status, _) = get(addr, "/health?verbose=1");
        assert!(status == 200 || status == 503);

        if crate::is_enabled() {
            let ctx = crate::trace::open_ctx(crate::trace::intern("obs.test.server_trace"), 0, 0);
            crate::trace::close_ctx(ctx, 0);
            let (status, body) = get(addr, &format!("/traces/{}", ctx.trace));
            assert_eq!(status, 200);
            assert!(body.contains("obs.test.server_trace"));
            let (status, _) = get(addr, "/traces/999999999");
            assert_eq!(status, 404);
        }

        server.stop();
    }

    /// A stalled client costs the one serving thread a bounded wait: with a
    /// silent connection and one that requests a large body and never
    /// reads it both queued ahead, the next client is still answered and
    /// `stop()` still returns.
    #[test]
    fn stalled_clients_do_not_wedge_the_server() {
        // A body no pair of loopback socket buffers can absorb, so the
        // never-reading client really does block the server's write.
        let bulk = "x".repeat(64 * 1024);
        for i in 0..256 {
            crate::registry::counter(&format!("obs.test.bulk_{i}_{bulk}"));
        }
        let server = IntrospectionServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let begun = Instant::now();

        let silent = TcpStream::connect(addr).expect("connect silent client");
        let mut never_reads = TcpStream::connect(addr).expect("connect never-reading client");
        write!(never_reads, "GET /snapshot HTTP/1.0\r\n\r\n").expect("request");

        let mut probe = TcpStream::connect(addr).expect("connect probe");
        probe
            .set_read_timeout(Some(Duration::from_secs(15)))
            .expect("probe timeout");
        write!(probe, "GET /health HTTP/1.0\r\n\r\n").expect("request");
        let mut response = String::new();
        probe
            .read_to_string(&mut response)
            .expect("the probe must be answered despite the stalled clients");
        assert!(response.starts_with("HTTP/1.0 "), "{response}");
        assert!(response.contains("\"status\""), "{response}");

        server.stop();
        assert!(
            begun.elapsed() < 3 * IO_DEADLINE + Duration::from_secs(2),
            "served and stopped in {:?}",
            begun.elapsed()
        );
        drop((silent, never_reads));
    }
}
