//! Hostile-input hardening of the HTTP layer, over real sockets: a
//! live [`Server`] fed raw bytes a well-behaved client would never
//! send. Each abuse must come back as the *right* typed status — 431
//! oversized head, 413 oversized declared body, 400 truncated body,
//! garbage request line or over-nested JSON body, 408 silent peer —
//! and, the part that matters, the worker must survive to serve a clean
//! request immediately after.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use icicle_serve::http::{MAX_BODY_BYTES, MAX_HEAD_BYTES};
use icicle_serve::{AnalysisService, Client, SchedulerConfig, Server, ServerConfig, ServiceConfig};

/// One shared server for the whole file: every test throws its abuse
/// at the same worker pool and then proves the pool still answers.
struct Fixture {
    addr: SocketAddr,
    dir: PathBuf,
}

fn fixture() -> &'static Fixture {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("icicle-http-hardening-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Arc::new(
            AnalysisService::open(ServiceConfig {
                data_dir: dir.clone(),
                jobs: 1,
                executors: 1,
                scheduler: SchedulerConfig::default(),
            })
            .unwrap(),
        );
        let _executors = service.start();
        let config = ServerConfig {
            read_deadline: Some(Duration::from_millis(250)),
            ..ServerConfig::default()
        };
        let server = Server::bind_with(service, "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        Fixture { addr, dir }
    })
}

/// Sends raw bytes and returns the status line of whatever comes back
/// (empty if the server just closed the connection).
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The peer may answer-and-close before consuming everything we
    // send (an oversized body, say) — a write error is part of the
    // abuse, not a test failure.
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let text = String::from_utf8_lossy(&response);
    text.lines().next().unwrap_or("").to_string()
}

/// The liveness probe every abuse is followed by: the same worker pool
/// must serve a clean request.
fn assert_still_serving(addr: SocketAddr) {
    let client = Client::new(addr.to_string());
    assert!(client.health(), "worker died on hostile input");
}

#[test]
fn garbage_request_line_is_400() {
    let f = fixture();
    let status = send_raw(f.addr, b"NOT EVEN HTTP\r\n\r\n");
    assert!(status.contains("400"), "got: {status}");
    assert_still_serving(f.addr);
}

#[test]
fn oversized_head_is_431() {
    let f = fixture();
    let head = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "y".repeat(MAX_HEAD_BYTES)
    );
    let status = send_raw(f.addr, head.as_bytes());
    assert!(status.contains("431"), "got: {status}");
    assert_still_serving(f.addr);
}

#[test]
fn oversized_declared_body_is_413() {
    let f = fixture();
    let head = format!(
        "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    let status = send_raw(f.addr, head.as_bytes());
    assert!(status.contains("413"), "got: {status}");
    assert_still_serving(f.addr);
}

#[test]
fn truncated_body_is_400() {
    let f = fixture();
    // Declares 100 bytes, delivers 10, then closes: a malformed
    // request, answered 400 (the peer is still there to read it).
    let status = send_raw(
        f.addr,
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\nten bytes!",
    );
    assert!(status.contains("400"), "got: {status}");
    assert_still_serving(f.addr);
}

#[test]
fn deeply_nested_body_is_400() {
    let f = fixture();
    // A megabyte of `[`: the JSON parser must refuse the nesting with
    // an error (400), not recurse until the connection thread's stack
    // overflows and aborts the server.
    let body = "[".repeat(1 << 20);
    let request = format!(
        "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let status = send_raw(f.addr, request.as_bytes());
    assert!(status.contains("400"), "got: {status}");
    assert_still_serving(f.addr);
}

#[test]
fn silent_peer_is_cut_with_408() {
    let f = fixture();
    // Connect and say nothing: the pre-hardening server parked a
    // worker on this forever. Now the read deadline trips and the
    // worker answers 408 before hanging up.
    let mut stream = TcpStream::connect(f.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let status_line = String::from_utf8_lossy(&response)
        .lines()
        .next()
        .unwrap_or("")
        .to_string();
    assert!(status_line.contains("408"), "got: {status_line}");
    assert_still_serving(f.addr);
}

#[test]
fn half_sent_head_also_trips_the_deadline() {
    let f = fixture();
    // A slowloris opener: part of a request line, then silence.
    let mut stream = TcpStream::connect(f.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"GET /healthz HT").unwrap();
    stream.flush().unwrap();
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let status_line = String::from_utf8_lossy(&response)
        .lines()
        .next()
        .unwrap_or("")
        .to_string();
    assert!(status_line.contains("408"), "got: {status_line}");
    assert_still_serving(f.addr);
}

#[test]
fn zz_cleanup_tempdir() {
    // Runs last alphabetically under the default test harness; purely
    // best-effort hygiene for the shared fixture's data dir.
    let f = fixture();
    assert_still_serving(f.addr);
    let _ = std::fs::remove_dir_all(&f.dir);
}
