//! Hostile-client tests for the event-loop backend: slowloris header
//! trickle, oversized heads, partial-write backpressure on a tiny socket
//! buffer, and keep-alive pipelining.

#![cfg(target_os = "linux")]

use sqlgen_core::GenConfig;
use sqlgen_serve::client::{self, Client};
use sqlgen_serve::{serve, ServeConfig, ServerHandle};
use sqlgen_storage::gen::tpch_database;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SEED: u64 = 11;

fn start_server(config: ServeConfig) -> ServerHandle {
    let db = tpch_database(0.05, 2);
    let gen_config = GenConfig::fast().with_seed(SEED);
    let schema = sqlgen_serve::Schema::build("tpch", &db, &gen_config, None);
    serve(config, vec![schema]).expect("bind ephemeral port")
}

fn base_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        batch: 4,
        ..ServeConfig::default()
    }
}

/// Reads one full HTTP/1.1 response (status line, headers, sized body)
/// from a raw buffered stream. Returns `(status, body)`.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, String)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "closed before status line",
        ));
    }
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.trim().parse().ok())
        .expect("status line");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8(body).expect("utf-8 body")))
}

/// A client that dribbles one header byte at a time must be disconnected
/// once it exceeds the read deadline — and must not degrade service for
/// well-behaved connections sharing the loop.
#[test]
fn slowloris_header_trickle_is_closed_at_the_deadline() {
    let server = start_server(ServeConfig {
        read_timeout_ms: 300,
        ..base_config()
    });
    let addr = server.addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let head = b"GET /healthz HTTP/1.1\r\nhost: sqlgen\r\n\r\n";
    let started = Instant::now();
    let mut closed = false;
    for byte in head.iter() {
        if s.write_all(std::slice::from_ref(byte)).is_err() {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
        // A healthy request on a fresh connection keeps working while the
        // trickler is being starved out.
        if started.elapsed() > Duration::from_millis(200)
            && started.elapsed().as_millis().is_multiple_of(2)
        {
            let (status, _) = client::request(addr, "GET", "/healthz", None).unwrap();
            assert_eq!(status, 200);
        }
        if started.elapsed() > Duration::from_secs(5) {
            break;
        }
    }
    if !closed {
        // Writes may succeed into the kernel buffer after the server hangs
        // up; the read side observes the close (EOF or reset).
        let mut buf = [0u8; 64];
        closed = matches!(s.read(&mut buf), Ok(0) | Err(_));
    }
    assert!(closed, "slowloris connection was not closed");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "trickler survived far past the read deadline"
    );
    server.shutdown();
}

/// A head that never terminates is cut off at `max_head` with 413 — the
/// per-connection buffer is bounded, not grow-until-OOM.
#[test]
fn unterminated_giant_head_is_bounded_and_rejected() {
    let server = start_server(base_config());
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    // 64 KiB of header bytes with no terminating blank line — far past
    // the 8 KiB head budget.
    let filler = format!("x-filler: {}\r\n", "a".repeat(1022));
    for _ in 0..64 {
        if s.write_all(filler.as_bytes()).is_err() {
            break; // server already hung up — also a pass
        }
    }
    let mut resp = String::new();
    let _ = s.read_to_string(&mut resp);
    assert!(
        resp.is_empty() || resp.starts_with("HTTP/1.1 413"),
        "expected 413 or close, got {resp:?}"
    );
    server.shutdown();
}

/// With a tiny kernel send buffer the response cannot be written in one
/// syscall; the event loop must park the remainder behind EPOLLOUT and
/// finish once the client drains. The full body must still arrive intact.
#[test]
fn partial_write_backpressure_completes_large_responses() {
    let server = start_server(ServeConfig {
        sndbuf: Some(4_096),
        ..base_config()
    });
    let stream = TcpStream::connect(server.addr()).unwrap();
    {
        use std::os::fd::AsRawFd;
        // Shrink the client's receive window too so the in-flight data the
        // kernel will absorb stays well under the response size.
        let _ = sqlgen_serve::sys::set_recv_buffer(stream.as_raw_fd(), 4_096);
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let body = r#"{"constraint":{"min":1,"max":500},"n":192,"seed":9}"#;
    let msg = format!(
        "POST /generate HTTP/1.1\r\nhost: sqlgen\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    writer.write_all(msg.as_bytes()).unwrap();
    // Let the response land in the (tiny) socket buffers while we refuse
    // to read: the server's write stalls part-way and must resume.
    std::thread::sleep(Duration::from_millis(500));
    let mut reader = BufReader::new(stream);
    let (status, resp) = read_response(&mut reader).unwrap();
    assert_eq!(status, 200, "{resp}");
    let v = serde_json::from_str::<serde_json::Value>(&resp).unwrap();
    assert_eq!(
        v.get("queries").unwrap().as_array().unwrap().len(),
        192,
        "truncated or reordered body"
    );
    server.shutdown();
}

/// Three requests in a single write — two of them `/generate` with
/// different seeds — come back as three responses, in order, each
/// byte-identical to the same request issued alone.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = start_server(base_config());
    let addr = server.addr();
    let gen1 = r#"{"constraint":{"point":50},"n":1,"seed":1}"#;
    let gen2 = r#"{"constraint":{"point":50},"n":1,"seed":2}"#;

    // References, one request per connection.
    let (_, want1) = client::request(addr, "POST", "/generate", Some(gen1)).unwrap();
    let (_, want2) = client::request(addr, "POST", "/generate", Some(gen2)).unwrap();
    assert_ne!(want1, want2, "seeds must produce distinct responses");

    let mut pipelined = String::new();
    pipelined.push_str("GET /healthz HTTP/1.1\r\nhost: sqlgen\r\ncontent-length: 0\r\n\r\n");
    for body in [gen1, gen2] {
        pipelined.push_str(&format!(
            "POST /generate HTTP/1.1\r\nhost: sqlgen\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(pipelined.as_bytes()).unwrap();

    let mut reader = BufReader::new(stream);
    let (s0, b0) = read_response(&mut reader).unwrap();
    assert_eq!(s0, 200, "{b0}");
    assert!(b0.contains("ok"), "healthz first: {b0}");
    let (s1, b1) = read_response(&mut reader).unwrap();
    assert_eq!(s1, 200, "{b1}");
    assert_eq!(
        b1, want1,
        "first generate out of order or non-deterministic"
    );
    let (s2, b2) = read_response(&mut reader).unwrap();
    assert_eq!(s2, 200, "{b2}");
    assert_eq!(b2, want2, "second generate out of order");

    // And the same keep-alive connection still works for a follow-up.
    let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
    let (status, _) = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}
