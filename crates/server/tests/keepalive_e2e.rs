//! End-to-end tests for the persistent-connection path: keep-alive reuse,
//! pipelining, trickled bytes, `Connection: close`, idle timeout, the
//! connection cap, and framing-error hygiene — all over real loopback
//! sockets.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tane_server::{Server, ServerConfig};
use tane_util::Json;

/// One persistent client connection speaking HTTP/1.1.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One response as the client saw it.
struct Reply {
    status: u16,
    /// The `connection:` response header value.
    connection: String,
    /// The `deprecation:` response header value, set on legacy paths.
    deprecation: Option<String>,
    /// The `allow:` response header value, set on 405 responses.
    allow: Option<String>,
    body: Json,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Conn { stream, reader }
    }

    /// Writes one request; `close` adds `Connection: close`.
    fn send(&mut self, method: &str, path: &str, body: &[u8], close: bool) {
        let conn_header = if close { "connection: close\r\n" } else { "" };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\n{conn_header}content-length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes()).unwrap();
        self.stream.write_all(body).unwrap();
    }

    /// Reads exactly one framed response off the connection.
    fn recv(&mut self) -> Reply {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status: u16 = line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.get(..3))
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line: {line:?}"));
        let mut content_length = 0usize;
        let mut connection = String::new();
        let mut deprecation = None;
        let mut allow = None;
        loop {
            line.clear();
            self.reader.read_line(&mut line).expect("header line");
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => content_length = value.trim().parse().unwrap(),
                    "connection" => connection = value.trim().to_string(),
                    "deprecation" => deprecation = Some(value.trim().to_string()),
                    "allow" => allow = Some(value.trim().to_string()),
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        let text = String::from_utf8(body).expect("UTF-8 body");
        let body = Json::parse(&text).unwrap_or_else(|e| panic!("bad body ({e:?}): {text}"));
        Reply {
            status,
            connection,
            deprecation,
            allow,
            body,
        }
    }

    /// True once the server has closed its end (read returns EOF).
    fn at_eof(&mut self) -> bool {
        matches!(self.reader.read(&mut [0u8; 1]), Ok(0))
    }
}

const CSV: &[u8] = b"A,B,C\n1,x,10\n2,x,10\n3,y,20\n4,y,20\n";

/// The acceptance-criteria test: many sequential `/discover` + `/metrics`
/// requests over a single TCP connection, with `/metrics` proving reuse.
#[test]
fn one_connection_serves_many_requests() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut conn = Conn::open(addr);
    conn.send("POST", "/datasets/tiny", CSV, false);
    let up = conn.recv();
    assert_eq!(up.status, 200, "{:?}", up.body);
    assert_eq!(up.connection, "keep-alive");
    assert_eq!(
        up.deprecation.as_deref(),
        Some("true"),
        "legacy paths are deprecated aliases"
    );

    // ≥ 8 sequential requests on the same socket, alternating endpoints.
    for i in 0..5 {
        conn.send("POST", "/discover", br#"{"dataset":"tiny"}"#, false);
        let reply = conn.recv();
        assert_eq!(reply.status, 200, "request {i}: {:?}", reply.body);
        assert_eq!(reply.connection, "keep-alive");
        assert_eq!(reply.deprecation.as_deref(), Some("true"));
        if i > 0 {
            assert_eq!(reply.body.get("cached").unwrap().as_bool(), Some(true));
        }

        conn.send("GET", "/metrics", b"", false);
        let metrics = conn.recv();
        assert_eq!(metrics.status, 200);
        assert_eq!(metrics.connection, "keep-alive");
    }

    conn.send("GET", "/metrics", b"", true);
    let last = conn.recv();
    assert_eq!(last.connection, "close", "the final request opted out");
    assert!(
        conn.at_eof(),
        "server closes after honoring Connection: close"
    );

    let conns = last.body.get("connections").unwrap();
    let reused = conns.get("reused").unwrap().as_usize().unwrap();
    assert!(
        reused >= 10,
        "11 of 12 requests rode an existing connection, got {reused}"
    );
    assert!(conns.get("accepted").unwrap().as_usize().unwrap() >= 1);
    let requests = last.body.get("requests_total").unwrap().as_usize().unwrap();
    assert!(
        requests >= 12,
        "requests are counted per request, not per connection: {requests}"
    );

    server.shutdown();
    server.wait();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = Conn::open(server.local_addr());

    // Three requests in one write, before reading any response.
    let burst = b"GET /health HTTP/1.1\r\n\r\n\
                  GET /datasets HTTP/1.1\r\n\r\n\
                  GET /metrics HTTP/1.1\r\n\r\n";
    conn.stream.write_all(burst).unwrap();
    let first = conn.recv();
    assert_eq!(first.status, 200);
    assert_eq!(first.body.get("status").unwrap().as_str(), Some("ok"));
    let second = conn.recv();
    assert!(second.body.get("datasets").is_some(), "{:?}", second.body);
    let third = conn.recv();
    assert!(
        third.body.get("requests_total").is_some(),
        "{:?}",
        third.body
    );
    assert_eq!(
        third.body.get("requests_total").unwrap().as_usize(),
        Some(3)
    );

    server.shutdown();
    server.wait();
}

#[test]
fn trickled_request_bytes_still_parse() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = Conn::open(server.local_addr());

    for byte in b"GET /health HTTP/1.1\r\n\r\n" {
        conn.stream.write_all(&[*byte]).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let reply = conn.recv();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body.get("status").unwrap().as_str(), Some("ok"));

    server.shutdown();
    server.wait();
}

#[test]
fn idle_connections_are_disconnected() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut conn = Conn::open(server.local_addr());

    // The connection works, then goes quiet.
    conn.send("GET", "/health", b"", false);
    assert_eq!(conn.recv().status, 200);
    let start = std::time::Instant::now();
    conn.stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert!(conn.at_eof(), "server must hang up on an idle connection");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "and do so near the idle timeout"
    );

    server.shutdown();
    server.wait();
}

#[test]
fn request_cap_closes_the_connection() {
    let config = ServerConfig {
        max_requests_per_conn: 2,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut conn = Conn::open(server.local_addr());

    conn.send("GET", "/health", b"", false);
    assert_eq!(conn.recv().connection, "keep-alive");
    conn.send("GET", "/health", b"", false);
    let second = conn.recv();
    assert_eq!(second.status, 200);
    assert_eq!(second.connection, "close", "the cap closes the connection");
    assert!(conn.at_eof());

    server.shutdown();
    server.wait();
}

#[test]
fn connections_over_the_cap_are_shed_with_503() {
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // The one admitted connection stays open (keep-alive, active).
    let mut admitted = Conn::open(addr);
    admitted.send("GET", "/health", b"", false);
    assert_eq!(admitted.recv().status, 200);

    // Everything else bounces with 503 + Retry-After and a closed socket.
    let mut shed = Conn::open(addr);
    let reply = shed.recv();
    assert_eq!(reply.status, 503, "{:?}", reply.body);
    assert_eq!(reply.connection, "close");
    assert!(shed.at_eof());

    let mut headers_probe = Conn::open(addr);
    let raw = {
        let mut text = String::new();
        headers_probe.reader.read_to_string(&mut text).unwrap();
        text
    };
    assert!(raw.contains("retry-after: 1\r\n"), "{raw}");

    // The admitted connection still works and sees the shed count.
    admitted.send("GET", "/metrics", b"", false);
    let metrics = admitted.recv();
    let conns = metrics.body.get("connections").unwrap();
    assert!(
        conns.get("shed").unwrap().as_usize().unwrap() >= 2,
        "{:?}",
        conns
    );
    assert_eq!(conns.get("active").unwrap().as_usize(), Some(1));

    // Releasing the slot readmits new connections.
    admitted.send("GET", "/health", b"", true);
    assert_eq!(admitted.recv().connection, "close");
    assert!(admitted.at_eof());
    for _ in 0..50 {
        // The slot frees asynchronously with the handler thread.
        let mut retry = Conn::open(addr);
        retry.send("GET", "/health", b"", true);
        if retry.recv().status == 200 {
            server.shutdown();
            server.wait();
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("slot was never released");
}

/// The request-smuggling scenarios the parser bugfixes close off: a
/// chunked body and duplicate Content-Length are answered 501/400 and the
/// connection is closed, so the ambiguous trailing bytes can never be
/// parsed as a second request (here the smuggled payload is a
/// `POST /shutdown` that must NOT take effect).
#[test]
fn framing_errors_are_answered_then_the_connection_closes() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut chunked = Conn::open(addr);
    chunked
        .stream
        .write_all(
            b"POST /discover HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              1c\r\nPOST /shutdown HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
        )
        .unwrap();
    let reply = chunked.recv();
    assert_eq!(reply.status, 501, "{:?}", reply.body);
    assert_eq!(reply.connection, "close");
    assert!(
        chunked.at_eof(),
        "no desync: the smuggled bytes are never parsed"
    );

    let mut dup = Conn::open(addr);
    dup.stream
        .write_all(
            b"POST /discover HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 29\r\n\r\n\
              POST /shutdown HTTP/1.1\r\n\r\n",
        )
        .unwrap();
    let reply = dup.recv();
    assert_eq!(reply.status, 400, "{:?}", reply.body);
    assert_eq!(reply.connection, "close");
    assert!(dup.at_eof());

    // The smuggled shutdowns never happened: the server still answers.
    let mut probe = Conn::open(addr);
    probe.send("GET", "/health", b"", true);
    let health = probe.recv();
    assert_eq!(health.status, 200);
    assert_eq!(health.body.get("status").unwrap().as_str(), Some("ok"));

    server.shutdown();
    server.wait();
}

/// PATCH shares the persistent-connection framing with every other verb:
/// a row patch, a 404, and a 405 (with its Allow header) all ride one
/// keep-alive socket without desyncing the stream.
#[test]
fn patch_requests_frame_cleanly_on_a_persistent_connection() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = Conn::open(server.local_addr());

    conn.send("POST", "/v1/datasets/tiny", CSV, false);
    assert_eq!(conn.recv().status, 200);

    // A real row patch, framed like any other request.
    conn.send(
        "PATCH",
        "/v1/datasets/tiny/rows",
        br#"{"append":[["5","z","30"]],"delete":[0]}"#,
        false,
    );
    let patched = conn.recv();
    assert_eq!(patched.status, 200, "{:?}", patched.body);
    assert_eq!(patched.connection, "keep-alive");
    assert_eq!(patched.body.get("generation").unwrap().as_usize(), Some(1));
    assert_eq!(patched.body.get("rows").unwrap().as_usize(), Some(4));

    // PATCH on a path that isn't .../rows is an unknown endpoint.
    conn.send("PATCH", "/v1/datasets/tiny", b"{}", false);
    let wrong_path = conn.recv();
    assert_eq!(wrong_path.status, 404);
    assert_eq!(wrong_path.connection, "keep-alive");

    // An unroutable verb gets 405 plus the Allow header, and the
    // connection survives for the next request.
    conn.send("PUT", "/v1/discover", b"{}", false);
    let put = conn.recv();
    assert_eq!(put.status, 405, "{:?}", put.body);
    assert_eq!(put.allow.as_deref(), Some("POST"));
    assert_eq!(put.connection, "keep-alive");

    conn.send("DELETE", "/health", b"", false);
    let del = conn.recv();
    assert_eq!(del.status, 405);
    assert_eq!(del.allow.as_deref(), Some("GET"));

    conn.send("PUT", "/v1/datasets/tiny/rows", b"", false);
    let put_rows = conn.recv();
    assert_eq!(put_rows.status, 405);
    assert_eq!(put_rows.allow.as_deref(), Some("PATCH"));

    // Framing held throughout: the socket still answers normally.
    conn.send("GET", "/health", b"", true);
    let health = conn.recv();
    assert_eq!(health.status, 200);
    assert_eq!(health.body.get("status").unwrap().as_str(), Some("ok"));
    assert!(conn.at_eof());

    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_closes_persistent_connections_after_the_inflight_request() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = Conn::open(server.local_addr());
    conn.send("GET", "/health", b"", false);
    assert_eq!(conn.recv().connection, "keep-alive");

    server.shutdown();
    // The next request is still answered — drain, not drop — but the
    // response announces the close.
    conn.send("GET", "/health", b"", false);
    let reply = conn.recv();
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.connection, "close",
        "persistent handlers observe shutdown"
    );
    assert!(conn.at_eof());
    server.wait();
}

/// Sends `head` alone on a connection whose reads give up after 2 s, so a
/// server that never answers the expectation fails the test instead of
/// stalling it.
fn open_and_send_head(addr: SocketAddr, head: &str) -> Conn {
    let mut conn = Conn::open(addr);
    conn.stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    conn.stream.write_all(head.as_bytes()).unwrap();
    conn
}

/// `Expect: 100-continue` (RFC 9110 §10.1.1): the interim response
/// arrives before the client sends a byte of the body, the final answer
/// follows the body, and the connection stays usable.
#[test]
fn expect_continue_is_answered_before_the_body_is_sent() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let head = format!(
        "POST /v1/datasets/tiny HTTP/1.1\r\nhost: localhost\r\nexpect: 100-continue\r\ncontent-length: {}\r\n\r\n",
        CSV.len()
    );
    let mut conn = open_and_send_head(server.local_addr(), &head);
    let mut interim = String::new();
    conn.reader
        .read_line(&mut interim)
        .expect("100 Continue before the body");
    assert_eq!(interim, "HTTP/1.1 100 Continue\r\n");
    let mut blank = String::new();
    conn.reader.read_line(&mut blank).unwrap();
    assert_eq!(blank, "\r\n", "the interim response has no headers");

    conn.stream.write_all(CSV).unwrap();
    let up = conn.recv();
    assert_eq!(up.status, 200, "{:?}", up.body);
    assert_eq!(up.connection, "keep-alive");

    conn.send("POST", "/v1/discover", br#"{"dataset":"tiny"}"#, true);
    let found = conn.recv();
    assert_eq!(found.status, 200, "{:?}", found.body);
    assert!(found.body.get("fds").is_some(), "{:?}", found.body);

    server.shutdown();
    server.wait();
}

/// A declared length over the cap is refused with 413 before any body
/// byte is sent, and the connection closes.
#[test]
fn expect_continue_over_the_cap_gets_413_without_the_body() {
    let config = ServerConfig {
        max_body_bytes: 64,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut conn = open_and_send_head(
        server.local_addr(),
        "POST /v1/datasets/big HTTP/1.1\r\nhost: localhost\r\nexpect: 100-continue\r\ncontent-length: 4096\r\n\r\n",
    );
    let reply = conn.recv();
    assert_eq!(reply.status, 413, "{:?}", reply.body);
    assert_eq!(reply.connection, "close");
    assert!(conn.at_eof());

    server.shutdown();
    server.wait();
}

/// HTTP/1.0 has no interim responses: the expectation is ignored and the
/// first bytes back are the final response.
#[test]
fn expect_continue_is_ignored_on_http_10() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let head = format!(
        "POST /v1/datasets/tiny HTTP/1.0\r\nexpect: 100-continue\r\ncontent-length: {}\r\n\r\n",
        CSV.len()
    );
    let mut conn = open_and_send_head(server.local_addr(), &head);
    conn.stream.write_all(CSV).unwrap();
    let mut raw = String::new();
    conn.reader.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
    assert!(!raw.contains("100 Continue"), "{raw}");

    server.shutdown();
    server.wait();
}
