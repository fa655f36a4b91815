//! A minimal HTTP/1.1 server-side reader/writer over `std::net`.
//!
//! The offline build bars every external crate, so the service speaks the
//! wire protocol directly — the same spirit in which `tane-cli` hand-rolls
//! its flag parser. Only the subset the service needs is implemented:
//! `Content-Length` bodies, the `Expect: 100-continue` handshake, and
//! persistent connections (keep-alive is the HTTP/1.1 default,
//! `Connection: close` opts out; HTTP/1.0 clients must opt in). Chunked
//! transfer encoding on *requests* is rejected, not ignored: a body the
//! parser cannot frame would desync every later request on the same
//! connection, so `Transfer-Encoding` is answered 501 and duplicate
//! `Content-Length` headers 400. On *responses* the server
//! does emit `Transfer-Encoding: chunked` — [`ChunkedBody`] frames a body
//! of unknown length (the level-by-level `/v1/discover` stream) while
//! keeping the connection reusable: the terminating zero-length chunk
//! delimits the body, so keep-alive and pipelining work exactly as with
//! `Content-Length` responses. That subset is enough for `curl`, for the
//! test clients, and for anything speaking plain HTTP/1.1.

use std::io::{self, BufRead, Read, Write};
use tane_util::Json;

/// Upper bound on the request line + headers, independent of the body cap.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request: method, path, body, and connection disposition.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …, uppercase as received.
    pub method: String,
    /// The path component, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when the request has none).
    pub body: Vec<u8>,
    /// Whether the client permits another request on this connection:
    /// HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
    /// The `Content-Type` header's media type, lowercased, parameters
    /// (`; charset=…`) stripped. `None` when the header is absent.
    pub content_type: Option<String>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// Malformed request line, headers, or body framing (HTTP 400).
    Bad(String),
    /// Framing the parser refuses to guess at, e.g. `Transfer-Encoding`
    /// (HTTP 501).
    NotImplemented(String),
    /// Body or head exceeded the configured bound (HTTP 413).
    TooLarge,
    /// The connection was cleanly closed before any byte of this request —
    /// the normal end of a keep-alive connection. Nothing to answer.
    Closed,
    /// The read timed out before any byte of this request arrived — an
    /// idle keep-alive connection. Nothing to answer.
    Idle,
    /// Socket-level failure (including a timeout mid-request).
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// True for the error kinds a socket read timeout produces.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one request from `reader`, rejecting bodies over `max_body_bytes`.
///
/// `reader` is the connection's *persistent* buffered reader: bytes of a
/// pipelined follow-up request that arrive early stay buffered for the
/// next call. A timeout or EOF before the first byte of the request maps
/// to [`RequestError::Idle`] / [`RequestError::Closed`]; either one after
/// the first byte is a hard error, because the stream position is now
/// unknowable and reuse would desync.
///
/// `writer` is the same connection's write half. An HTTP/1.1 head that
/// carries `Expect: 100-continue` and a non-empty body within the cap is
/// answered `100 Continue` on it before the body is read (RFC 9110
/// §10.1.1): clients such as curl hold the body back until that interim
/// response arrives or their own timer runs out. An over-cap declared
/// length is refused before any body byte instead, and HTTP/1.0 requests
/// ignore the expectation, as the RFC requires.
pub fn read_request<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    max_body_bytes: usize,
) -> Result<Request, RequestError> {
    let mut raw = Vec::new();
    let mut line = String::new();
    match take_line(reader, &mut raw, &mut line) {
        Ok(()) => {}
        Err(RequestError::Io(e)) if is_timeout(&e) && raw.is_empty() => {
            return Err(RequestError::Idle)
        }
        Err(e) => return Err(e),
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Bad("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Bad("missing request target".into()))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Bad(format!(
            "unsupported version {version:?}"
        )));
    }
    let http_10 = version == "HTTP/1.0";
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length: Option<usize> = None;
    let mut content_type: Option<String> = None;
    let mut conn_close = false;
    let mut conn_keep_alive = false;
    let mut expect_continue = false;
    let mut head_bytes = line.len();
    loop {
        line.clear();
        match take_line(reader, &mut raw, &mut line) {
            Ok(()) => {}
            Err(RequestError::Closed) => {
                return Err(RequestError::Bad("connection closed mid-headers".into()))
            }
            Err(e) => return Err(e),
        }
        if line.is_empty() {
            break;
        }
        head_bytes += line.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(RequestError::TooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n = value
                .trim()
                .parse()
                .map_err(|_| RequestError::Bad(format!("bad content-length {value:?}")))?;
            // Duplicate Content-Length — even two equal copies — is the
            // classic request-smuggling ambiguity; refuse outright.
            if let Some(prev) = content_length.replace(n) {
                return Err(RequestError::Bad(format!(
                    "duplicate content-length headers ({prev} and {n})"
                )));
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Silently treating a chunked body as empty would leave the
            // chunks on the wire to be parsed as the "next request".
            return Err(RequestError::NotImplemented(format!(
                "transfer-encoding {:?} not supported; use content-length",
                value.trim()
            )));
        } else if name.eq_ignore_ascii_case("content-type") {
            let media = value
                .split(';')
                .next()
                .unwrap_or("")
                .trim()
                .to_ascii_lowercase();
            if !media.is_empty() {
                content_type = Some(media);
            }
        } else if name.eq_ignore_ascii_case("expect") {
            expect_continue |= value.trim().eq_ignore_ascii_case("100-continue");
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                conn_close |= token.eq_ignore_ascii_case("close");
                conn_keep_alive |= token.eq_ignore_ascii_case("keep-alive");
            }
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > max_body_bytes {
        return Err(RequestError::TooLarge);
    }
    if expect_continue && !http_10 && content_length > 0 {
        writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        writer.flush()?;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let keep_alive = !conn_close && (!http_10 || conn_keep_alive);
    Ok(Request {
        method,
        path,
        body,
        keep_alive,
        content_type,
    })
}

/// Reads one LF-terminated line into `line`, stripping the `\n` and exactly
/// one optional `\r` before it — a header value may legitimately *end* in a
/// bare CR, and swallowing it would change where the header block ends.
///
/// `raw` is the caller's scratch buffer: on error it holds whatever bytes
/// were consumed before the failure, so the caller can distinguish "nothing
/// arrived" (idle / clean close) from "died mid-line" (desync).
fn take_line<R: BufRead>(
    reader: &mut R,
    raw: &mut Vec<u8>,
    line: &mut String,
) -> Result<(), RequestError> {
    raw.clear();
    let n = reader
        .by_ref()
        .take(MAX_HEAD_BYTES as u64 + 2)
        .read_until(b'\n', raw)?;
    if n == 0 {
        return Err(RequestError::Closed);
    }
    if !raw.ends_with(b"\n") {
        return if raw.len() >= MAX_HEAD_BYTES + 2 {
            Err(RequestError::TooLarge)
        } else {
            Err(RequestError::Bad("connection closed mid-request".into()))
        };
    }
    raw.pop();
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    *line = String::from_utf8(std::mem::take(raw))
        .map_err(|_| RequestError::Bad("non-UTF-8 header".into()))?;
    Ok(())
}

/// One response; the caller decides whether the connection persists.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes; `Content-Type: application/json` unless overridden.
    pub body: Vec<u8>,
    /// Extra headers, e.g. `Retry-After`.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, value: &Json) -> Response {
        Response {
            status,
            body: value.render().into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// The *legacy* error shape: `{"error": message}`. Unversioned routes
    /// answer with this byte-for-byte (clients parse it), as do
    /// connection-level failures that happen before routing (framing
    /// errors, oversized bodies, the connection cap).
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            &Json::obj([("error", Json::Str(message.to_string()))]),
        )
    }

    /// The `/v1` error envelope:
    /// `{"error":{"code":"<stable-slug>","message":"…"}}`. `code` is a
    /// machine-matchable slug that is part of the API contract; `message`
    /// is human-oriented and may change between releases.
    pub fn error_envelope(status: u16, code: &str, message: &str) -> Response {
        Response::json(
            status,
            &Json::obj([(
                "error",
                Json::obj([
                    ("code", Json::Str(code.to_string())),
                    ("message", Json::Str(message.to_string())),
                ]),
            )]),
        )
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers
            .push((name.to_string(), value.to_string()));
        self
    }

    /// Serializes the response onto `stream`. `keep_alive` names the
    /// *server's* decision for this connection and is announced in the
    /// `connection:` header so well-behaved clients agree on it.
    pub fn write_to<W: Write>(&self, stream: &mut W, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// A streaming response body using HTTP/1.1 chunked transfer encoding.
///
/// Created by [`ChunkedBody::start`], which writes the response head with
/// `transfer-encoding: chunked` (and *no* `content-length`). Each
/// [`write_chunk`](ChunkedBody::write_chunk) emits one complete chunk and
/// flushes — streaming only helps if bytes actually leave the process —
/// and [`finish`](ChunkedBody::finish) writes the terminating zero-length
/// chunk that delimits the body, which is what keeps the connection
/// reusable afterwards. Dropping the writer without `finish()` leaves the
/// body unterminated; the caller must close the connection in that case
/// (a truncated chunked body is how HTTP signals "this stream died").
#[derive(Debug)]
pub struct ChunkedBody<'a, W: Write> {
    stream: &'a mut W,
    payload_bytes: u64,
}

impl<'a, W: Write> ChunkedBody<'a, W> {
    /// Writes the head of a chunked response and returns the body writer.
    /// `keep_alive` is announced in the `connection:` header exactly as in
    /// [`Response::write_to`]; chunked framing is compatible with both
    /// dispositions.
    pub fn start(
        stream: &'a mut W,
        status: u16,
        extra_headers: &[(String, String)],
        keep_alive: bool,
    ) -> io::Result<ChunkedBody<'a, W>> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\nconnection: {}\r\n",
            status,
            status_text(status),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedBody {
            stream,
            payload_bytes: 0,
        })
    }

    /// Writes one chunk (size line, payload, CRLF) and flushes it onto the
    /// wire. Empty payloads are skipped — a zero-length chunk would
    /// terminate the body.
    pub fn write_chunk(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.is_empty() {
            return Ok(());
        }
        self.stream
            .write_all(format!("{:x}\r\n", payload.len()).as_bytes())?;
        self.stream.write_all(payload)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()?;
        self.payload_bytes += payload.len() as u64;
        Ok(())
    }

    /// Payload bytes written so far (chunk contents, not framing).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Terminates the body with the zero-length chunk, returning the total
    /// payload bytes streamed. After this the connection is in a clean
    /// state for the next request.
    pub fn finish(self) -> io::Result<u64> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()?;
        Ok(self.payload_bytes)
    }
}

/// The reason phrase for `status`. Unmapped codes get a non-empty
/// placeholder: an empty phrase would put a bare trailing space on the
/// status line, which some clients reject as malformed.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        415 => "Unsupported Media Type",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        507 => "Insufficient Storage",
        _ => "Status",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    /// Parses `raw` as the bytes of one connection; `read_request` is
    /// generic over `BufRead`, so no socket is needed.
    fn parse(raw: &[u8], max_body: usize) -> Result<Request, RequestError> {
        read_request(&mut Cursor::new(raw.to_vec()), &mut io::sink(), max_body)
    }

    #[test]
    fn parses_get() {
        let r = parse(b"GET /metrics?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n", 1024).unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/metrics");
        assert!(r.body.is_empty());
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse(
            b"POST /discover HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
            1024,
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"{\"a\":1}");
    }

    #[test]
    fn connection_header_decides_persistence() {
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 64).unwrap();
        assert!(!close.keep_alive);
        let mixed = parse(
            b"GET / HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n",
            64,
        )
        .unwrap();
        assert!(!mixed.keep_alive, "close wins when both tokens appear");
        let old = parse(b"GET / HTTP/1.0\r\n\r\n", 64).unwrap();
        assert!(!old.keep_alive, "HTTP/1.0 defaults to close");
        let old_keep = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 64).unwrap();
        assert!(old_keep.keep_alive, "HTTP/1.0 may opt in");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let two = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyzGET /b HTTP/1.1\r\n\r\n";
        let mut reader = Cursor::new(two.to_vec());
        let first = read_request(&mut reader, &mut io::sink(), 1024).unwrap();
        assert_eq!(
            (first.path.as_str(), first.body.as_slice()),
            ("/a", &b"xyz"[..])
        );
        let second = read_request(&mut reader, &mut io::sink(), 1024).unwrap();
        assert_eq!(second.path, "/b");
        assert!(
            matches!(
                read_request(&mut reader, &mut io::sink(), 1024),
                Err(RequestError::Closed)
            ),
            "clean EOF between requests is Closed, not Bad"
        );
    }

    #[test]
    fn rejects_transfer_encoding_as_unimplemented() {
        let e = parse(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            1024,
        )
        .unwrap_err();
        assert!(matches!(e, RequestError::NotImplemented(_)), "{e:?}");
    }

    #[test]
    fn rejects_duplicate_content_length() {
        // Conflicting values.
        let e = parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde",
            1024,
        )
        .unwrap_err();
        assert!(matches!(e, RequestError::Bad(_)), "{e:?}");
        // Even equal duplicates are refused — the ambiguity is the attack.
        let e = parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
            1024,
        )
        .unwrap_err();
        assert!(matches!(e, RequestError::Bad(_)), "{e:?}");
    }

    #[test]
    fn take_line_strips_exactly_one_cr() {
        let mut reader = Cursor::new(b"value\r\r\n\r\nbare-lf\n".to_vec());
        let (mut raw, mut line) = (Vec::new(), String::new());
        take_line(&mut reader, &mut raw, &mut line).unwrap();
        assert_eq!(
            line, "value\r",
            "only the final CR belongs to the terminator"
        );
        take_line(&mut reader, &mut raw, &mut line).unwrap();
        assert_eq!(line, "", "a true CRLF line is still the header terminator");
        take_line(&mut reader, &mut raw, &mut line).unwrap();
        assert_eq!(line, "bare-lf", "lenient bare-LF lines still parse");
    }

    #[test]
    fn rejects_oversized_body_without_reading_it() {
        let e = parse(b"POST /x HTTP/1.1\r\nContent-Length: 999999\r\n\r\n", 128).unwrap_err();
        assert!(matches!(e, RequestError::TooLarge));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(parse(b"\r\n\r\n", 128), Err(RequestError::Bad(_))));
        assert!(matches!(
            parse(b"GET\r\n\r\n", 128),
            Err(RequestError::Bad(_))
        ));
        assert!(matches!(
            parse(b"GET / SPDY/9\r\n\r\n", 128),
            Err(RequestError::Bad(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 128),
            Err(RequestError::Bad(_))
        ));
        assert!(
            matches!(
                parse(b"GET / HTTP/1.1\r\nHost: x", 128),
                Err(RequestError::Bad(_))
            ),
            "EOF mid-line is a hard error, not a clean close"
        );
    }

    #[test]
    fn idle_and_closed_are_distinguished_on_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // A connected client that sends nothing: the read times out ⇒ Idle.
        let quiet = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        accepted
            .set_read_timeout(Some(Duration::from_millis(40)))
            .unwrap();
        let mut reader = std::io::BufReader::new(accepted);
        assert!(matches!(
            read_request(&mut reader, &mut io::sink(), 128),
            Err(RequestError::Idle)
        ));

        // The client hangs up without sending anything ⇒ Closed.
        drop(quiet);
        assert!(matches!(
            read_request(&mut reader, &mut io::sink(), 128),
            Err(RequestError::Closed)
        ));
    }

    #[test]
    fn response_wire_format() {
        let mut wire = Vec::new();
        Response::json(429, &Json::obj([("error", Json::Str("queue full".into()))]))
            .with_header("retry-after", "1")
            .write_to(&mut wire, false)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));

        let mut wire = Vec::new();
        Response::json(200, &Json::Null)
            .write_to(&mut wire, true)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
    }

    #[test]
    fn content_type_is_parsed_and_normalized() {
        let r = parse(
            b"POST /x HTTP/1.1\r\nContent-Type: Application/JSON; charset=utf-8\r\n\r\n",
            64,
        )
        .unwrap();
        assert_eq!(r.content_type.as_deref(), Some("application/json"));
        let r = parse(b"GET / HTTP/1.1\r\n\r\n", 64).unwrap();
        assert_eq!(r.content_type, None);
    }

    #[test]
    fn error_envelope_shape() {
        let body = Response::error_envelope(404, "unknown-dataset", "no such dataset `x`").body;
        let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("unknown-dataset"));
        assert_eq!(
            err.get("message").unwrap().as_str(),
            Some("no such dataset `x`")
        );
    }

    #[test]
    fn chunked_body_wire_format() {
        let mut wire = Vec::new();
        let mut body = ChunkedBody::start(&mut wire, 200, &[], true).unwrap();
        body.write_chunk(b"{\"level\":1}\n").unwrap();
        body.write_chunk(b"").unwrap(); // skipped: would terminate the body
        body.write_chunk(b"{\"level\":2}\n").unwrap();
        assert_eq!(body.payload_bytes(), 24);
        let total = body.finish().unwrap();
        assert_eq!(total, 24);
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        assert!(text.contains("content-type: application/x-ndjson\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(
            !text.contains("content-length"),
            "chunked bodies carry no content-length"
        );
        let payload = text.split_once("\r\n\r\n").unwrap().1;
        assert_eq!(
            payload,
            "c\r\n{\"level\":1}\n\r\nc\r\n{\"level\":2}\n\r\n0\r\n\r\n"
        );
    }

    #[test]
    fn unmapped_status_codes_get_a_nonempty_reason() {
        let mut wire = Vec::new();
        Response::json(418, &Json::Null)
            .write_to(&mut wire, false)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 418 Status\r\n"),
            "no trailing-space status line: {text}"
        );
        assert_eq!(status_text(501), "Not Implemented");
        assert_eq!(status_text(503), "Service Unavailable");
    }
}
