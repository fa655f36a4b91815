//! A std-only HTTP/1.1 client: one request at a time on a persistent
//! connection, `content-length` and chunked responses, with the instants
//! a trace needs (request written, first byte, end of head, last byte).
//!
//! It sets no socket options beyond timeouts: the benchmark measures the
//! service as an ordinary client sees it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a single read may block before the request counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server announced `connection: close`.
    pub closes: bool,
    pub sent: Instant,
    pub first_byte: Instant,
    pub head_done: Instant,
    pub last_byte: Instant,
}

impl Reply {
    pub fn latency_ms(&self) -> f64 {
        crate::common::ms(self.sent, self.last_byte)
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// When the last response ended (or the connection opened).
    pub idle_since: Instant,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            idle_since: Instant::now(),
        })
    }

    /// Sends one request (head and body in a single write) and reads the
    /// whole response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> io::Result<Reply> {
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        let sent = Instant::now();
        self.writer.write_all(&request)?;

        let mut line = String::new();
        self.read_line(&mut line)?;
        let first_byte = Instant::now();
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = None;
        let mut chunked = false;
        let mut closes = false;
        loop {
            line.clear();
            self.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad(format!("bad header {header:?}")));
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = Some(value.parse::<usize>().map_err(|_| bad("bad length"))?)
                }
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => closes = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let head_done = Instant::now();
        let body = if chunked {
            self.read_chunked()?
        } else {
            let mut body = vec![0; length.ok_or_else(|| bad("no content-length"))?];
            self.reader.read_exact(&mut body)?;
            body
        };
        self.idle_since = Instant::now();
        Ok(Reply {
            status,
            body,
            closes,
            sent,
            first_byte,
            head_done,
            last_byte: self.idle_since,
        })
    }

    fn read_line(&mut self, line: &mut String) -> io::Result<()> {
        if self.reader.read_line(line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(())
    }

    fn read_chunked(&mut self) -> io::Result<Vec<u8>> {
        let mut body = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            self.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim().split(';').next().unwrap_or(""), 16)
                .map_err(|_| bad(format!("bad chunk size {line:?}")))?;
            if size == 0 {
                line.clear();
                self.read_line(&mut line)?;
                return Ok(body);
            }
            let start = body.len();
            body.resize(start + size + 2, 0);
            self.reader.read_exact(&mut body[start..])?;
            if &body[start + size..] != b"\r\n" {
                return Err(bad("chunk not followed by CRLF"));
            }
            body.truncate(start + size);
        }
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}
