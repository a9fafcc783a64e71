//! A minimal, dependency-free HTTP/1.1 layer over [`std::net`].
//!
//! Supports what the service needs: request-line + header parsing,
//! `Content-Length` bodies, and **persistent connections** — a
//! [`Conn`] wraps one [`TcpStream`] and reads any number of requests
//! through one buffer, so bytes a client pipelined ahead of our
//! response are never dropped between requests. Keep-alive is
//! negotiated per request ([`Request::wants_keep_alive`]: HTTP/1.1
//! defaults on, HTTP/1.0 off, `Connection: close` / `keep-alive`
//! override), and the server bounds both the requests served per
//! connection and the idle gap between them (`ServeConfig`). Hard
//! limits on the header block and body size keep a misbehaving client
//! from ballooning memory, and every request is read under an
//! absolute wall-clock deadline — a slow-trickle client cannot hold a
//! handler thread past it.
//!
//! The write contract: [`write_response`] sends each response — status
//! line, headers and body — in one `write_all` of one buffer. Written
//! as a head and then a body, the body would wait on Nagle's algorithm
//! until the client's delayed ACK of the head, ~43 ms on every
//! kept-alive response. The connection loop writes under a deadline
//! equal to the keep-alive idle deadline, so a client that stops
//! reading cannot hold a handler thread in `write` either.

use std::cell::Cell;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Largest accepted header block (request line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted request body in bytes.
pub const MAX_BODY: usize = 1024 * 1024;
/// Total wall-clock budget for reading one request. Enforced as a
/// deadline across every read, not per `recv` — a slow-trickle
/// client (one byte per few seconds) cannot hold a handler thread
/// past this.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Raw query string (empty when absent).
    pub query: String,
    /// `false` only for `HTTP/1.0` (which defaults to one request per
    /// connection); `HTTP/1.1` defaults to keep-alive.
    pub http_11: bool,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn body_text(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::bad("body is not valid UTF-8"))
    }

    /// The value of one query-string parameter (`?shard=3`), or
    /// `None` when absent.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }

    /// Whether the client asked to keep the connection open:
    /// `Connection: close` always closes, `Connection: keep-alive`
    /// always keeps, otherwise the HTTP-version default applies
    /// (1.1 keeps, 1.0 closes). `close` wins over `keep-alive` when a
    /// confused client sends both tokens.
    pub fn wants_keep_alive(&self) -> bool {
        let mut close = false;
        let mut keep = false;
        if let Some(v) = self.header("connection") {
            for token in v.split(',') {
                match token.trim().to_ascii_lowercase().as_str() {
                    "close" => close = true,
                    "keep-alive" => keep = true,
                    _ => {}
                }
            }
        }
        !close && (keep || self.http_11)
    }
}

/// A protocol-level failure while reading a request; carries the
/// status code the client should see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status to report (4xx).
    pub status: u16,
    /// Human-readable reason.
    pub message: String,
}

impl HttpError {
    /// A 400 Bad Request.
    pub fn bad(message: impl Into<String>) -> Self {
        Self { status: 400, message: message.into() }
    }
}

/// Every status an [`HttpError`] from [`Conn::read_request`] carries,
/// with the `kind` label it counts under on
/// `nanoleak_server_protocol_errors_total`.
pub const ERROR_KINDS: [(u16, &str); 5] = [
    (400, "malformed"),
    (408, "timeout"),
    (413, "body_too_large"),
    (431, "header_too_large"),
    (505, "version"),
];

/// Per-request read state shared between [`Conn`] and the reader it
/// feeds its `BufReader` from: an absolute deadline (re-armed as the
/// socket timeout before every `recv`), a byte budget, and whether
/// any socket bytes arrived for the current request (distinguishes an
/// idle keep-alive close from a stalled partial request).
#[derive(Debug)]
struct ReadState {
    deadline: Cell<Instant>,
    remaining: Cell<u64>,
    got_bytes: Cell<bool>,
}

/// The [`Read`] half of a [`Conn`]: enforces the deadline and budget
/// of [`ReadState`] on every socket read.
struct ConnRead<'a> {
    stream: &'a TcpStream,
    state: Rc<ReadState>,
}

impl Read for ConnRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.state.remaining.get();
        if remaining == 0 {
            return Ok(0); // budget exhausted: EOF to the parser
        }
        let cap = buf.len().min(usize::try_from(remaining).unwrap_or(usize::MAX));
        let left = self
            .state
            .deadline
            .get()
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::TimedOut, "read deadline exceeded")
            })?;
        let _ = self.stream.set_read_timeout(Some(left));
        let n = Read::read(&mut &*self.stream, &mut buf[..cap])?;
        if n > 0 {
            self.state.got_bytes.set(true);
            self.state.remaining.set(remaining - n as u64);
        }
        Ok(n)
    }
}

/// One server side of a TCP connection, able to read a sequence of
/// requests through a single persistent buffer.
///
/// The buffer outliving each request is what makes pipelining safe: a
/// client that sends request N+1 before reading response N may get
/// its bytes pulled into our buffer early, and a per-request reader
/// would drop them on return.
pub struct Conn<'a> {
    stream: &'a TcpStream,
    reader: BufReader<ConnRead<'a>>,
    state: Rc<ReadState>,
}

impl<'a> Conn<'a> {
    /// Wraps a stream. No bytes are read until
    /// [`Conn::read_request`].
    pub fn new(stream: &'a TcpStream) -> Self {
        let state = Rc::new(ReadState {
            deadline: Cell::new(Instant::now()),
            remaining: Cell::new(0),
            got_bytes: Cell::new(false),
        });
        Self {
            stream,
            reader: BufReader::new(ConnRead { stream, state: Rc::clone(&state) }),
            state,
        }
    }

    /// Reads one request, spending at most `timeout` of wall clock on
    /// it. Returns `Ok(None)` when the connection is over without an
    /// error to report: a clean EOF, or `timeout` elapsing before the
    /// first byte of a next request (the keep-alive idle deadline).
    /// A *partial* request hitting the deadline is a 408 error — the
    /// slow-loris case, distinct from simple idleness.
    pub fn read_request(&mut self, timeout: Duration) -> Result<Option<Request>, HttpError> {
        self.state.deadline.set(Instant::now() + timeout);
        // Hard byte budget for the whole request. `read_line` buffers
        // until it sees a newline; without this cap a client
        // streaming newline-free bytes would grow that buffer
        // unboundedly before the per-line length checks ever ran.
        self.state.remaining.set((MAX_HEAD + MAX_BODY + 1024) as u64);
        self.state.got_bytes.set(false);

        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => return Ok(None),
            Ok(_) => {}
            Err(e) => {
                let timed_out = matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                );
                // Idle between requests (no bytes at all): a quiet
                // close, not a client error.
                if timed_out && !self.state.got_bytes.get() && line.is_empty() {
                    return Ok(None);
                }
                return Err(read_failure(&e, "request line"));
            }
        }
        if line.len() > MAX_HEAD {
            return Err(HttpError::bad("request line too long"));
        }
        let mut parts = line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(HttpError::bad("malformed request line"));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError { status: 505, message: format!("unsupported {version}") });
        }
        let http_11 = version != "HTTP/1.0";
        let method = method.to_ascii_uppercase();
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };

        let mut headers = Vec::new();
        let mut head_bytes = line.len();
        loop {
            let mut hline = String::new();
            match self.reader.read_line(&mut hline) {
                Ok(0) => return Err(HttpError::bad("connection closed mid-headers")),
                Ok(n) => head_bytes += n,
                Err(e) => return Err(read_failure(&e, "headers")),
            }
            if head_bytes > MAX_HEAD {
                return Err(HttpError { status: 431, message: "header block too large".into() });
            }
            let trimmed = hline.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                break;
            }
            let Some((name, value)) = trimmed.split_once(':') else {
                return Err(HttpError::bad(format!("malformed header '{trimmed}'")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
            None => 0,
            Some((_, v)) => {
                v.parse::<usize>().map_err(|_| HttpError::bad("malformed Content-Length"))?
            }
        };
        if content_length > MAX_BODY {
            return Err(HttpError { status: 413, message: "body too large".into() });
        }
        let mut body = vec![0u8; content_length];
        if content_length > 0 {
            self.reader.read_exact(&mut body).map_err(|e| match e.kind() {
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                    HttpError { status: 408, message: "deadline exceeded reading body".into() }
                }
                _ => HttpError::bad("connection closed mid-body"),
            })?;
        }
        Ok(Some(Request { method, path, query, http_11, headers, body }))
    }

    /// The wrapped stream (for writing responses).
    pub fn stream(&self) -> &TcpStream {
        self.stream
    }

    /// Whether bytes a client pipelined ahead are already sitting in
    /// the parse buffer. Used by the connection loop to tell "client
    /// pipelined past the per-connection request bound" (answer 429)
    /// from a plain bound-reached close.
    pub fn has_buffered(&self) -> bool {
        !self.reader.buffer().is_empty()
    }
}

/// Maps a failed head read to the status the client should see.
fn read_failure(e: &std::io::Error, what: &str) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            HttpError { status: 408, message: format!("deadline exceeded reading {what}") }
        }
        _ => HttpError::bad(format!("could not read {what}")),
    }
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content type (defaults to `application/json`).
    pub content_type: &'static str,
    /// Body text.
    pub body: String,
    /// Request id echoed as an `X-Request-Id` header when set (the
    /// connection loop stamps it after routing).
    pub request_id: Option<String>,
    /// Seconds for a `Retry-After` header, emitted when set (load
    /// shedding: 503 on a saturated queue, 429 on per-connection
    /// excess).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into(),
            request_id: None,
            retry_after: None,
        }
    }

    /// A plain-text response (Prometheus exposition, health probes).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into(),
            request_id: None,
            retry_after: None,
        }
    }

    /// Stamps a `Retry-After` hint (seconds) on the response.
    #[must_use]
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "",
    }
}

/// Writes `response` to `out` (callers pass `&stream`) in a single
/// `write_all` of one buffer — the write contract in the module docs.
/// `close` selects the `Connection:` header the client sees — it must
/// match what the server actually does next (close the socket, or
/// loop for another request).
pub fn write_response(
    mut out: impl Write,
    response: &Response,
    close: bool,
) -> std::io::Result<()> {
    let mut wire = String::with_capacity(256 + response.body.len());
    let _ = write!(
        wire,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
    );
    if let Some(id) = &response.request_id {
        let _ = write!(wire, "X-Request-Id: {id}\r\n");
    }
    if let Some(seconds) = response.retry_after {
        let _ = write!(wire, "Retry-After: {seconds}\r\n");
    }
    let _ = write!(wire, "Connection: {}\r\n\r\n", if close { "close" } else { "keep-alive" });
    wire.push_str(&response.body);
    out.write_all(wire.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Runs the parser against raw bytes through a real socket pair.
    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        Conn::new(&server_side).read_request(READ_TIMEOUT)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /v1/estimate?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\n{\"a\"")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/estimate", "query string stripped");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("nope"), None);
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"{\"a\"");
        assert!(req.http_11);
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn two_requests_flow_through_one_conn() {
        // Both requests are pipelined before the first read: the
        // persistent buffer must hand them over one at a time without
        // losing the second.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut conn = Conn::new(&server_side);
        let a = conn.read_request(READ_TIMEOUT).unwrap().unwrap();
        let b = conn.read_request(READ_TIMEOUT).unwrap().unwrap();
        assert_eq!((a.path.as_str(), b.path.as_str()), ("/a", "/b"));
        assert!(conn.read_request(READ_TIMEOUT).unwrap().is_none(), "then clean EOF");
    }

    #[test]
    fn idle_timeout_is_quiet_but_partial_request_is_408() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // Connected but silent: the idle deadline closes quietly.
        let _idle_client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let got = Conn::new(&server_side).read_request(Duration::from_millis(80)).unwrap();
        assert!(got.is_none(), "idle connection closes without an error");

        // A stalled partial request is a client error, not idleness.
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /healthz HTT").unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let err = Conn::new(&server_side).read_request(Duration::from_millis(80)).unwrap_err();
        assert_eq!(err.status, 408, "{err:?}");
    }

    #[test]
    fn keep_alive_negotiation() {
        let req = |version: &str, connection: Option<&str>| Request {
            method: "GET".into(),
            path: "/".into(),
            query: String::new(),
            http_11: version == "1.1",
            headers: connection.map(|c| ("connection".into(), c.into())).into_iter().collect(),
            body: Vec::new(),
        };
        assert!(req("1.1", None).wants_keep_alive(), "1.1 defaults on");
        assert!(!req("1.0", None).wants_keep_alive(), "1.0 defaults off");
        assert!(!req("1.1", Some("close")).wants_keep_alive());
        assert!(req("1.0", Some("keep-alive")).wants_keep_alive());
        assert!(req("1.0", Some("Keep-Alive")).wants_keep_alive(), "case-insensitive");
        assert!(!req("1.1", Some("keep-alive, close")).wants_keep_alive(), "close wins");
    }

    #[test]
    fn malformed_inputs_are_4xx() {
        assert_eq!(parse(b"BROKEN\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse(b"GET / SMTP/1.0\r\n\r\n").unwrap_err().status, 505);
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err().status,
            400
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n").unwrap_err().status,
            413
        );
        assert_eq!(parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err().status, 400);
    }

    #[test]
    fn newline_free_flood_is_bounded_and_rejected() {
        // A head with no newline at all: the read budget stops the
        // buffering and the length check rejects it — no unbounded
        // allocation.
        let mut raw = vec![b'a'; MAX_HEAD + MAX_BODY + 4096];
        raw.extend_from_slice(b"\r\n\r\n");
        let err = parse(&raw).unwrap_err();
        assert!(err.status == 400 || err.status == 431, "{err:?}");
    }

    /// A writer that keeps the bytes of each `write` call apart.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_leaves_in_one_write() {
        let mut shed = Response::json(503, r#"{"error":{"code":503}}"#).with_retry_after(7);
        shed.request_id = Some("req-42".into());
        let cases = [
            (shed, true, "HTTP/1.1 503 Service Unavailable"),
            (Response::text(200, "ok\n"), false, "HTTP/1.1 200 OK"),
        ];
        for (response, close, status_line) in cases {
            let mut log = WriteLog::default();
            write_response(&mut log, &response, close).unwrap();
            assert_eq!(log.0.len(), 1, "one write call carries the whole response");
            let wire = String::from_utf8(log.0.remove(0)).unwrap();
            let (head, body) = wire.split_once("\r\n\r\n").expect("head/body separator");
            let mut lines = head.split("\r\n");
            assert_eq!(lines.next(), Some(status_line));
            let headers: Vec<(String, &str)> = lines
                .map(|l| l.split_once(": ").expect("header line"))
                .map(|(n, v)| (n.to_ascii_lowercase(), v))
                .collect();
            let header = |name: &str| headers.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            assert_eq!(body, response.body);
            assert_eq!(header("content-length"), Some(response.body.len().to_string().as_str()));
            assert_eq!(header("connection"), Some(if close { "close" } else { "keep-alive" }));
            assert_eq!(header("x-request-id"), response.request_id.as_deref());
            let retry_after = response.retry_after.map(|s| s.to_string());
            assert_eq!(header("retry-after"), retry_after.as_deref());
        }
    }

    #[test]
    fn truncated_body_is_an_error() {
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("mid-body"));
    }
}
