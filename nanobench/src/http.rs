//! A minimal closed-loop HTTP/1.1 client: one request in flight, each
//! written with a single `write_all`, as curl and most client
//! libraries send a small request. It neither sets `TCP_NODELAY` nor
//! forces quick ACKs, so server-side write stalls show in its timings.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

/// One received response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// Send start to last body byte.
    pub latency: Duration,
    /// The server announced it closes the connection.
    pub close: bool,
}

impl Response {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// One client connection (keep-alive unless a request asks to close).
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects and returns the connection with its connect time.
    ///
    /// # Errors
    /// Connect failures.
    pub fn open(addr: SocketAddr) -> io::Result<(Conn, Duration)> {
        let start = Instant::now();
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        let took = start.elapsed();
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok((Conn { stream, buf: Vec::new() }, took))
    }

    /// Sends one request and reads its whole response.
    ///
    /// # Errors
    /// Socket failures and malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        close: bool,
    ) -> io::Result<Response> {
        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\n");
        if close {
            req.push_str("Connection: close\r\n");
        }
        if let Some(b) = body {
            req.push_str("Content-Type: application/json\r\n");
            req.push_str(&format!("Content-Length: {}\r\n\r\n{b}", b.len()));
        } else {
            req.push_str("\r\n");
        }
        let start = Instant::now();
        self.stream.write_all(req.as_bytes())?;
        let (status, body, close) = self.read_response()?;
        Ok(Response { status, body, latency: start.elapsed(), close })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<(u16, String, bool)> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let bad =
            |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{what}: {head}"));
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let header = |name: &str| {
            head.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim().eq_ignore_ascii_case(name).then(|| v.trim().to_string())
            })
        };
        let length: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("content-length"))?;
        let close = header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + length]).into_owned();
        self.buf.drain(..head_end + length);
        Ok((status, body, close))
    }
}
