//! A minimal blocking HTTP/1.1 client for driving `applab-http` over real
//! sockets.
//!
//! The client speaks exactly the subset the wire plane emits — status
//! line + headers, `Content-Length` bodies, and `Transfer-Encoding:
//! chunked` (de-chunked transparently) — over a persistent keep-alive
//! connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Percent-encode `s` for use inside a query-string value
/// (RFC 3986 unreserved characters pass through).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// One parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body, de-chunked if the transfer was chunked.
    pub body: Vec<u8>,
    /// Whether the body arrived with `Transfer-Encoding: chunked`.
    pub chunked: bool,
}

impl HttpResponse {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A persistent HTTP/1.1 connection.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(HttpClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Bound every subsequent socket read: a server that stalls past
    /// `dur` fails the read with `TimedOut`/`WouldBlock` instead of
    /// hanging the caller forever. Chaos harnesses use this to turn
    /// "hung connection" into a detectable (and assertable) violation.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(dur)
    }

    /// `GET` the given request target (path + query string).
    pub fn get(&mut self, target: &str) -> io::Result<HttpResponse> {
        self.request("GET", target, None, &[])
    }

    /// `POST` a body with the given content type.
    pub fn post(
        &mut self,
        target: &str,
        content_type: &str,
        body: &[u8],
    ) -> io::Result<HttpResponse> {
        self.request("POST", target, Some(content_type), body)
    }

    /// Issue one request and read the full response.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> io::Result<HttpResponse> {
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: applab\r\n");
        if let Some(ct) = content_type {
            head.push_str(&format!("Content-Type: {ct}\r\n"));
        }
        if !body.is_empty() || method == "POST" {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        // A HEAD response advertises body framing but carries no body.
        self.read_response(method == "HEAD")
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        // A line without its terminator means the connection died
        // mid-line: report truncation (a connection error), never a
        // half-parsed status line or chunk size (a framing error).
        if !line.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-line",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_response(&mut self, head_only: bool) -> io::Result<HttpResponse> {
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line: {status_line:?}"),
                )
            })?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let find = |name: &str| {
            headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        };
        let chunked = find("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        let body = if head_only {
            Vec::new()
        } else if chunked {
            self.read_chunked_body()?
        } else if let Some(len) = find("content-length").and_then(|v| v.parse::<usize>().ok()) {
            let mut body = vec![0u8; len];
            self.reader.read_exact(&mut body)?;
            body
        } else {
            Vec::new()
        };
        Ok(HttpResponse {
            status,
            headers,
            body,
            chunked,
        })
    }

    fn read_chunked_body(&mut self) -> io::Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let size_line = self.read_line()?;
            let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad chunk size: {size_line:?}"),
                )
            })?;
            if size == 0 {
                // Trailer section: empty in our server, terminated by CRLF.
                let trailer = self.read_line()?;
                debug_assert!(trailer.is_empty(), "unexpected trailer {trailer:?}");
                return Ok(body);
            }
            let start = body.len();
            body.resize(start + size, 0);
            self.reader.read_exact(&mut body[start..])?;
            let mut crlf = [0u8; 2];
            self.reader.read_exact(&mut crlf)?;
            if &crlf != b"\r\n" {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "chunk data not CRLF-terminated",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn percent_encode_covers_reserved_characters() {
        assert_eq!(percent_encode("abc-_.~123"), "abc-_.~123");
        assert_eq!(percent_encode("a b?&="), "a%20b%3F%26%3D");
        assert_eq!(percent_encode("ü"), "%C3%BC");
    }

    /// The client must parse both framings the server emits, over one
    /// keep-alive connection.
    #[test]
    fn client_parses_fixed_length_and_chunked_responses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            // First request → fixed length; second → chunked.
            let _ = conn.read(&mut buf).unwrap();
            conn.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello",
            )
            .unwrap();
            let _ = conn.read(&mut buf).unwrap();
            conn.write_all(
                b"HTTP/1.1 404 Not Found\r\nTransfer-Encoding: chunked\r\n\r\n\
                  3\r\nabc\r\n10\r\n0123456789abcdef\r\n0\r\n\r\n",
            )
            .unwrap();
        });
        let mut client = HttpClient::connect(addr).unwrap();
        let first = client.get("/one").unwrap();
        assert_eq!(first.status, 200);
        assert!(!first.chunked);
        assert_eq!(first.text(), "hello");
        assert_eq!(first.header("content-type"), Some("text/plain"));
        let second = client.get("/two").unwrap();
        assert_eq!(second.status, 404);
        assert!(second.chunked);
        assert_eq!(second.text(), "abc0123456789abcdef");
        server.join().unwrap();
    }
}
