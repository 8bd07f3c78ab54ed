//! The load generator's HTTP/1.1 client: request encoding for the three
//! SPARQL Protocol bindings and a keep-alive response reader that handles
//! fixed-length and chunked bodies. A body that ends early is an error,
//! never a short success.

use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How a query travels (SPARQL 1.1 Protocol §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Get,
    PostForm,
    PostDirect,
}

/// Percent-encode everything but RFC 3986 unreserved characters.
pub fn percent_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 3 / 2);
    for b in text.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            _ => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

/// The exact bytes of one request for `sparql` against `path`.
pub fn encode_request(method: Method, path: &str, sparql: &str) -> Vec<u8> {
    match method {
        Method::Get => format!(
            "GET {path}?query={} HTTP/1.1\r\nHost: bench\r\nAccept: application/sparql-results+json\r\n\r\n",
            percent_encode(sparql)
        )
        .into_bytes(),
        Method::PostForm => {
            let body = format!("query={}", percent_encode(sparql));
            format!(
                "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        }
        Method::PostDirect => format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{sparql}",
            sparql.len()
        )
        .into_bytes(),
    }
}

/// A plain `GET` (for `/metrics`).
pub fn encode_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Response head and chunk-size lines longer than this are not HTTP the
/// server under test sends.
const MAX_LINE_BYTES: usize = 16 * 1024;

fn bad_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Reads responses off any byte stream through its own buffer, so bytes of
/// the next response are never lost between calls.
pub struct ResponseReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// What one response looked like besides its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHead {
    pub status: u16,
    /// The server announced it will close the connection.
    pub close: bool,
}

impl<R: Read> ResponseReader<R> {
    pub fn new(inner: R) -> Self {
        ResponseReader {
            inner,
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
        }
    }

    /// Make at least one more byte available; EOF is an error because
    /// every caller is in the middle of a message.
    fn fill(&mut self) -> io::Result<()> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let n = self.inner.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.end += n;
        Ok(())
    }

    /// One CRLF-terminated line, without the terminator.
    fn line(&mut self, out: &mut Vec<u8>) -> io::Result<()> {
        out.clear();
        loop {
            if let Some(at) = self.buf[self.start..self.end]
                .iter()
                .position(|&b| b == b'\n')
            {
                out.extend_from_slice(&self.buf[self.start..self.start + at]);
                self.start += at + 1;
                if out.last() == Some(&b'\r') {
                    out.pop();
                }
                return Ok(());
            }
            out.extend_from_slice(&self.buf[self.start..self.end]);
            self.start = self.end;
            if out.len() > MAX_LINE_BYTES {
                return Err(bad_data("response line too long"));
            }
            self.fill()?;
        }
    }

    /// Append exactly `n` body bytes to `body`.
    fn take(&mut self, mut n: usize, body: &mut Vec<u8>) -> io::Result<()> {
        while n > 0 {
            if self.start == self.end {
                self.fill()?;
            }
            let chunk = n.min(self.end - self.start);
            body.extend_from_slice(&self.buf[self.start..self.start + chunk]);
            self.start += chunk;
            n -= chunk;
        }
        Ok(())
    }

    /// Read one whole response; its body replaces the contents of `body`.
    pub fn read_response(&mut self, body: &mut Vec<u8>) -> io::Result<ResponseHead> {
        body.clear();
        let mut line = Vec::new();
        self.line(&mut line)?;
        let status = std::str::from_utf8(&line)
            .ok()
            .and_then(|l| l.strip_prefix("HTTP/1."))
            .and_then(|l| l.get(2..5))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| bad_data("bad status line"))?;
        let mut content_length = None;
        let mut chunked = false;
        let mut close = false;
        loop {
            self.line(&mut line)?;
            if line.is_empty() {
                break;
            }
            let header = std::str::from_utf8(&line).map_err(|_| bad_data("header is not UTF-8"))?;
            let (name, value) = header
                .split_once(':')
                .ok_or_else(|| bad_data("bad header"))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad_data("bad Content-Length"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        if chunked {
            loop {
                self.line(&mut line)?;
                let digits = line.split(|&b| b == b';').next().unwrap_or(&[]);
                let size = std::str::from_utf8(digits)
                    .ok()
                    .and_then(|d| usize::from_str_radix(d.trim(), 16).ok())
                    .ok_or_else(|| bad_data("bad chunk size"))?;
                if size == 0 {
                    // Trailer section: lines up to the empty one.
                    loop {
                        self.line(&mut line)?;
                        if line.is_empty() {
                            break;
                        }
                    }
                    break;
                }
                self.take(size, body)?;
                self.line(&mut line)?;
                if !line.is_empty() {
                    return Err(bad_data("chunk data not followed by CRLF"));
                }
            }
        } else {
            let n = content_length.ok_or_else(|| bad_data("response without a length"))?;
            self.take(n, body)?;
        }
        Ok(ResponseHead { status, close })
    }
}

/// One keep-alive connection to the server under test.
pub struct HttpClient {
    addr: SocketAddr,
    writer: TcpStream,
    reader: ResponseReader<TcpStream>,
}

/// Longer than any request the benchmark sends can take; a hang becomes a
/// counted failure instead of a stuck run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = ResponseReader::new(stream.try_clone()?);
        Ok(HttpClient {
            addr,
            writer: stream,
            reader,
        })
    }

    /// Drop this connection and open a fresh one to the same server.
    pub fn reconnect(&mut self) -> io::Result<()> {
        *self = HttpClient::connect(self.addr)?;
        Ok(())
    }

    /// Send pre-encoded request bytes and read the whole response. If the
    /// server announced `Connection: close`, the next call reconnects.
    pub fn send(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.writer.write_all(request)?;
        let head = self.reader.read_response(body)?;
        if head.close {
            self.reconnect()?;
        }
        Ok(head.status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_all(wire: &[u8]) -> io::Result<(ResponseHead, Vec<u8>)> {
        let mut reader = ResponseReader::new(Cursor::new(wire.to_vec()));
        let mut body = Vec::new();
        reader.read_response(&mut body).map(|head| (head, body))
    }

    #[test]
    fn reads_fixed_length_and_chunked_bodies() {
        let (head, body) = read_all(
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!((head.status, head.close), (200, false));
        assert_eq!(body, b"hello");

        let (head, body) = read_all(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n5\r\nhello\r\n6;x=y\r\n world\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!((head.status, head.close), (200, true));
        assert_eq!(body, b"hello world");
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let cut_fixed = read_all(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello");
        assert_eq!(cut_fixed.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        // Chunk data shorter than announced.
        let cut_chunk = read_all(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel");
        assert_eq!(cut_chunk.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        // All announced chunks arrived but the terminating chunk did not.
        let no_end =
            read_all(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n");
        assert_eq!(no_end.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        // Garbage where a chunk size belongs.
        let bad = read_all(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhello\r\n0\r\n\r\n",
        );
        assert_eq!(bad.unwrap_err().kind(), io::ErrorKind::InvalidData);
        let no_length = read_all(b"HTTP/1.1 200 OK\r\n\r\nhello");
        assert_eq!(no_length.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn back_to_back_responses_keep_their_boundaries() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nabHTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nxyz";
        let mut reader = ResponseReader::new(Cursor::new(wire.to_vec()));
        let mut body = Vec::new();
        assert_eq!(reader.read_response(&mut body).unwrap().status, 200);
        assert_eq!(body, b"ab");
        assert_eq!(reader.read_response(&mut body).unwrap().status, 404);
        assert_eq!(body, b"xyz");
    }

    #[test]
    fn requests_are_encoded_per_binding() {
        let q = "ASK { <http://x/a b> ?p \"1+1\" }";
        let get = String::from_utf8(encode_request(Method::Get, "/sparql/store", q)).unwrap();
        assert!(get.starts_with(
            "GET /sparql/store?query=ASK%20%7B%20%3Chttp%3A%2F%2Fx%2Fa%20b%3E%20%3Fp%20%221%2B1%22%20%7D HTTP/1.1\r\n"
        ));
        let form = String::from_utf8(encode_request(Method::PostForm, "/sparql", q)).unwrap();
        let (head, body) = form.split_once("\r\n\r\n").unwrap();
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert!(body.starts_with("query=ASK%20%7B"));
        let direct = String::from_utf8(encode_request(Method::PostDirect, "/sparql", q)).unwrap();
        assert!(direct.ends_with(q));
        assert!(direct.contains("Content-Type: application/sparql-query\r\n"));
    }
}
