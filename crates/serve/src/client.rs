//! Minimal blocking HTTP/1.1 keep-alive client with pipelining —
//! enough to drive the server from tests and the load generator
//! without any external dependency. One [`Client`] owns one
//! connection; `send_*` methods write requests back-to-back and
//! [`Client::recv`] reads the responses in order.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Requests written minus responses read — the pipeline depth.
    pub outstanding: usize,
}

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            outstanding: 0,
        })
    }

    /// Queue a GET without reading the response (pipelining).
    pub fn send_get(&mut self, target: &str) -> io::Result<()> {
        let req = format!("GET {target} HTTP/1.1\r\nHost: stwa\r\n\r\n");
        self.stream.write_all(req.as_bytes())?;
        self.outstanding += 1;
        Ok(())
    }

    /// Queue a POST without reading the response (pipelining).
    pub fn send_post(&mut self, target: &str, body: &[u8]) -> io::Result<()> {
        let head = format!(
            "POST {target} HTTP/1.1\r\nHost: stwa\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.outstanding += 1;
        Ok(())
    }

    /// Round trip: GET and read the response.
    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        self.send_get(target)?;
        self.recv()
    }

    /// Round trip: POST and read the response.
    pub fn post(&mut self, target: &str, body: &[u8]) -> io::Result<Response> {
        self.send_post(target, body)?;
        self.recv()
    }

    /// Read the next pipelined response.
    pub fn recv(&mut self) -> io::Result<Response> {
        loop {
            if let Some((resp, consumed)) = parse_response(&self.buf)? {
                self.buf.drain(..consumed);
                self.outstanding = self.outstanding.saturating_sub(1);
                return Ok(resp);
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed mid-response",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Parse one complete response off the front of `buf`, or `None` if
/// more bytes are needed.
pub(crate) fn parse_response(buf: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line: {status_line:?}"),
            )
        })?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            }
        }
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    Ok(Some((
        Response {
            status,
            body: buf[body_start..body_start + content_length].to_vec(),
        },
        body_start + content_length,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_incrementally_and_in_sequence() {
        let raw: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        for cut in 0..37 {
            assert!(parse_response(&raw[..cut]).unwrap().is_none(), "cut {cut}");
        }
        let (r1, n1) = parse_response(raw).unwrap().unwrap();
        assert_eq!((r1.status, r1.body.as_slice()), (200, &b"hi"[..]));
        let (r2, n2) = parse_response(&raw[n1..]).unwrap().unwrap();
        assert_eq!((r2.status, r2.body.len()), (404, 0));
        assert_eq!(n1 + n2, raw.len());
    }
}
