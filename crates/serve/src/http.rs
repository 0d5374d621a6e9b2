//! Hand-rolled incremental HTTP/1.1 parser and response writer.
//!
//! Scope is exactly what the forecast front-end needs: request line +
//! headers + optional `Content-Length` body, keep-alive (the HTTP/1.1
//! default) with pipelining, and nothing more — no chunked encoding,
//! no multipart, no TLS. The parser is incremental over a connection's
//! read buffer: [`parse_request`] either consumes one complete request
//! (returning it plus the bytes consumed), reports that more bytes are
//! needed, or rejects the stream with a status code to answer with
//! before closing.
//!
//! Parsing allocates nothing: a [`Request`] borrows its method, path,
//! query and body from the buffer it was parsed from, and the three
//! headers the server acts on (`Content-Length`, `Connection`,
//! `Transfer-Encoding`) are matched case-insensitively in place as the
//! head is walked. On a cache hit the parser is the largest stage of
//! the request, so it stays out of the allocator.

/// Don't let a single request head or body grow without bound.
pub const MAX_HEAD: usize = 8 * 1024;
pub const MAX_BODY: usize = 1024 * 1024;

/// One parsed request, borrowed from the read buffer. The query string
/// is split off the target but left unparsed (see [`Request::query`]).
#[derive(Debug)]
pub struct Request<'a> {
    pub method: &'a str,
    /// Path without the query string, e.g. `/forecast`.
    pub path: &'a str,
    /// Raw query string without the `?`, possibly empty.
    pub query_raw: &'a str,
    pub body: &'a [u8],
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request<'_> {
    /// Look up one query parameter (`a=1&b=2` style, no percent
    /// decoding — tokens in this protocol are numbers and identifiers).
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query_raw.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Outcome of one incremental parse step.
#[derive(Debug)]
pub enum Parse<'a> {
    /// A full request plus how many buffer bytes it consumed.
    Complete(Request<'a>, usize),
    /// The buffer holds only a prefix; read more and retry.
    Partial,
    /// Malformed or over-limit stream: answer with this status/reason
    /// and close the connection.
    Bad(u16, &'static str),
}

/// Try to parse one request from the front of `buf`.
pub fn parse_request(buf: &[u8]) -> Parse<'_> {
    // Head = everything up to the blank line.
    let head_end = match find_double_crlf(buf) {
        Some(i) => i,
        // A blank line still to come starts at `buf.len() - 3` or later,
        // so only past that is the head sure to be over the limit.
        None => {
            if buf.len() > MAX_HEAD + 3 {
                return Parse::Bad(431, "Request Header Fields Too Large");
            }
            return Parse::Partial;
        }
    };
    if head_end > MAX_HEAD {
        return Parse::Bad(431, "Request Header Fields Too Large");
    }
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(s) => s,
        Err(_) => return Parse::Bad(400, "Bad Request"),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() && !m.is_empty() => (m, t, v),
        _ => return Parse::Bad(400, "Bad Request"),
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Parse::Bad(505, "HTTP Version Not Supported"),
    };

    // The last occurrence of a repeated header wins.
    let mut content_length = None;
    let mut connection = None;
    let mut transfer_encoded = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Parse::Bad(400, "Bad Request");
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value);
        } else if name.eq_ignore_ascii_case("connection") {
            connection = Some(value);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            transfer_encoded = true;
        }
    }

    if transfer_encoded {
        // Chunked bodies are out of scope; refusing beats misparsing.
        return Parse::Bad(501, "Not Implemented");
    }
    let content_length = match content_length {
        None => 0,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n <= MAX_BODY => n,
            Ok(_) => return Parse::Bad(413, "Payload Too Large"),
            Err(_) => return Parse::Bad(400, "Bad Request"),
        },
    };

    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Parse::Partial;
    }

    // Keep-alive: HTTP/1.1 defaults open, 1.0 defaults closed; an
    // explicit Connection header overrides either way.
    let keep_alive = match connection {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => http11,
    };

    let (path, query_raw) = target.split_once('?').unwrap_or((target, ""));

    Parse::Complete(
        Request {
            method,
            path,
            query_raw,
            body: &buf[body_start..body_start + content_length],
            keep_alive,
        },
        body_start + content_length,
    )
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Append `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Serialize one response onto `out`. `content_type` is usually
/// `application/json`; the body is written as-is with an exact
/// `Content-Length` so pipelined peers can frame replies. Plain byte
/// appends, no formatter: this runs once per response, cache hits
/// included, straight onto the connection's write buffer.
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) {
    out.reserve(96 + reason.len() + content_type.len() + body.len());
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(out, status as usize);
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_decimal(out, body.len());
    out.extend_from_slice(if keep_alive {
        b"\r\nConnection: keep-alive\r\n\r\n".as_slice()
    } else {
        b"\r\nConnection: close\r\n\r\n".as_slice()
    });
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(buf: &[u8]) -> (Request<'_>, usize) {
        match parse_request(buf) {
            Parse::Complete(r, n) => (r, n),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn get_with_query_and_keep_alive_default() {
        let raw = b"GET /forecast?sensor=3&horizon=2 HTTP/1.1\r\nHost: x\r\n\r\n";
        let (req, n) = complete(raw);
        assert_eq!(n, raw.len());
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/forecast");
        assert_eq!(req.query("sensor"), Some("3"));
        assert_eq!(req.query("horizon"), Some("2"));
        assert_eq!(req.query("missing"), None);
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn post_body_framed_by_content_length() {
        let raw = b"POST /observe HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"frame\":1}";
        let (req, n) = complete(raw);
        assert_eq!(n, raw.len());
        assert_eq!(req.body, b"{\"frame\":1}");
    }

    #[test]
    fn incremental_feed_across_every_chunk_boundary() {
        // The parser must give Partial at every prefix and a bitwise
        // identical request at the end, no matter where reads split.
        let raw: &[u8] =
            b"POST /observe HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello";
        for cut in 0..raw.len() {
            match parse_request(&raw[..cut]) {
                Parse::Partial => {}
                other => panic!("prefix {cut} should be Partial, got {other:?}"),
            }
        }
        let (req, n) = complete(raw);
        assert_eq!(n, raw.len());
        assert_eq!(req.body, b"hello");
        assert!(!req.keep_alive, "Connection: close overrides 1.1 default");
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (r1, n1) = complete(raw);
        assert_eq!(r1.path, "/a");
        let (r2, n2) = complete(&raw[n1..]);
        assert_eq!(r2.path, "/b");
        assert_eq!(n1 + n2, raw.len());
    }

    #[test]
    fn malformed_and_oversized_requests_are_rejected() {
        for (raw, want) in [
            (&b"BOGUS\r\n\r\n"[..], 400u16),
            (&b"GET / HTTP/2.0\r\n\r\n"[..], 505),
            (&b"GET / HTTP/1.1\r\nbadheader\r\n\r\n"[..], 400),
            (&b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..], 400),
            (
                &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
                501,
            ),
        ] {
            match parse_request(raw) {
                Parse::Bad(status, _) => assert_eq!(status, want),
                other => panic!("expected Bad({want}), got {other:?}"),
            }
        }
        // Over-limit Content-Length.
        let big = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(parse_request(big.as_bytes()), Parse::Bad(413, _)));
        // A head that never terminates trips the size guard.
        let mut endless = b"GET / HTTP/1.1\r\n".to_vec();
        endless.extend(std::iter::repeat_n(b'a', MAX_HEAD + 1));
        assert!(matches!(parse_request(&endless), Parse::Bad(431, _)));
    }

    /// A head exactly at the limit parses whichever byte of its blank
    /// line a read stops at; one byte more is refused.
    #[test]
    fn a_head_at_the_limit_parses_wherever_a_read_cuts_its_blank_line() {
        let line = "GET / HTTP/1.1\r\nX-Pad: ";
        let at_limit = format!("{line}{}\r\n\r\n", "p".repeat(MAX_HEAD - line.len()));
        let raw = at_limit.as_bytes();
        for cut in raw.len() - 4..raw.len() {
            assert!(matches!(parse_request(&raw[..cut]), Parse::Partial), "cut at {cut}");
        }
        assert!(matches!(parse_request(raw), Parse::Complete(_, n) if n == raw.len()));
        let over = format!("{line}p{}", &at_limit[line.len()..]);
        assert!(matches!(parse_request(over.as_bytes()), Parse::Bad(431, _)));
    }

    #[test]
    fn http10_defaults_to_close_unless_keep_alive() {
        let (req, _) = complete(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive);
        let (req, _) = complete(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(req.keep_alive);
    }

    #[test]
    fn acted_on_headers_match_in_any_case_and_the_last_one_wins() {
        let raw = b"POST /observe HTTP/1.1\r\nCONTENT-LENGTH: 2\r\nconnection:  CLOSE \r\n\r\nhi";
        let (req, n) = complete(raw);
        assert_eq!((n, req.body), (raw.len(), &b"hi"[..]));
        assert!(!req.keep_alive);
        let raw = b"POST / HTTP/1.0\r\nContent-Length: 9\r\ncontent-length: 1\r\nConnection: close\r\nConnection: Keep-Alive\r\n\r\nx";
        let (req, n) = complete(raw);
        assert_eq!((n, req.body), (raw.len(), &b"x"[..]));
        assert!(req.keep_alive);
        assert!(matches!(
            parse_request(b"POST / HTTP/1.1\r\ntransfer-ENCODING: chunked\r\n\r\n"),
            Parse::Bad(501, _)
        ));
    }

    #[test]
    fn response_writer_matches_the_formatted_framing() {
        use std::io::Write;
        let big = vec![b'x'; 12_345];
        for (status, reason, body, keep_alive) in [
            (200u16, "OK", &b"{}"[..], true),
            (200, "OK", &b""[..], false),
            (404, "Not Found", &b"{\"error\":\"unknown endpoint\"}"[..], true),
            (431, "Request Header Fields Too Large", &big[..], false),
        ] {
            // Appends: whatever `out` already holds stays in front.
            let mut out = b"earlier".to_vec();
            write_response(&mut out, status, reason, "application/json", body, keep_alive);
            let mut want = b"earlier".to_vec();
            write!(
                want,
                "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
                body.len(),
                if keep_alive { "keep-alive" } else { "close" },
            )
            .unwrap();
            want.extend_from_slice(body);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn response_writer_frames_exactly() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "application/json", b"{}", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
