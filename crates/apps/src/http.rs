//! A minimal HTTP/1.1 codec: exactly what lighttpd and httperf need for
//! the paper's workload — GET requests over persistent connections,
//! `Content-Length`-framed responses, `Connection: close` handling.

/// A parsed HTTP request line + the headers we care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub keep_alive: bool,
}

/// A parsed response status + body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub keep_alive: bool,
}

/// Incremental parser state over a connection's byte stream.
#[derive(Debug, Default)]
pub struct StreamParser {
    buf: Vec<u8>,
    /// The head of the response at the front of `buf`, parsed once and
    /// kept until its body is complete.
    head: Option<ResponseHead>,
}

#[derive(Debug, Clone, Copy)]
struct ResponseHead {
    /// Offset of the body in `buf`.
    end: usize,
    status: u16,
    content_length: usize,
    keep_alive: bool,
}

/// `line` with `prefix` stripped, matched ASCII case-insensitively.
fn strip_prefix_ci<'a>(line: &'a str, prefix: &str) -> Option<&'a str> {
    let head = line.as_bytes().get(..prefix.len())?;
    head.eq_ignore_ascii_case(prefix.as_bytes())
        .then(|| &line[prefix.len()..])
}

fn contains_ci(line: &str, needle: &str) -> bool {
    line.as_bytes()
        .windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

impl StreamParser {
    pub fn new() -> StreamParser {
        StreamParser::default()
    }

    pub fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    fn find_headers_end(&self) -> Option<usize> {
        self.buf
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + 4)
    }

    /// Pop the next complete request, if any.
    pub fn next_request(&mut self) -> Option<Request> {
        let end = self.find_headers_end()?;
        let head = String::from_utf8_lossy(&self.buf[..end]).to_string();
        self.buf.drain(..end);
        let mut lines = head.lines();
        let reqline = lines.next()?;
        let mut parts = reqline.split_whitespace();
        let method = parts.next()?.to_string();
        let path = parts.next()?.to_string();
        let version = parts.next().unwrap_or("HTTP/1.1");
        // HTTP/1.1 defaults to keep-alive; "Connection: close" overrides.
        let mut keep_alive = version.ends_with("1.1");
        for l in lines {
            let l = l.to_ascii_lowercase();
            if l.starts_with("connection:") {
                keep_alive = l.contains("keep-alive");
            }
        }
        Some(Request {
            method,
            path,
            keep_alive,
        })
    }

    /// Pop the next complete response (requires `Content-Length`).
    pub fn next_response(&mut self) -> Option<Response> {
        let head = match self.head {
            Some(h) => h,
            None => {
                let h = self.parse_response_head()?;
                self.head = Some(h);
                h
            }
        };
        let len = head.end + head.content_length;
        if self.buf.len() < len {
            return None; // body not complete yet
        }
        self.head = None;
        let body = self.buf[head.end..len].to_vec();
        self.buf.drain(..len);
        Some(Response {
            status: head.status,
            body,
            keep_alive: head.keep_alive,
        })
    }

    fn parse_response_head(&self) -> Option<ResponseHead> {
        let end = self.find_headers_end()?;
        let head = String::from_utf8_lossy(&self.buf[..end]);
        let mut h = ResponseHead {
            end,
            status: 0,
            content_length: 0,
            keep_alive: true,
        };
        for (i, l) in head.lines().enumerate() {
            if i == 0 {
                h.status = l
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
            } else if let Some(v) = strip_prefix_ci(l, "content-length:") {
                h.content_length = v.trim().parse().unwrap_or(0);
            } else if strip_prefix_ci(l, "connection:").is_some() {
                h.keep_alive = contains_ci(l, "keep-alive");
            }
        }
        Some(h)
    }
}

/// Build a GET request.
pub fn format_request(path: &str, keep_alive: bool) -> Vec<u8> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "GET {path} HTTP/1.1\r\nHost: server\r\nUser-Agent: httperf/0.9\r\nConnection: {conn}\r\n\r\n"
    )
    .into_bytes()
}

/// Build a response with a body.
pub fn format_response(status: u16, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        _ => "Status",
    };
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nServer: weblite/1.0\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let mut p = StreamParser::new();
        p.push(&format_request("/index.html", true));
        let r = p.next_request().unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/index.html");
        assert!(r.keep_alive);
        assert!(p.next_request().is_none());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn connection_close_honored() {
        let mut p = StreamParser::new();
        p.push(&format_request("/x", false));
        assert!(!p.next_request().unwrap().keep_alive);
    }

    #[test]
    fn partial_request_waits() {
        let mut p = StreamParser::new();
        let req = format_request("/a", true);
        p.push(&req[..10]);
        assert!(p.next_request().is_none());
        p.push(&req[10..]);
        assert!(p.next_request().is_some());
    }

    #[test]
    fn pipelined_requests_pop_in_order() {
        let mut p = StreamParser::new();
        p.push(&format_request("/1", true));
        p.push(&format_request("/2", true));
        assert_eq!(p.next_request().unwrap().path, "/1");
        assert_eq!(p.next_request().unwrap().path, "/2");
        assert!(p.next_request().is_none());
    }

    #[test]
    fn response_roundtrip_with_body() {
        let mut p = StreamParser::new();
        let body = vec![7u8; 20];
        p.push(&format_response(200, &body, true));
        let r = p.next_response().unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, body);
        assert!(r.keep_alive);
    }

    #[test]
    fn response_body_split_across_pushes() {
        let mut p = StreamParser::new();
        let full = format_response(200, b"hello world!", false);
        let cut = full.len() - 5;
        p.push(&full[..cut]);
        assert!(p.next_response().is_none());
        p.push(&full[cut..]);
        let r = p.next_response().unwrap();
        assert_eq!(r.body, b"hello world!");
        assert!(!r.keep_alive);
    }

    #[test]
    fn response_read_a_few_bytes_at_a_time() {
        let body: Vec<u8> = (0..5_000u32).map(|i| (i % 256) as u8).collect();
        let mut stream = format_response(200, &body, true);
        stream.extend_from_slice(&format_response(404, b"nope", false));
        let mut p = StreamParser::new();
        let mut got = Vec::new();
        for chunk in stream.chunks(7) {
            p.push(chunk);
            while let Some(r) = p.next_response() {
                got.push(r);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].status, got[0].keep_alive), (200, true));
        assert_eq!(got[0].body, body);
        assert_eq!((got[1].status, got[1].keep_alive), (404, false));
        assert_eq!(got[1].body, b"nope");
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn response_headers_match_case_insensitively() {
        let mut p = StreamParser::new();
        p.push(b"HTTP/1.1 200 OK\r\nCONTENT-LENGTH: 3\r\ncOnNeCtIoN: Close\r\n\r\nabc");
        let r = p.next_response().unwrap();
        assert_eq!(
            (r.status, r.body.as_slice(), r.keep_alive),
            (200, &b"abc"[..], false)
        );
        p.push(b"HTTP/1.1 204 No Content\r\nConnection: Keep-Alive\r\n\r\n");
        let r = p.next_response().unwrap();
        assert_eq!((r.status, r.body.len(), r.keep_alive), (204, 0, true));
    }

    #[test]
    fn back_to_back_responses() {
        let mut p = StreamParser::new();
        p.push(&format_response(200, b"a", true));
        p.push(&format_response(404, b"nope", true));
        assert_eq!(p.next_response().unwrap().status, 200);
        let second = p.next_response().unwrap();
        assert_eq!(second.status, 404);
        assert_eq!(second.body, b"nope");
    }
}
