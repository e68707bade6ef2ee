//! A deliberately small HTTP/1.1 layer: enough to parse requests from a
//! `TcpStream` and write responses, nothing more. Connections are
//! persistent by default (HTTP/1.1 keep-alive semantics, honoring the
//! `Connection` header, with at most [`MAX_REQUESTS_PER_CONN`] requests per
//! connection); the server reads successive requests through one
//! per-connection `BufReader` via [`read_request_from`] so bytes buffered
//! past a request boundary are not lost. Responses are either a fixed
//! `Content-Length` body or — for the live event stream — a
//! `Transfer-Encoding: chunked` sequence written incrementally
//! ([`write_stream_head`] / [`write_chunk`] / [`finish_chunked`], with the
//! client-side [`ChunkedReader`] used by `autobias jobs watch`; streams
//! always end with connection close). This keeps the whole protocol
//! auditable and dependency-free — the same idiom as the rest of the
//! workspace.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;

/// Largest accepted header block.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Requests served on one keep-alive connection before the server closes it
/// anyway — bounds how long a single client can pin a worker thread.
pub const MAX_REQUESTS_PER_CONN: usize = 1024;

/// One parsed request. A connection reads every request into one
/// `Request` ([`read_request_from`]), so its buffers are reused across
/// keep-alive requests.
#[derive(Debug, Default)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Path component only, query string stripped.
    pub path: String,
    /// Raw query string without the leading `?` (empty when absent).
    pub query: String,
    /// Decoded body (empty when absent).
    pub body: String,
    /// Whether the client allows reusing the connection: HTTP/1.1 default
    /// unless `Connection: close`; HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
    /// Raw `traceparent` header value, if the client sent one (W3C Trace
    /// Context). Parsed later by `obs::trace::parse_traceparent`.
    pub traceparent: Option<String>,
    /// The raw request line and headers.
    head: String,
}

/// Protocol-level failures while reading a request.
#[derive(Debug)]
pub enum HttpError {
    /// Socket error or premature close.
    Io(io::Error),
    /// Malformed request line / headers / body.
    Bad(String),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Bad(m) => write!(f, "bad request: {m}"),
        }
    }
}

/// Reads one request from a persistent buffered reader — the keep-alive
/// form — into `req`, overwriting every field and reusing its buffers.
/// `Err(Io(UnexpectedEof))` on a cleanly closed idle connection.
pub fn read_request_from(reader: &mut impl BufRead, req: &mut Request) -> Result<(), HttpError> {
    let Request {
        method,
        path,
        query,
        body,
        keep_alive,
        traceparent,
        head,
    } = req;
    head.clear();

    // Request line + headers, terminated by an empty line. Each line is
    // read through `take` with what is left of the head's budget (plus one
    // byte, to tell a full head from an oversized one), so a line without a
    // newline stops at the cap instead of growing `head` until one comes.
    loop {
        let start = head.len();
        let mut line = (&mut *reader).take((MAX_HEAD_BYTES + 1 - start) as u64);
        let n = match line.read_line(head) {
            // The cap cut a multi-byte character: the head is too large,
            // not malformed.
            Err(e) if e.kind() == io::ErrorKind::InvalidData && line.limit() == 0 => {
                return Err(HttpError::Bad("header block too large".into()));
            }
            r => r?,
        };
        if n == 0 {
            if start == 0 {
                // Clean close between keep-alive requests: an i/o-level end
                // of stream, not a malformed request.
                return Err(HttpError::Io(io::Error::from(io::ErrorKind::UnexpectedEof)));
            }
            return Err(HttpError::Bad("connection closed mid-headers".into()));
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::Bad("header block too large".into()));
        }
        if matches!(&head[start..], "\r\n" | "\n") {
            break;
        }
    }

    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Bad("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let m = parts
        .next()
        .ok_or_else(|| HttpError::Bad("missing method".into()))?;
    method.clear();
    method.push_str(m);
    method.make_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Bad("missing request target".into()))?;
    let (p, q) = target.split_once('?').unwrap_or((target, ""));
    path.clear();
    path.push_str(p);
    query.clear();
    query.push_str(q);
    // HTTP/1.1 (and anything newer/absent) defaults to persistent
    // connections; HTTP/1.0 defaults to close.
    *keep_alive = !parts
        .next()
        .is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.0"));

    let mut content_length = 0usize;
    *traceparent = None;
    for h in lines {
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Bad("unparsable Content-Length".into()))?;
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    *keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    *keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("traceparent") {
                *traceparent = Some(value.trim().to_string());
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::Bad(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }

    let mut bytes = std::mem::take(body).into_bytes();
    bytes.clear();
    bytes.resize(content_length, 0);
    reader.read_exact(&mut bytes)?;
    *body =
        String::from_utf8(bytes).map_err(|_| HttpError::Bad("body is not valid UTF-8".into()))?;
    Ok(())
}

/// Writes one `text/plain` response that closes the connection, and flushes.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
) -> io::Result<()> {
    let plain = "text/plain; charset=utf-8";
    write_response_extra(
        stream,
        &mut Vec::new(),
        status,
        reason,
        plain,
        body,
        false,
        &[],
    )
}

/// Writes one response and flushes, advertising whether the server will
/// keep the connection open for another request (`Connection: keep-alive`)
/// or close it after this response (`Connection: close`), plus `extra`
/// headers — the server uses these to stamp `x-autobias-trace-id` on every
/// routed response. The response is assembled in `buf`, which a connection
/// reuses across its responses. Header names and values must be
/// pre-sanitized (no CR/LF).
#[allow(clippy::too_many_arguments)]
pub fn write_response_extra(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    extra: &[(&str, &str)],
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // Head and body go out in one write: a split write puts the tiny head
    // packet on the wire alone, and Nagle then holds the body back until the
    // client ACKs it — up to 40 ms per response under delayed ACK.
    buf.clear();
    write!(
        buf,
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: {connection}\r\n",
        body.len()
    )?;
    for (name, value) in extra {
        write!(buf, "{name}: {value}\r\n")?;
    }
    buf.extend_from_slice(b"\r\n");
    buf.extend_from_slice(body.as_bytes());
    stream.write_all(buf)?;
    stream.flush()
}

/// Starts a streaming response: status line and headers with
/// `Transfer-Encoding: chunked` (no `Content-Length`). Follow with
/// [`write_chunk`] calls and one [`finish_chunked`].
pub fn write_stream_head(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Transfer-Encoding: chunked\r\n\
         Cache-Control: no-cache\r\n\
         Connection: close\r\n\
         \r\n"
    );
    w.write_all(head.as_bytes())?;
    w.flush()
}

/// Writes one non-empty chunk (hex size, CRLF, data, CRLF) and flushes so
/// stream consumers see events as they happen. Empty data is skipped — a
/// zero-length chunk would terminate the stream.
pub fn write_chunk(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(w, "{:x}\r\n", data.len())?;
    w.write_all(data)?;
    w.write_all(b"\r\n")?;
    w.flush()
}

/// Terminates a chunked stream (the zero chunk).
pub fn finish_chunked(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// Client-side status line + headers of one response; leaves the reader
/// positioned at the body. Returns the status code and lowercased
/// `name: value` header pairs.
pub fn read_response_head(r: &mut impl BufRead) -> io::Result<(u16, Vec<(String, String)>)> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {line:?}"),
            )
        })?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        let n = r.read_line(&mut line)?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok((status, headers))
}

/// Client-side reader of a `Transfer-Encoding: chunked` body, yielding one
/// decoded chunk at a time so a watcher can render events as they arrive.
pub struct ChunkedReader<R> {
    inner: R,
    done: bool,
}

impl<R: BufRead> ChunkedReader<R> {
    /// Wraps a reader positioned at the start of the chunked body.
    pub fn new(inner: R) -> Self {
        Self { inner, done: false }
    }

    /// Reads the next chunk; `Ok(None)` after the terminating zero chunk.
    /// A chunk-size line longer than a request head may be, or chunk data
    /// not followed by CRLF, is `InvalidData`.
    pub fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.done {
            return Ok(None);
        }
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut size_line = String::new();
        let n = (&mut self.inner)
            .take(MAX_HEAD_BYTES as u64)
            .read_line(&mut size_line)?;
        if n == 0 {
            // Peer closed without the zero chunk (e.g. server shutdown
            // mid-stream); treat as end of stream.
            self.done = true;
            return Ok(None);
        }
        if n == MAX_HEAD_BYTES && !size_line.ends_with('\n') {
            return Err(bad(format!(
                "chunk-size line exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let size_str = size_line.trim().split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
        if size > MAX_BODY_BYTES {
            return Err(bad(format!(
                "chunk of {size} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )));
        }
        let mut data = vec![0u8; size];
        self.inner.read_exact(&mut data)?;
        let mut crlf = [0u8; 2];
        self.inner.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(bad(format!("chunk data not followed by CRLF: {crlf:?}")));
        }
        if size == 0 {
            self.done = true;
            return Ok(None);
        }
        Ok(Some(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::thread;

    /// Reads one request into a fresh `Request`.
    fn read_one(reader: &mut impl BufRead) -> Result<Request, HttpError> {
        let mut req = Request::default();
        read_request_from(reader, &mut req).map(|()| req)
    }

    fn roundtrip(raw: &str) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            s.flush().unwrap();
            // Keep the stream open until the server has parsed it.
            let mut buf = Vec::new();
            let _ = s.read_to_end(&mut buf);
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_one(&mut std::io::BufReader::new(&mut conn));
        drop(conn);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_get_without_body() {
        let req = roundtrip("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.body, "");
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req =
            roundtrip("POST /predict HTTP/1.1\r\nContent-Length: 11\r\n\r\nmodel m\na,b").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body, "model m\na,b");
    }

    #[test]
    fn strips_query_string_from_path() {
        let req = roundtrip("GET /models?verbose=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/models");
        assert_eq!(req.query, "verbose=1");

        let req = roundtrip("GET /models HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query, "");
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        // HTTP/1.1 defaults to persistent.
        let req = roundtrip("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.keep_alive);
        // ... unless the client asks to close.
        let req = roundtrip("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        // HTTP/1.0 defaults to close ...
        let req = roundtrip("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        // ... unless the client opts in.
        let req = roundtrip("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn persistent_reader_parses_back_to_back_requests() {
        let wire = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b HTTP/1.1\r\n\r\n";
        let mut reader = std::io::BufReader::new(&wire[..]);
        let first = read_one(&mut reader).unwrap();
        assert_eq!((first.path.as_str(), first.body.as_str()), ("/a", "hi"));
        let second = read_one(&mut reader).unwrap();
        assert_eq!(second.path, "/b");
        assert!(second.body.is_empty());
        // Clean close between requests surfaces as an i/o EOF, not Bad.
        match read_one(&mut reader).unwrap_err() {
            HttpError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            HttpError::Bad(m) => panic!("expected Io(UnexpectedEof), got Bad({m})"),
        }
    }

    #[test]
    fn response_writer_advertises_connection_disposition() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            write_response_extra(
                &mut conn,
                &mut Vec::new(),
                200,
                "OK",
                "text/plain",
                "ok",
                true,
                &[],
            )
            .unwrap();
        });
        let s = TcpStream::connect(addr).unwrap();
        let mut r = std::io::BufReader::new(s);
        let (status, headers) = read_response_head(&mut r).unwrap();
        assert_eq!(status, 200);
        assert!(headers
            .iter()
            .any(|(n, v)| n == "connection" && v == "keep-alive"));
        server.join().unwrap();
    }

    #[test]
    fn captures_traceparent_header() {
        let req = roundtrip(
            "GET /healthz HTTP/1.1\r\n\
             Traceparent: 00-0123456789abcdef0123456789abcdef-00000000deadbeef-01\r\n\r\n",
        )
        .unwrap();
        assert_eq!(
            req.traceparent.as_deref(),
            Some("00-0123456789abcdef0123456789abcdef-00000000deadbeef-01")
        );
        let req = roundtrip("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.traceparent, None);
    }

    #[test]
    fn extra_headers_reach_the_client() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            write_response_extra(
                &mut conn,
                &mut Vec::new(),
                200,
                "OK",
                "text/plain",
                "ok",
                true,
                &[("x-autobias-trace-id", "abc123")],
            )
            .unwrap();
        });
        let s = TcpStream::connect(addr).unwrap();
        let mut r = std::io::BufReader::new(s);
        let (status, headers) = read_response_head(&mut r).unwrap();
        assert_eq!(status, 200);
        assert!(headers
            .iter()
            .any(|(n, v)| n == "x-autobias-trace-id" && v == "abc123"));
        let mut body = String::new();
        r.read_to_string(&mut body).unwrap();
        assert_eq!(body, "ok");
        server.join().unwrap();
    }

    #[test]
    fn rejects_oversized_declared_body() {
        let err =
            roundtrip("POST /predict HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::Bad(_)));
    }

    /// SplitMix64: a seeded generator for the property tests below, so they
    /// need no dependency and every failure replays.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.below(items.len() as u64) as usize]
        }

        fn string(&mut self, alphabet: &[char], max_len: u64) -> String {
            let len = self.below(max_len + 1);
            (0..len).map(|_| *self.pick(alphabet)).collect()
        }
    }

    /// A well-formed request and the fields it must parse back to.
    struct Wire {
        bytes: Vec<u8>,
        method: String,
        path: String,
        query: String,
        body: String,
        keep_alive: bool,
        traceparent: Option<String>,
    }

    fn gen_request(rng: &mut Rng) -> Wire {
        let method = rng.pick(&["GET", "POST", "PUT", "DELETE", "PATCH"]);
        let path_chars: Vec<char> = "abcXYZ019-_./%~é".chars().collect();
        let path = format!("/{}", rng.string(&path_chars, 12));
        let query_chars: Vec<char> = "ab1=&?%+/".chars().collect();
        let query = match rng.below(3) {
            0 => String::new(),
            _ => rng.string(&query_chars, 10),
        };
        let target = if query.is_empty() {
            path.clone()
        } else {
            format!("{path}?{query}")
        };
        let http10 = rng.below(3) == 0;
        let connection = *rng.pick(&[None, Some("close"), Some("Keep-Alive"), Some("CLOSE")]);
        let keep_alive = match connection {
            Some(c) => c.eq_ignore_ascii_case("keep-alive"),
            None => !http10,
        };
        let body_chars: Vec<char> = "ab ,\t\r\n#é中😀\u{0}".chars().collect();
        let body = rng.string(&body_chars, 40);
        let eol = *rng.pick(&["\r\n", "\n"]);
        let mut head = format!(
            "{method} {target} HTTP/1.{}{eol}",
            if http10 { 0 } else { 1 }
        );
        let mut headers = vec![
            format!("Host: fuzz{eol}"),
            format!("Content-Length: {}{eol}", body.len()),
            format!("X-Filler: {}{eol}", "f".repeat(rng.below(20) as usize)),
        ];
        if let Some(c) = connection {
            headers.push(format!("Connection: {c}{eol}"));
        }
        let traceparent =
            (rng.below(2) == 0).then(|| format!("00-{:032x}-{:016x}-01", rng.next(), rng.next()));
        if let Some(t) = &traceparent {
            headers.push(format!("traceparent:  {t} {eol}"));
        }
        // Header order is free.
        for i in (1..headers.len()).rev() {
            headers.swap(i, rng.below(i as u64 + 1) as usize);
        }
        head.extend(headers);
        head.push_str(eol);
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(body.as_bytes());
        Wire {
            bytes,
            method: (*method).to_string(),
            path,
            query,
            body,
            keep_alive,
            traceparent,
        }
    }

    #[test]
    fn well_formed_requests_parse_back_to_their_fields() {
        let mut rng = Rng(0x5eed_0004);
        for case in 0..2_000 {
            // Several requests back to back on one reader, as keep-alive
            // connections deliver them.
            let wires: Vec<Wire> = (0..1 + rng.below(3))
                .map(|_| gen_request(&mut rng))
                .collect();
            let stream: Vec<u8> = wires.iter().flat_map(|w| w.bytes.clone()).collect();
            let mut reader = std::io::BufReader::with_capacity(16, &stream[..]);
            // One `Request` for the whole stream, as a connection keeps it.
            let mut req = Request::default();
            for w in &wires {
                let text = String::from_utf8_lossy(&w.bytes);
                read_request_from(&mut reader, &mut req)
                    .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
                assert_eq!(req.method, w.method, "case {case}: {text}");
                assert_eq!(req.path, w.path, "case {case}: {text}");
                assert_eq!(req.query, w.query, "case {case}: {text}");
                assert_eq!(req.body, w.body, "case {case}: {text}");
                assert_eq!(req.keep_alive, w.keep_alive, "case {case}: {text}");
                assert_eq!(req.traceparent, w.traceparent, "case {case}: {text}");
            }
            assert!(matches!(
                read_request_from(&mut reader, &mut req),
                Err(HttpError::Io(_))
            ));
        }
    }

    #[test]
    fn read_request_never_panics_on_arbitrary_bytes() {
        let mut rng = Rng(0x5eed_0005);
        let alphabet =
            b"GETPOST /?:\r\n\r\nContent-Length: 12connection: closeHTTP/1.0\xff\xc3\x00";
        for _ in 0..20_000 {
            let len = rng.below(80) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| match rng.below(3) {
                    0 => rng.next() as u8,
                    _ => *rng.pick(alphabet),
                })
                .collect();
            let mut reader = std::io::BufReader::new(&bytes[..]);
            // Whatever it returns, reading stops: every call consumes input
            // or fails.
            for _ in 0..=len {
                if read_one(&mut reader).is_err() {
                    break;
                }
            }
        }
        // Every truncation and single-byte corruption of a valid request.
        for _ in 0..300 {
            let wire = gen_request(&mut rng).bytes;
            for cut in 0..=wire.len() {
                let _ = read_one(&mut std::io::BufReader::new(&wire[..cut]));
            }
            let mut bad = wire.clone();
            let at = rng.below(bad.len() as u64) as usize;
            bad[at] = rng.next() as u8;
            let _ = read_one(&mut std::io::BufReader::new(&bad[..]));
        }
    }

    #[test]
    fn chunked_writer_and_reader_roundtrip() {
        let mut wire = Vec::new();
        write_stream_head(&mut wire, 200, "OK", "text/event-stream").unwrap();
        write_chunk(&mut wire, b"event: a\ndata: {}\n\n").unwrap();
        write_chunk(&mut wire, b"").unwrap(); // skipped, must not terminate
        write_chunk(&mut wire, "event: b\ndata: {\"n\":1}\n\n".as_bytes()).unwrap();
        finish_chunked(&mut wire).unwrap();

        let mut r = std::io::BufReader::new(&wire[..]);
        let (status, headers) = read_response_head(&mut r).unwrap();
        assert_eq!(status, 200);
        assert!(headers
            .iter()
            .any(|(n, v)| n == "transfer-encoding" && v == "chunked"));
        assert!(headers
            .iter()
            .any(|(n, v)| n == "content-type" && v == "text/event-stream"));

        let mut chunks = ChunkedReader::new(r);
        assert_eq!(
            chunks.next_chunk().unwrap().as_deref(),
            Some(b"event: a\ndata: {}\n\n".as_slice())
        );
        assert_eq!(
            chunks.next_chunk().unwrap().as_deref(),
            Some("event: b\ndata: {\"n\":1}\n\n".as_bytes())
        );
        assert_eq!(chunks.next_chunk().unwrap(), None);
        assert_eq!(chunks.next_chunk().unwrap(), None, "stays done");
    }

    #[test]
    fn chunked_reader_handles_abrupt_close_and_garbage() {
        // Abrupt close (no zero chunk) ends the stream cleanly.
        let wire = b"5\r\nhello\r\n";
        let mut chunks = ChunkedReader::new(std::io::BufReader::new(&wire[..]));
        assert_eq!(
            chunks.next_chunk().unwrap().as_deref(),
            Some(b"hello".as_slice())
        );
        assert_eq!(chunks.next_chunk().unwrap(), None);

        // A non-hex size line is an error, not a hang.
        let wire = b"zzz\r\n";
        let mut chunks = ChunkedReader::new(std::io::BufReader::new(&wire[..]));
        assert!(chunks.next_chunk().is_err());
    }

    #[test]
    fn chunked_reader_rejects_data_not_followed_by_crlf() {
        let wire = b"3\r\nabcXY0\r\n\r\n";
        let mut chunks = ChunkedReader::new(&wire[..]);
        let err = chunks.next_chunk().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // The zero chunk's own CRLF is checked too.
        let mut chunks = ChunkedReader::new(&b"0\r\nXY"[..]);
        assert_eq!(
            chunks.next_chunk().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn a_head_line_without_a_newline_stops_at_the_cap() {
        // 64 MiB of one header line and no newline: refused once the head
        // passes its cap, without buffering the rest.
        let probe = b"GET / HTTP/1.1\r\nX-Long: ".chain(std::io::repeat(b'a').take(64 << 20));
        let mut reader = std::io::BufReader::new(probe);
        let mut req = Request::default();
        match read_request_from(&mut reader, &mut req) {
            Err(HttpError::Bad(m)) => assert_eq!(m, "header block too large"),
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert!(
            req.head.capacity() <= 4 * MAX_HEAD_BYTES,
            "head grew to {} bytes of capacity",
            req.head.capacity()
        );
        // A two-byte character cut by the cap (the header line gets an odd
        // number of bytes): still too large, not a UTF-8 error.
        let mut wire = b"GET / HTTP/1.1\r\nX-Long: ".to_vec();
        wire.extend("é".repeat(MAX_HEAD_BYTES).bytes());
        match read_request_from(&mut &wire[..], &mut Request::default()) {
            Err(HttpError::Bad(m)) => assert_eq!(m, "header block too large"),
            other => panic!("expected a refusal, got {other:?}"),
        }
        // A head of exactly the cap still parses.
        let mut wire = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        wire.resize(MAX_HEAD_BYTES - 4, b'p');
        wire.extend_from_slice(b"\r\n\r\n");
        let mut req = Request::default();
        read_request_from(&mut &wire[..], &mut req).unwrap();
        assert_eq!(req.path, "/");
    }

    #[test]
    fn chunked_reader_caps_the_size_line() {
        // An endless size line stops at the cap instead of filling memory.
        let mut endless = std::io::repeat(b'0');
        let mut chunks = ChunkedReader::new(std::io::BufReader::new(&mut endless));
        let err = chunks.next_chunk().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // Just under the cap still parses (leading zeros, then `5`).
        let mut wire = "0".repeat(MAX_HEAD_BYTES - 3).into_bytes();
        wire.extend_from_slice(b"5\r\nhello\r\n0\r\n\r\n");
        let mut chunks = ChunkedReader::new(&wire[..]);
        assert_eq!(chunks.next_chunk().unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(chunks.next_chunk().unwrap(), None);
    }

    /// Every chunk `ChunkedReader` returns from `wire`, up to the first
    /// error.
    fn read_chunks(wire: &[u8]) -> io::Result<Vec<Vec<u8>>> {
        let mut chunks = ChunkedReader::new(wire);
        let mut out = Vec::new();
        while let Some(chunk) = chunks.next_chunk()? {
            out.push(chunk);
        }
        Ok(out)
    }

    /// Random chunk payloads, SSE frames of every progress-event kind among
    /// them, and the chunked stream the server writes for them.
    fn gen_chunked(rng: &mut Rng) -> (Vec<Vec<u8>>, Vec<u8>) {
        let frames = [
            crate::server::sse_frame(
                "trace",
                &obs::json::Json::obj([("event", "trace".into()), ("trace_id", "0af7".into())]),
            ),
            crate::server::sse_frame(
                "clause_accepted",
                &obs::progress::ProgressEvent::ClauseAccepted {
                    iteration: 1,
                    covered_pos: 6,
                    covered_neg: 0,
                    precision: 1.0,
                    literals: 2,
                    uncovered_after: 4,
                    clause: "t(x) ← r(x, \"y\r\n0\r\n\")".to_string(),
                }
                .to_json(),
            ),
            ": keep-alive\n\n".to_string(),
        ];
        let chars: Vec<char> = "ab0\r\n;:é😀".chars().collect();
        let chunks: Vec<Vec<u8>> = (0..rng.below(6))
            .map(|_| match rng.below(3) {
                0 => rng.pick(&frames).clone().into_bytes(),
                1 => rng.string(&chars, 40).into_bytes(),
                _ => (0..rng.below(300)).map(|_| rng.next() as u8).collect(),
            })
            .filter(|c| !c.is_empty())
            .collect();
        let mut wire = Vec::new();
        for chunk in &chunks {
            write_chunk(&mut wire, chunk).unwrap();
        }
        finish_chunked(&mut wire).unwrap();
        (chunks, wire)
    }

    #[test]
    fn written_chunked_streams_read_back_chunk_for_chunk() {
        let mut rng = Rng(0x5eed_0006);
        for case in 0..2_000 {
            let (chunks, wire) = gen_chunked(&mut rng);
            let mut full = Vec::new();
            write_stream_head(&mut full, 200, "OK", "text/event-stream").unwrap();
            full.extend_from_slice(&wire);
            let mut r = std::io::BufReader::with_capacity(16, &full[..]);
            assert_eq!(read_response_head(&mut r).unwrap().0, 200);
            let mut reader = ChunkedReader::new(r);
            for (i, chunk) in chunks.iter().enumerate() {
                let got = reader.next_chunk();
                assert_eq!(got.unwrap().as_ref(), Some(chunk), "case {case} chunk {i}");
            }
            assert_eq!(reader.next_chunk().unwrap(), None, "case {case}");
        }
    }

    #[test]
    fn chunked_reader_never_panics_on_arbitrary_bytes() {
        let mut rng = Rng(0x5eed_0007);
        let alphabet = b"0123456789abcdefABCDEF;\r\n\r\n \xff\x00";
        for _ in 0..20_000 {
            let len = rng.below(80) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| match rng.below(3) {
                    0 => rng.next() as u8,
                    _ => *rng.pick(alphabet),
                })
                .collect();
            // Every call consumes input or ends the stream, so this stops.
            let _ = read_chunks(&bytes);
        }
        // Every truncation and a corruption of valid streams: a truncated
        // stream never reads back a chunk it did not hold in full.
        for _ in 0..300 {
            let (chunks, wire) = gen_chunked(&mut rng);
            for cut in 0..=wire.len() {
                if let Ok(got) = read_chunks(&wire[..cut]) {
                    assert!(chunks.starts_with(&got), "cut {cut}");
                }
            }
            let mut bad = wire.clone();
            let at = rng.below(bad.len() as u64) as usize;
            bad[at] = rng.next() as u8;
            let _ = read_chunks(&bad);
        }
    }
}
