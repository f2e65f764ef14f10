//! Hand-rolled HTTP/1.1 message framing (the workspace is offline and
//! `std`-only, per the `vendor/` no-external-deps pattern).
//!
//! Implements exactly the subset the front door needs: request-line +
//! header parsing, `Content-Length` bodies with a size cap, responses
//! with either a fixed body or `Transfer-Encoding: chunked` streaming
//! (used by `POST /batch` to push per-query results as they finish),
//! and keep-alive semantics (`HTTP/1.1` defaults to persistent,
//! `Connection: close` or `HTTP/1.0` ends the connection).

use std::io::{BufRead, Read, Write};

/// Upper bound on a request head (request line + headers) in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default upper bound on a request body in bytes.
pub const DEFAULT_MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Most body bytes reserved before any arrive.
const BODY_RESERVE: usize = 64 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, query string included (e.g. `/query`).
    pub path: String,
    /// `(name, value)` pairs; names are lowercased at parse time.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if valid.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed the connection before sending a request line.
    ConnectionClosed,
    /// Malformed request line, header, or framing.
    Malformed(String),
    /// The head or body exceeded its size cap.
    TooLarge(String),
    /// Reading from the socket failed (timeouts land here).
    Io(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed"),
            ParseError::Malformed(m) => write!(f, "malformed request: {m}"),
            ParseError::TooLarge(m) => write!(f, "request too large: {m}"),
            ParseError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

/// Reads one line terminated by `\r\n` (or bare `\n`), without the
/// terminator, bounded by the head's remaining `budget`. The line is
/// found in the reader's buffer, so a head costs one `read` per buffer
/// fill rather than one per byte.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, ParseError> {
    let mut line = Vec::new();
    loop {
        let buffered = reader
            .fill_buf()
            .map_err(|e| ParseError::Io(e.to_string()))?;
        if buffered.is_empty() {
            if line.is_empty() {
                return Err(ParseError::ConnectionClosed);
            }
            return Err(ParseError::Malformed("truncated line".into()));
        }
        let newline = buffered.iter().position(|&b| b == b'\n');
        let taken = newline.map_or(buffered.len(), |i| i + 1);
        if taken > *budget {
            return Err(ParseError::TooLarge("request head".into()));
        }
        *budget -= taken;
        line.extend_from_slice(&buffered[..taken]);
        reader.consume(taken);
        if newline.is_some() {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| ParseError::Malformed("non-UTF-8 header".into()));
        }
    }
}

/// Appends exactly `len` bytes from `reader` to `out`. `out` grows with
/// the bytes that arrive rather than by `len` up front, so a peer that
/// declares a huge length and sends little costs little.
fn read_declared(
    reader: &mut impl BufRead,
    len: usize,
    out: &mut Vec<u8>,
) -> Result<(), ParseError> {
    let received = reader
        .take(len as u64)
        .read_to_end(out)
        .map_err(|e| ParseError::Io(e.to_string()))?;
    if received < len {
        return Err(ParseError::Io(format!(
            "connection closed after {received} of {len} declared bytes"
        )));
    }
    Ok(())
}

/// Parses one request from the stream. `max_body` caps the
/// `Content-Length` a client may declare.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, ParseError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(reader, &mut budget)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing request target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let http10 = version == "HTTP/1.0";
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Malformed(format!("header without colon: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| ParseError::Malformed(format!("bad content-length {v:?}")))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(ParseError::TooLarge(format!(
            "body of {content_length} bytes exceeds the {max_body}-byte cap"
        )));
    }
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ParseError::Malformed(
            "chunked request bodies are not supported".into(),
        ));
    }
    let mut body = Vec::with_capacity(content_length.min(BODY_RESERVE));
    read_declared(reader, content_length, &mut body)?;
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => !http10,
    };
    Ok(Request {
        method,
        path,
        headers,
        body,
        keep_alive,
    })
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (e.g. 200).
    pub status: u16,
    /// Extra headers beyond the framing ones the writer adds itself.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a JSON body.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into().into_bytes(),
        }
    }

    /// A response with a plain-text body.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain; version=0.0.4".into())],
            body: body.into().into_bytes(),
        }
    }

    /// Appends a header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }
}

/// The standard reason phrase for the status codes the front door emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response in one `write_all`: head
/// and body as two writes would leave the socket (`TCP_NODELAY`) as two
/// segments and wake the reader twice.
pub fn write_response(
    stream: &mut impl Write,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut message = Vec::with_capacity(256 + response.body.len());
    write!(
        message,
        "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in &response.headers {
        write!(message, "{name}: {value}\r\n")?;
    }
    message.extend_from_slice(b"\r\n");
    message.extend_from_slice(&response.body);
    stream.write_all(&message)?;
    stream.flush()
}

/// A `Transfer-Encoding: chunked` response writer: the head goes out on
/// construction, each [`chunk`](ChunkedWriter::chunk) streams
/// immediately, and [`finish`](ChunkedWriter::finish) writes the final
/// zero-length chunk.
pub struct ChunkedWriter<'a, W: Write> {
    stream: &'a mut W,
    finished: bool,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Writes the response head and returns the chunk writer.
    pub fn start(
        stream: &'a mut W,
        status: u16,
        content_type: &str,
        keep_alive: bool,
    ) -> std::io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nTransfer-Encoding: chunked\r\nContent-Type: {}\r\nConnection: {}\r\n\r\n",
            status,
            reason(status),
            content_type,
            if keep_alive { "keep-alive" } else { "close" },
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter {
            stream,
            finished: false,
        })
    }

    /// Streams one chunk (non-empty; an empty slice is skipped because a
    /// zero-length chunk would terminate the stream). The size line, the
    /// data and the closing CRLF go out in one `write_all`, as one
    /// segment.
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut frame = Vec::with_capacity(20 + data.len());
        write!(frame, "{:x}\r\n", data.len())?;
        frame.extend_from_slice(data);
        frame.extend_from_slice(b"\r\n");
        self.stream.write_all(&frame)?;
        self.stream.flush()
    }

    /// Terminates the stream with the zero-length chunk.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.finished = true;
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Decodes a chunked body from a buffered reader (the client side of
/// streamed `/batch` responses). Returns the reassembled payload.
pub fn read_chunked_body(reader: &mut impl BufRead) -> Result<Vec<u8>, ParseError> {
    let mut body = Vec::new();
    loop {
        let mut size_line = String::new();
        reader
            .read_line(&mut size_line)
            .map_err(|e| ParseError::Io(e.to_string()))?;
        let size_str = size_line.trim().split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| ParseError::Malformed(format!("bad chunk size {size_str:?}")))?;
        if size == 0 {
            // consume the trailing CRLF (and ignore any trailers)
            let mut line = String::new();
            loop {
                line.clear();
                let n = reader
                    .read_line(&mut line)
                    .map_err(|e| ParseError::Io(e.to_string()))?;
                if n == 0 || line.trim().is_empty() {
                    break;
                }
            }
            return Ok(body);
        }
        read_declared(reader, size, &mut body)?;
        let mut crlf = [0u8; 2];
        reader
            .read_exact(&mut crlf)
            .map_err(|e| ParseError::Io(e.to_string()))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn chunked_writer_round_trips_through_the_decoder() {
        let mut buf = Vec::new();
        {
            let mut w = ChunkedWriter::start(&mut buf, 200, "application/x-ndjson", true).unwrap();
            w.chunk(b"{\"a\":1}\n").unwrap();
            w.chunk(b"").unwrap(); // skipped, must not terminate
            w.chunk(b"{\"b\":2}\n").unwrap();
            w.finish().unwrap();
        }
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked"));
        // skip the head, decode the chunked body
        let body_at = text.find("\r\n\r\n").unwrap() + 4;
        let mut reader = Cursor::new(&buf[body_at..]);
        let body = read_chunked_body(&mut reader).unwrap();
        assert_eq!(body, b"{\"a\":1}\n{\"b\":2}\n");
        // a chunk size no server could send is an error, not an
        // allocation of that size
        let huge = read_chunked_body(&mut Cursor::new(b"7fffffffffffffff\r\nabc"));
        assert!(matches!(huge, Err(ParseError::Io(_))), "{huge:?}");
    }

    #[test]
    fn parses_requests_with_bodies_and_keep_alive_rules() {
        let raw = b"POST /query HTTP/1.1\r\nHost: x\r\nAuthorization: Bearer tok\r\nContent-Length: 9\r\n\r\n{\"q\":\"a\"}";
        let mut reader = Cursor::new(raw.to_vec());
        let req = read_request(&mut reader, 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.header("authorization"), Some("Bearer tok"));
        assert_eq!(req.body_utf8(), Some("{\"q\":\"a\"}"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");

        let raw = b"GET /healthz HTTP/1.0\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw.to_vec()), 1024).unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");

        let raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw.to_vec()), 1024).unwrap();
        assert!(!req.keep_alive);

        // declared body beyond the cap is refused up front
        let raw = b"POST /query HTTP/1.1\r\nContent-Length: 99\r\n\r\n";
        match read_request(&mut Cursor::new(raw.to_vec()), 10) {
            Err(ParseError::TooLarge(_)) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // EOF before any bytes is a clean close, not an error message
        assert_eq!(
            read_request(&mut Cursor::new(Vec::new()), 10),
            Err(ParseError::ConnectionClosed)
        );
        // garbage is malformed
        assert!(matches!(
            read_request(&mut Cursor::new(b"nonsense\r\n\r\n".to_vec()), 10),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn response_writer_emits_well_formed_head() {
        let mut buf = Vec::new();
        let resp = Response::json(429, "{}").with_header("Retry-After", "2");
        write_response(&mut buf, &resp, false).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// Records every `write` call separately.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_and_a_chunk_each_go_out_in_one_write() {
        let mut out = CountingWriter::default();
        let resp = Response::json(200, "{\"a\":1}").with_header("Retry-After", "2");
        write_response(&mut out, &resp, true).unwrap();
        assert_eq!(
            out.writes,
            [
                b"HTTP/1.1 200 OK\r\nContent-Length: 7\r\nConnection: keep-alive\r\n\
               Content-Type: application/json\r\nRetry-After: 2\r\n\r\n{\"a\":1}"
                    .to_vec()
            ]
        );

        let mut out = CountingWriter::default();
        let mut w = ChunkedWriter::start(&mut out, 200, "application/x-ndjson", false).unwrap();
        w.chunk(b"{\"a\":1}\n").unwrap();
        w.chunk(&[b'x'; 300]).unwrap();
        w.finish().unwrap();
        let mut long = b"12c\r\n".to_vec();
        long.extend_from_slice(&[b'x'; 300]);
        long.extend_from_slice(b"\r\n");
        assert_eq!(
            out.writes,
            [
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\
                  Content-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
                    .to_vec(),
                b"8\r\n{\"a\":1}\n\r\n".to_vec(),
                long,
                b"0\r\n\r\n".to_vec(),
            ]
        );
    }

    /// Parses `raw` once from a reader that yields one byte per `read`
    /// and once from one that holds it all, and requires the same outcome.
    fn read_both_ways(raw: &[u8], max_body: usize) -> Result<Request, ParseError> {
        let bytewise = read_request(&mut std::io::BufReader::with_capacity(1, raw), max_body);
        let whole = read_request(&mut Cursor::new(raw), max_body);
        assert_eq!(bytewise, whole);
        whole
    }

    #[test]
    fn a_request_parses_the_same_however_its_bytes_arrive() {
        let raw =
            b"POST /batch?x=1 HTTP/1.1\r\nHost: x\nX-Empty:\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_both_ways(raw, 1024).unwrap();
        assert_eq!(req.path, "/batch?x=1");
        assert_eq!(req.header("x-empty"), Some(""));
        assert_eq!(req.body, b"hello");
        for (raw, expected) in [
            (&b""[..], ParseError::ConnectionClosed),
            (
                b"GET / HTTP/1.1\r\nHost",
                ParseError::Malformed("truncated line".into()),
            ),
            (
                b"GET / HTTP/1.1\r\n\xff: x\r\n\r\n",
                ParseError::Malformed("non-UTF-8 header".into()),
            ),
        ] {
            assert_eq!(read_both_ways(raw, 1024), Err(expected));
        }
        // a body cut short is an i/o error either way
        let short = read_both_ways(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc", 1024);
        assert!(matches!(short, Err(ParseError::Io(_))), "{short:?}");
    }

    #[test]
    fn a_head_of_exactly_the_cap_parses_and_one_byte_more_does_not() {
        let start = "GET /healthz HTTP/1.1\r\nX-Pad: ";
        let pad = |len: usize| "a".repeat(len - start.len() - "\r\n\r\n".len());
        let head = |len: usize| format!("{start}{}\r\n\r\n", pad(len)).into_bytes();
        let at_cap = head(MAX_HEAD_BYTES);
        assert_eq!(at_cap.len(), MAX_HEAD_BYTES);
        let req = read_both_ways(&at_cap, 0).unwrap();
        assert_eq!(req.header("x-pad"), Some(pad(MAX_HEAD_BYTES).as_str()));
        assert_eq!(
            read_both_ways(&head(MAX_HEAD_BYTES + 1), 0),
            Err(ParseError::TooLarge("request head".into()))
        );
    }

    #[test]
    fn reason_phrases_cover_the_error_mapping() {
        for status in [200, 400, 404, 405, 408, 413, 422, 429, 499, 500, 503, 504] {
            assert_ne!(reason(status), "Unknown", "{status}");
        }
        assert_eq!(reason(418), "Unknown");
    }
}
