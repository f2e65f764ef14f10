//! A minimal keep-alive HTTP/1.1 client that counts response bytes and
//! timestamps each NDJSON line of a chunked `/batch` response as it
//! arrives.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Response bytes read so far (status line, headers and body).
    pub bytes_in: u64,
}

/// One answered line: its arrival time and text.
pub struct Line {
    pub at: Instant,
    pub text: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(120))).ok();
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            stream,
            reader,
            bytes_in: 0,
        })
    }

    /// Sends one POST and returns the status plus the body split into
    /// lines, each stamped with the time it was complete.
    pub fn post(&mut self, path: &str, body: &str) -> Result<(u16, Vec<Line>), String> {
        let message = format!(
            "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(message.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let status_line = self.line()?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut length = None;
        let mut chunked = false;
        loop {
            let h = self.line()?;
            if h.is_empty() {
                break;
            }
            let lower = h.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                length = v.trim().parse::<usize>().ok();
            } else if lower.starts_with("transfer-encoding:") && lower.contains("chunked") {
                chunked = true;
            }
        }
        let mut lines = Vec::new();
        let mut pending = Vec::new();
        if chunked {
            loop {
                let size_line = self.line()?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| format!("bad chunk size {size_line:?}"))?;
                if size == 0 {
                    self.line()?;
                    break;
                }
                pending.extend(self.exact(size)?);
                self.exact(2)?;
                split_lines(&mut pending, &mut lines);
            }
        } else {
            let n = length.ok_or("response without content-length")?;
            pending = self.exact(n)?;
            pending.push(b'\n');
            split_lines(&mut pending, &mut lines);
        }
        Ok((status, lines))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut s = String::new();
        let n = self
            .reader
            .read_line(&mut s)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed".into());
        }
        self.bytes_in += n as u64;
        Ok(s.trim_end_matches(['\r', '\n']).to_string())
    }

    fn exact(&mut self, n: usize) -> Result<Vec<u8>, String> {
        let mut buf = vec![0u8; n];
        self.reader
            .read_exact(&mut buf)
            .map_err(|e| format!("read body: {e}"))?;
        self.bytes_in += n as u64;
        Ok(buf)
    }
}

fn split_lines(pending: &mut Vec<u8>, out: &mut Vec<Line>) {
    while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
        let rest = pending.split_off(pos + 1);
        let mut line = std::mem::replace(pending, rest);
        line.pop();
        if !line.is_empty() {
            out.push(Line {
                at: Instant::now(),
                text: String::from_utf8_lossy(&line).into_owned(),
            });
        }
    }
}

/// The JSON body of `POST /query`.
pub fn query_body(text: &str, eps: f64) -> String {
    format!("{{\"query\": {}, \"eps\": {eps:?}}}", json_str(text))
}

/// The JSON body of `POST /batch` with per-element objects.
pub fn batch_body<'a>(queries: impl Iterator<Item = (&'a str, f64)>) -> String {
    let elements: Vec<String> = queries.map(|(t, e)| query_body(t, e)).collect();
    format!("{{\"queries\": [{}]}}", elements.join(", "))
}

fn json_str(s: &str) -> String {
    infpdb_core::json::Json::str(s).encode()
}
