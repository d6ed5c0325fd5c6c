//! Minimal HTTP/1.1 client for the sim server: one request per connection
//! (`Connection: close`), with the arrival time of the first body line so
//! a streamed response's first event can be timed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// When the first complete body line arrived.
    pub first_line_at: Option<Instant>,
}

impl Response {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    pub fn json(&self) -> Result<serde_json::Value, String> {
        let text =
            std::str::from_utf8(&self.body).map_err(|e| format!("body is not UTF-8: {e}"))?;
        serde_json::from_str(text).map_err(|e| format!("bad JSON body: {e}"))
    }
}

pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut conn = TcpStream::connect(addr).map_err(io)?;
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(io)?;
    let body = body.unwrap_or("");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: sim\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(io)?;
    conn.flush().map_err(io)?;

    let mut raw = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut header_end = None;
    let mut first_line_at = None;
    loop {
        let n = conn.read(&mut chunk).map_err(io)?;
        if n == 0 {
            break;
        }
        let old_len = raw.len();
        raw.extend_from_slice(&chunk[..n]);
        if header_end.is_none() {
            header_end = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
        }
        if first_line_at.is_none() {
            if let Some(start) = header_end {
                // Only the bytes that just arrived can hold the first line.
                if raw[start.max(old_len)..].contains(&b'\n') {
                    first_line_at = Some(Instant::now());
                }
            }
        }
    }
    let start = header_end.ok_or_else(|| format!("{method} {path}: no header terminator"))?;
    let status = std::str::from_utf8(&raw[..start])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed status line"))?;
    raw.drain(..start);
    Ok(Response {
        status,
        body: raw,
        first_line_at,
    })
}
