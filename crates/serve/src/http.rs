//! Minimal HTTP/1.1 framing over `std::net` streams.
//!
//! The service speaks a deliberately small subset: one request per
//! connection (`Connection: close`), `Content-Length`-framed bodies, and an
//! `x-swlb-crc32` trailer-in-header carrying the workspace CRC-32 of the body
//! (via [`swlb_comm::frame::body_crc`]) so a damaged control-plane message is
//! rejected exactly like a damaged halo frame. Event streams are
//! `application/x-ndjson` bodies written line-by-line until the connection
//! closes — no chunked encoding needed.
//!
//! [`Listener`] is the one accept loop under both control planes (the serve
//! tier and the fleet controller): connections are handled on short-lived
//! threads that it spawns, bounds with socket deadlines, reaps, and joins on
//! shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use swlb_comm::frame::body_crc;
use swlb_obs::SwlbError;

/// Upper bound on accepted body size (1 MiB): admission control for the
/// control plane itself.
pub const MAX_BODY: usize = 1 << 20;

/// Body bound for data-plane transfers (checkpoint payloads riding the fleet
/// migration routes): 1 GiB covers the largest checkpoint the solver bounds
/// allow (`MAX_CELLS` cells × Q27 × 8 B ≈ 906 MiB) with framing headroom.
/// Only the worker-mode routes accept bodies this large.
pub const MAX_DATA_BODY: usize = 1 << 30;

/// The body-integrity header name.
pub const CRC_HEADER: &str = "x-swlb-crc32";

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Method verb (uppercased by the client conventions; matched exactly).
    pub method: String,
    /// Path with query string still attached.
    pub target: String,
    /// Lowercased header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (CRC-verified when the header was present).
    pub body: Vec<u8>,
}

impl Request {
    /// Header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Path without the query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Value of a `key=value` query parameter.
    pub fn query(&self, key: &str) -> Option<&str> {
        let q = self.target.split_once('?')?.1;
        q.split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Read and verify one request from `stream` (control-plane body limit).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, SwlbError> {
    read_request_with_limit(stream, MAX_BODY)
}

/// Read and verify one request, accepting bodies up to `max_body` — the
/// worker-mode data plane raises the limit to [`MAX_DATA_BODY`] so whole
/// checkpoints can ride a migration push.
pub fn read_request_with_limit(
    stream: &mut TcpStream,
    max_body: usize,
) -> Result<Request, SwlbError> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_string(), t.to_string(), v),
        _ => return Err(SwlbError::CorruptData(format!("bad request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(SwlbError::CorruptData(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        reader.read_line(&mut h)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let Some((k, v)) = h.split_once(':') else {
            return Err(SwlbError::CorruptData(format!("bad header line {h:?}")));
        };
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse())
        .transpose()
        .map_err(|_| SwlbError::CorruptData("bad content-length".into()))?
        .unwrap_or(0);
    if len > max_body {
        return Err(SwlbError::CorruptData(format!(
            "body of {len} B exceeds the {max_body} B limit"
        )));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let req = Request {
        method,
        target,
        headers,
        body,
    };
    if let Some(stated) = req.header(CRC_HEADER) {
        let stated: u32 = stated
            .parse()
            .map_err(|_| SwlbError::CorruptData("bad x-swlb-crc32 header".into()))?;
        let actual = body_crc(&req.body);
        if stated != actual {
            return Err(SwlbError::CorruptData(format!(
                "body CRC mismatch: stated {stated:#010x}, computed {actual:#010x}"
            )));
        }
    }
    Ok(req)
}

/// Reason phrases for the statuses the service uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete CRC-stamped response and flush.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n{CRC_HEADER}: {}\r\nconnection: close\r\n\r\n",
        reason(status),
        body.len(),
        body_crc(body),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Start a streaming NDJSON response: headers only, no `Content-Length`; the
/// caller writes JSON lines and the stream ends when the connection closes.
pub fn write_stream_head(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\nconnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// A bound TCP listener plus the threads serving it: one acceptor and one
/// short-lived handler per connection.
///
/// Shutdown is two calls so the owner can stop its own worker thread in
/// between: [`Listener::stop_accepting`], then [`Listener::join_handlers`].
pub struct Listener {
    socket: Option<TcpListener>,
    addr: SocketAddr,
    accepting: Arc<AtomicBool>,
    /// Returns the handlers still tracked when it stopped.
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    handlers: Vec<JoinHandle<()>>,
}

impl Listener {
    /// Bind `addr` (`127.0.0.1:0` picks a free loopback port). Connections
    /// queue in the OS backlog until [`Listener::start`].
    pub fn bind(addr: &str) -> std::io::Result<Listener> {
        let socket = TcpListener::bind(addr)?;
        Ok(Listener {
            addr: socket.local_addr()?,
            socket: Some(socket),
            accepting: Arc::new(AtomicBool::new(true)),
            acceptor: None,
            handlers: Vec::new(),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Spawn the acceptor. Every connection gets `io_timeout` as its read and
    /// write deadline — bounding how long a hung or dead client can pin a
    /// handler thread (and thereby graceful drain) — and its own thread
    /// running `handler`.
    pub fn start(
        &mut self,
        io_timeout: Option<Duration>,
        handler: impl Fn(TcpStream) + Send + Sync + 'static,
    ) {
        let socket = self.socket.take().expect("Listener::start called twice");
        let accepting = self.accepting.clone();
        let handler = Arc::new(handler);
        self.acceptor = Some(std::thread::spawn(move || {
            let mut live: Vec<JoinHandle<()>> = Vec::new();
            for conn in socket.incoming() {
                if !accepting.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let _ = stream.set_read_timeout(io_timeout);
                let _ = stream.set_write_timeout(io_timeout);
                // Reap finished handlers: an unjoined thread keeps its stack
                // mapped, so a long-lived process would otherwise grow by one
                // mapping per connection ever served until spawn fails.
                let mut i = 0;
                while i < live.len() {
                    if live[i].is_finished() {
                        let _ = live.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                let handler = handler.clone();
                // An OS refusal (EAGAIN) drops this connection — the closure
                // owns the stream — instead of panicking the accept loop.
                if let Ok(h) = std::thread::Builder::new().spawn(move || handler(stream)) {
                    live.push(h);
                }
            }
            live
        }));
    }

    /// Stop taking connections and join the acceptor. Handlers already
    /// running keep running.
    pub fn stop_accepting(&mut self) {
        self.accepting.store(false, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept() with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            self.handlers = h.join().unwrap_or_default();
        }
    }

    /// Join every handler thread (call after [`Listener::stop_accepting`]).
    pub fn join_handlers(&mut self) {
        for h in self.handlers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Send `request` over a fresh connection and read the full response.
/// Returns `(status, body)`; verifies the response CRC header when present.
pub fn roundtrip(
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), SwlbError> {
    roundtrip_with_limit(addr, method, target, body, MAX_BODY)
}

/// [`roundtrip`] with an explicit response-body bound — the fleet controller
/// pulling a migration envelope accepts up to [`MAX_DATA_BODY`].
pub fn roundtrip_with_limit(
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
    max_body: usize,
) -> Result<(u16, Vec<u8>), SwlbError> {
    exchange(TcpStream::connect(addr)?, method, target, body, max_body)
}

/// [`roundtrip`] with `timeout` bounding the connect and every read and
/// write, so a caller that must stay joinable (the worker's wake notifier)
/// cannot hang on an unreachable peer. `None` leaves the OS defaults.
pub fn roundtrip_timeout(
    addr: &SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
    timeout: Option<Duration>,
) -> Result<(u16, Vec<u8>), SwlbError> {
    let stream = match timeout {
        Some(t) => TcpStream::connect_timeout(addr, t)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    exchange(stream, method, target, body, MAX_BODY)
}

/// One request out, one full CRC-verified response back, on `stream`.
fn exchange(
    mut stream: TcpStream,
    method: &str,
    target: &str,
    body: &[u8],
    max_body: usize,
) -> Result<(u16, Vec<u8>), SwlbError> {
    send_request(&mut stream, method, target, body)?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_response_head(&mut reader)?;
    let mut resp_body = Vec::new();
    if let Some(len) = header_of(&headers, "content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| SwlbError::CorruptData("bad content-length".into()))?;
        if len > max_body {
            return Err(SwlbError::CorruptData("response too large".into()));
        }
        resp_body.resize(len, 0);
        reader.read_exact(&mut resp_body)?;
    } else {
        reader.read_to_end(&mut resp_body)?;
    }
    if let Some(stated) = header_of(&headers, CRC_HEADER) {
        let stated: u32 = stated
            .parse()
            .map_err(|_| SwlbError::CorruptData("bad x-swlb-crc32 header".into()))?;
        let actual = body_crc(&resp_body);
        if stated != actual {
            return Err(SwlbError::CorruptData(format!(
                "response CRC mismatch: stated {stated:#010x}, computed {actual:#010x}"
            )));
        }
    }
    Ok((status, resp_body))
}

/// Write one CRC-stamped request (client side).
pub fn send_request(
    stream: &mut TcpStream,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: swlb\r\ncontent-length: {}\r\n{CRC_HEADER}: {}\r\nconnection: close\r\n\r\n",
        body.len(),
        body_crc(body),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Parse a response status line + headers (client side).
pub fn read_response_head(
    reader: &mut BufReader<TcpStream>,
) -> Result<(u16, Vec<(String, String)>), SwlbError> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| SwlbError::CorruptData(format!("bad status line {line:?}")))?;
    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        reader.read_line(&mut h)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    Ok((status, headers))
}

fn header_of<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_roundtrip_with_crc() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path(), "/v1/jobs");
            assert_eq!(req.query("from"), Some("3"));
            assert_eq!(req.body, b"{\"x\":1}");
            write_response(&mut s, 200, "application/json", b"{\"ok\":true}").unwrap();
        });
        let (status, body) = roundtrip(&addr, "POST", "/v1/jobs?from=3", b"{\"x\":1}").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn corrupted_body_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_request(&mut s)
        });
        // Hand-roll a request whose CRC header disagrees with the body.
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(
            b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 4\r\nx-swlb-crc32: 1\r\n\r\nabcd",
        )
        .unwrap();
        c.flush().unwrap();
        match server.join().unwrap() {
            Err(SwlbError::CorruptData(m)) => assert!(m.contains("CRC"), "{m}"),
            other => panic!("expected CRC rejection, got {other:?}"),
        }
    }

    #[test]
    fn oversized_body_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_request(&mut s)
        });
        let mut c = TcpStream::connect(addr).unwrap();
        let head = format!("POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        c.write_all(head.as_bytes()).unwrap();
        c.flush().unwrap();
        assert!(matches!(
            server.join().unwrap(),
            Err(SwlbError::CorruptData(_))
        ));
    }

    #[test]
    fn listener_reaps_finished_handlers_and_joins_the_rest() {
        let mut listener = Listener::bind("127.0.0.1:0").unwrap();
        listener.start(Some(Duration::from_secs(10)), |mut s| {
            if read_request(&mut s).is_ok() {
                let _ = write_response(&mut s, 200, "application/json", b"{}");
            }
        });
        let addr = listener.addr().to_string();
        for _ in 0..300 {
            let (status, _) = roundtrip(&addr, "GET", "/", b"").unwrap();
            assert_eq!(status, 200);
        }
        listener.stop_accepting();
        // Every accept reaps what finished before it, so a sequential client
        // leaves a handful of handles at most — not one per request served.
        let tracked = listener.handlers.len();
        assert!(
            tracked <= 8,
            "{tracked} handler threads tracked after 300 requests"
        );
        listener.join_handlers();
        assert!(listener.handlers.is_empty());
        assert!(
            roundtrip(&addr, "GET", "/", b"").is_err(),
            "socket is closed"
        );
    }
}
