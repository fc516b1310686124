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

/// Upper bound on a message head — the request or status line plus every
/// header line (16 KiB; the heads this protocol writes are under 200 B).
pub const MAX_HEAD: usize = 16 << 10;

/// Upper bound on the number of header lines in a message head.
pub const MAX_HEADERS: usize = 64;

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
pub fn read_request(stream: &mut impl Read) -> Result<Request, SwlbError> {
    read_request_with_limit(stream, MAX_BODY)
}

/// Read and verify one request, accepting bodies up to `max_body` — the
/// worker-mode data plane raises the limit to [`MAX_DATA_BODY`] so whole
/// checkpoints can ride a migration push. The head is bounded by
/// [`MAX_HEAD`] and [`MAX_HEADERS`] whatever the body limit.
pub fn read_request_with_limit(
    stream: &mut impl Read,
    max_body: usize,
) -> Result<Request, SwlbError> {
    let mut reader = BufReader::new(stream);
    let (line, headers) = read_head(&mut reader)?;
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
    let body = read_body(&mut reader, &headers, max_body)?.unwrap_or_default();
    check_body_crc(&headers, &body)?;
    Ok(Request {
        method,
        target,
        headers,
        body,
    })
}

/// Read a message head: the first line, then `name: value` header lines
/// (names lowercased) up to the empty line that must end it. At most
/// [`MAX_HEAD`] bytes are read for it and at most [`MAX_HEADERS`] lines kept,
/// so a peer that never sends a newline, or never stops sending headers, is
/// refused after a bounded read instead of growing a `String` until memory
/// runs out.
fn read_head(reader: &mut impl BufRead) -> Result<(String, Vec<(String, String)>), SwlbError> {
    let mut head = reader.take(MAX_HEAD as u64);
    let mut next_line = || -> Result<String, SwlbError> {
        let mut line = String::new();
        head.read_line(&mut line)?;
        if !line.ends_with('\n') {
            return Err(SwlbError::CorruptData(if head.limit() == 0 {
                format!("message head exceeds the {MAX_HEAD} B limit")
            } else {
                format!("message head cut short at {line:?}")
            }));
        }
        Ok(line)
    };
    let first = next_line()?;
    let mut headers = Vec::new();
    loop {
        let h = next_line()?;
        let h = h.trim_end();
        if h.is_empty() {
            return Ok((first, headers));
        }
        let Some((k, v)) = h.split_once(':') else {
            return Err(SwlbError::CorruptData(format!("bad header line {h:?}")));
        };
        if headers.len() == MAX_HEADERS {
            return Err(SwlbError::CorruptData(format!(
                "more than {MAX_HEADERS} header lines"
            )));
        }
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
}

/// Read the `content-length`-framed body that follows a head (`None` when the
/// head states no length). A stated length above `max_body` is refused before
/// anything is read, and past the first 64 KiB the buffer grows with the bytes
/// that actually arrive, so a head that claims a large body and sends none
/// costs next to nothing.
fn read_body(
    reader: &mut impl Read,
    headers: &[(String, String)],
    max_body: usize,
) -> Result<Option<Vec<u8>>, SwlbError> {
    let Some(len) = header_of(headers, "content-length") else {
        return Ok(None);
    };
    let len: usize = len
        .parse()
        .map_err(|_| SwlbError::CorruptData("bad content-length".into()))?;
    if len > max_body {
        return Err(SwlbError::CorruptData(format!(
            "body of {len} B exceeds the {max_body} B limit"
        )));
    }
    let mut body = Vec::with_capacity(len.min(64 << 10));
    reader.take(len as u64).read_to_end(&mut body)?;
    if body.len() != len {
        return Err(SwlbError::CorruptData(format!(
            "body cut short: {} of {len} B",
            body.len()
        )));
    }
    Ok(Some(body))
}

/// Verify `body` against the [`CRC_HEADER`] value, when the head carries one.
fn check_body_crc(headers: &[(String, String)], body: &[u8]) -> Result<(), SwlbError> {
    let Some(stated) = header_of(headers, CRC_HEADER) else {
        return Ok(());
    };
    let stated: u32 = stated
        .parse()
        .map_err(|_| SwlbError::CorruptData("bad x-swlb-crc32 header".into()))?;
    let actual = body_crc(body);
    if stated != actual {
        return Err(SwlbError::CorruptData(format!(
            "body CRC mismatch: stated {stated:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(())
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
    exchange(TcpStream::connect(addr)?, method, target, body, MAX_BODY)
}

/// [`roundtrip`] with `timeout` bounding the connect and every read and
/// write, so a caller that must stay joinable (the worker's wake notifier,
/// the fleet controller) cannot hang on an unreachable or silent peer, and a
/// response-body bound — the fleet controller pulling a migration envelope
/// accepts up to [`MAX_DATA_BODY`]. `None` leaves the OS defaults.
pub fn roundtrip_timeout(
    addr: &SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
    max_body: usize,
    timeout: Option<Duration>,
) -> Result<(u16, Vec<u8>), SwlbError> {
    let stream = match timeout {
        Some(t) => TcpStream::connect_timeout(addr, t)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    exchange(stream, method, target, body, max_body)
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
    let resp_body = match read_body(&mut reader, &headers, max_body)? {
        Some(body) => body,
        // No stated length: the body runs to the end of the connection.
        None => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
    };
    check_body_crc(&headers, &resp_body)?;
    Ok((status, resp_body))
}

/// Write one CRC-stamped request (client side).
pub fn send_request(
    stream: &mut impl Write,
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
    let (line, headers) = read_head(reader)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| SwlbError::CorruptData(format!("bad status line {line:?}")))?;
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

    // The malformed-request corpus, in memory: `read_request` is what every
    // unauthenticated byte reaches first. Whatever arrives, the answer is a
    // request or a typed error after a bounded read — no panic, no buffer
    // sized by what the peer merely claims.

    const BODY: &[u8] = b"{\"nx\":24,\"case\":\"cavit\xc3\xa9\"}";

    /// A CRC-stamped request exactly as the client writes it.
    fn sample() -> Vec<u8> {
        let mut wire = Vec::new();
        send_request(&mut wire, "POST", "/v1/jobs?from=3", BODY).unwrap();
        wire
    }

    fn read(mut wire: &[u8]) -> Result<Request, SwlbError> {
        read_request(&mut wire)
    }

    fn assert_corrupt(r: Result<Request, SwlbError>, what: &str) -> String {
        match r {
            Err(SwlbError::CorruptData(m)) => m,
            other => panic!("{what}: expected CorruptData, got {other:?}"),
        }
    }

    #[test]
    fn request_cut_at_every_byte_is_corrupt() {
        let wire = sample();
        assert_eq!(read(&wire).unwrap().body, BODY);
        for keep in 0..wire.len() {
            assert_corrupt(read(&wire[..keep]), &format!("cut to {keep} B"));
        }
    }

    #[test]
    fn every_single_bit_flip_reads_or_fails_typed() {
        let wire = sample();
        let body_at = wire.len() - BODY.len();
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[byte] ^= 1 << bit;
                match read(&bad) {
                    // A flipped method or target letter is a different, valid
                    // request; a flipped body byte never is (the CRC).
                    Ok(_) => assert!(byte < body_at, "bit {bit} of body byte {byte} accepted"),
                    // `Io`: the head is no longer UTF-8.
                    Err(SwlbError::CorruptData(_) | SwlbError::Io(_)) => {}
                    Err(e) => panic!("bit {bit} of byte {byte}: untyped failure {e:?}"),
                }
            }
        }
    }

    /// Counts what `read_request` pulls from the transport.
    struct Metered<R>(R, usize);

    impl<R: Read> Read for Metered<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.read(buf)?;
            self.1 += n;
            Ok(n)
        }
    }

    #[test]
    fn hostile_heads_are_refused_after_a_bounded_read() {
        // One BufReader fill past the limit is the most that is ever pulled.
        let bound = MAX_HEAD + (8 << 10);
        let no_newline = vec![b'A'; 1 << 20];
        let mut endless_header = b"GET / HTTP/1.1\r\nx: ".to_vec();
        endless_header.resize(1 << 20, b'y');
        let many_small = [&b"GET / HTTP/1.1\r\n"[..], &b"a: b\r\n".repeat(1 << 17)].concat();
        for (wire, what) in [
            (no_newline, "newline-free request line"),
            (endless_header, "newline-free header"),
            (many_small, "endless header lines"),
        ] {
            let mut src = Metered(&wire[..], 0);
            let m = assert_corrupt(read_request(&mut src), what);
            assert!(
                m.contains("limit") || m.contains("header lines"),
                "{what}: {m}"
            );
            assert!(src.1 <= bound, "{what}: {} B read", src.1);
        }
        // The bounds themselves: 64 header lines pass, 65 do not.
        let with_headers =
            |n: usize| [&b"GET / HTTP/1.1\r\n"[..], &b"a: b\r\n".repeat(n), b"\r\n"].concat();
        assert_eq!(
            read(&with_headers(MAX_HEADERS)).unwrap().headers.len(),
            MAX_HEADERS
        );
        assert_corrupt(read(&with_headers(MAX_HEADERS + 1)), "65 headers");
    }

    #[test]
    fn hostile_content_lengths_are_refused_without_a_matching_allocation() {
        let with_len = |len: &str| format!("POST /x HTTP/1.1\r\ncontent-length: {len}\r\n\r\nabcd");
        for len in [
            "-1",
            "+",
            "1e3",
            "4.0",
            "0x4",
            "",
            "99999999999999999999999",
            "4 4",
        ] {
            let m = assert_corrupt(read(with_len(len).as_bytes()), len);
            assert!(m.contains("content-length"), "{len:?}: {m}");
        }
        let over = (MAX_BODY + 1).to_string();
        assert!(assert_corrupt(read(with_len(&over).as_bytes()), "over").contains("limit"));
        // A claim of the full megabyte with four bytes behind it: refused as
        // cut short, having buffered what arrived and not what was claimed.
        let claim = with_len(&MAX_BODY.to_string());
        let m = assert_corrupt(read(claim.as_bytes()), "claimed 1 MiB");
        assert!(m.contains("4 of 1048576"), "{m}");
        let claim = with_len(&MAX_DATA_BODY.to_string());
        let mut wire = claim.as_bytes();
        let m = assert_corrupt(
            read_request_with_limit(&mut wire, MAX_DATA_BODY),
            "claimed 1 GiB",
        );
        assert!(m.contains("4 of 1073741824"), "{m}");
        // The first of two lengths decides; bytes past it are not the body.
        let two = b"POST /x HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 4\r\n\r\nabcd";
        assert_eq!(read(two).unwrap().body, b"ab");
    }

    proptest::proptest! {
        #[test]
        fn send_request_then_read_request_is_the_identity(
            method in proptest::prop::sample::select(vec!["GET", "POST", "DELETE"]),
            segs in proptest::prop::collection::vec(0u32..1000, 0..5),
            body in proptest::prop::collection::vec(0u8..=255, 0..2000),
        ) {
            let target = segs.iter().map(|s| format!("/{s}")).collect::<String>() + "?from=7";
            let mut wire = Vec::new();
            send_request(&mut wire, method, &target, &body).unwrap();
            let req = read(&wire).unwrap();
            proptest::prop_assert_eq!(
                (req.method.as_str(), req.target.as_str(), req.query("from"), &req.body),
                (method, target.as_str(), Some("7"), &body)
            );
        }
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
