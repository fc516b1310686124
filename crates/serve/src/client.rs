//! Blocking client for the serve API — used by the `swlb` CLI subcommands
//! and the integration tests. One connection per call, CRC-verified bodies.

use crate::http;
use crate::json::{self, Json};
use crate::spec::JobSpec;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use swlb_obs::SwlbError;

/// A handle on a remote serve instance.
#[derive(Debug, Clone)]
pub struct ServeClient {
    addr: String,
}

impl ServeClient {
    /// Client for the service at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Self {
        ServeClient { addr: addr.into() }
    }

    /// Submit a job; returns its id, or [`SwlbError::Rejected`] on 429.
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, SwlbError> {
        let body = spec.to_json().to_text();
        let (status, resp) = http::roundtrip(&self.addr, "POST", "/v1/jobs", body.as_bytes())?;
        let v = parse_body(&resp)?;
        match status {
            202 => v
                .get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| SwlbError::CorruptData("submit response missing id".into())),
            429 => Err(SwlbError::Rejected {
                capacity: v.get("capacity").and_then(Json::as_u64).unwrap_or(0) as usize,
            }),
            _ => Err(error_of(status, &v)),
        }
    }

    /// Submit with bounded retry: a 503 ([`SwlbError::Unavailable`]) means
    /// the service is *degraded* (its journal cannot persist), which is
    /// usually transient — a full disk being cleared, a controller failing
    /// over. Retries up to `max_retries` times with jittered exponential
    /// backoff starting at `base_backoff`, and returns `(id, retries_used)`
    /// so the caller can tell the user the path was degraded. Any other
    /// error (including 429 Rejected, which is a *policy* answer, not an
    /// outage) propagates immediately.
    pub fn submit_with_retry(
        &self,
        spec: &JobSpec,
        max_retries: u32,
        base_backoff: std::time::Duration,
    ) -> Result<(u64, u32), SwlbError> {
        let mut attempt = 0u32;
        loop {
            match self.submit(spec) {
                Ok(id) => return Ok((id, attempt)),
                Err(SwlbError::Unavailable(_)) if attempt < max_retries => {
                    // Exponential backoff (capped at 2^6) with deterministic
                    // jitter: spread concurrent submitters by hashing the
                    // job name and attempt so herds don't re-collide.
                    let exp = 1u64 << attempt.min(6);
                    let jitter_seed = spec
                        .name
                        .bytes()
                        .fold(attempt as u64 + 1, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
                    let jitter_pct = 50 + jitter_seed % 100; // 50%..150%
                    let backoff = base_backoff.mul_f64(exp as f64 * jitter_pct as f64 / 100.0);
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Announce a worker-mode serve instance (`name`, its bound `addr` and
    /// its state directory) to the fleet controller at this address.
    /// Retried for up to ten seconds because worker and controller commonly
    /// race at pool start-up, and a degraded controller answers 503.
    pub fn register_worker(
        &self,
        name: &str,
        addr: std::net::SocketAddr,
        dir: &std::path::Path,
    ) -> Result<(), SwlbError> {
        let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
        let body = Json::obj([
            ("name", Json::str(name)),
            ("addr", Json::str(addr.to_string())),
            ("dir", Json::str(dir.display().to_string())),
        ])
        .to_text();
        let mut attempt = 1;
        loop {
            let reply = http::roundtrip(&self.addr, "POST", "/v1/fleet/register", body.as_bytes());
            let err = match reply {
                Ok((200, _)) => return Ok(()),
                Ok((status, resp)) => error_of(status, &parse_body(&resp).unwrap_or(Json::Null)),
                Err(e) => e,
            };
            if attempt == 50 {
                return Err(err);
            }
            attempt += 1;
            std::thread::sleep(std::time::Duration::from_millis(200));
        }
    }

    /// Status object for one job.
    pub fn status(&self, id: u64) -> Result<Json, SwlbError> {
        self.get_json(&format!("/v1/jobs/{id}"))
    }

    /// Statuses of every job the service has seen.
    pub fn list(&self) -> Result<Vec<Json>, SwlbError> {
        self.list_at("/v1/jobs")
    }

    /// Statuses of just the jobs in `ids` (ids the service does not know are
    /// omitted) — the fleet controller's sync asks for what it placed.
    pub fn list_ids(&self, ids: &[u64]) -> Result<Vec<Json>, SwlbError> {
        let ids: Vec<String> = ids.iter().map(u64::to_string).collect();
        self.list_at(&format!("/v1/jobs?ids={}", ids.join(",")))
    }

    fn list_at(&self, target: &str) -> Result<Vec<Json>, SwlbError> {
        match self.get_json(target)? {
            Json::Arr(items) => Ok(items),
            _ => Err(SwlbError::CorruptData("job list is not an array".into())),
        }
    }

    /// Request cancellation; returns the job's (possibly updated) status.
    pub fn cancel(&self, id: u64) -> Result<Json, SwlbError> {
        self.post_json(&format!("/v1/jobs/{id}/cancel"))
    }

    /// Graceful drain; blocks until every job is terminal.
    pub fn drain(&self) -> Result<Json, SwlbError> {
        self.post_json("/v1/drain")
    }

    /// Service counters.
    pub fn stats(&self) -> Result<Json, SwlbError> {
        self.get_json("/v1/stats")
    }

    /// Stream a job's events from index `from`, invoking `on_event` per JSONL
    /// line until the stream ends (job terminal or server stopping). Returns
    /// the number of events seen. `on_event` returning `false` stops early.
    pub fn watch_with(
        &self,
        id: u64,
        from: usize,
        mut on_event: impl FnMut(&str) -> bool,
    ) -> Result<usize, SwlbError> {
        let mut stream = TcpStream::connect(&self.addr)?;
        http::send_request(
            &mut stream,
            "GET",
            &format!("/v1/jobs/{id}/events?from={from}"),
            b"",
        )?;
        let mut reader = BufReader::new(stream);
        let (status, _) = http::read_response_head(&mut reader)?;
        if status != 200 {
            let mut body = String::new();
            use std::io::Read;
            let _ = reader.read_to_string(&mut body);
            let v = json::parse(&body).unwrap_or(Json::Null);
            return Err(error_of(status, &v));
        }
        let mut seen = 0;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Ok(seen); // server closed the stream
            }
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            seen += 1;
            if !on_event(line) {
                return Ok(seen);
            }
        }
    }

    /// Collect a job's full event stream (blocks until the job is terminal).
    pub fn watch(&self, id: u64, from: usize) -> Result<Vec<String>, SwlbError> {
        let mut lines = Vec::new();
        self.watch_with(id, from, |l| {
            lines.push(l.to_string());
            true
        })?;
        Ok(lines)
    }

    fn get_json(&self, target: &str) -> Result<Json, SwlbError> {
        let (status, resp) = http::roundtrip(&self.addr, "GET", target, b"")?;
        let v = parse_body(&resp)?;
        if status == 200 {
            Ok(v)
        } else {
            Err(error_of(status, &v))
        }
    }

    fn post_json(&self, target: &str) -> Result<Json, SwlbError> {
        let (status, resp) = http::roundtrip(&self.addr, "POST", target, b"")?;
        let v = parse_body(&resp)?;
        if status == 200 {
            Ok(v)
        } else {
            Err(error_of(status, &v))
        }
    }
}

fn parse_body(body: &[u8]) -> Result<Json, SwlbError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| SwlbError::CorruptData("response is not UTF-8".into()))?;
    json::parse(text)
}

fn error_of(status: u16, v: &Json) -> SwlbError {
    let msg = v
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or("unknown error");
    if status == 503 {
        // The service is degraded (journal cannot persist); retry later.
        SwlbError::Unavailable(msg.to_string())
    } else {
        SwlbError::Io(format!("HTTP {status}: {msg}"))
    }
}
