//! The worker registry: per-worker liveness tracked by CRC-framed heartbeat
//! probes with a missed-counter and exponential probe backoff.
//!
//! The state machine is pure — the controller's tick loop does the actual
//! network I/O and feeds results back in — so the retry/backoff/death logic
//! is unit-testable without sockets:
//!
//! * every `probe_due` tick the controller sends a sealed `[epoch, seq, crc]`
//!   frame ([`swlb_comm::frame`]) and validates the echoed frame;
//! * a failed or invalid probe increments `missed` and backs the next probe
//!   off `2^missed` ticks (capped), so a briefly-stalled worker is not
//!   hammered while it recovers;
//! * `max_missed` consecutive misses declare the worker dead — its jobs are
//!   replayed onto survivors from their newest valid checkpoints;
//! * one valid echo resurrects the worker (a re-registered worker at the
//!   same name resets the counter immediately).

use swlb_comm::frame::{check_frame, frame_from_bytes, FrameCheck, FRAME_HEADER};

/// Load report a worker echoes inside its heartbeat frame payload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerLoad {
    /// Live (queued + running + preempted) jobs.
    pub live: u64,
    /// Jobs waiting for a slice.
    pub queued: u64,
    /// Admission capacity.
    pub capacity: u64,
    /// Queue depth, interactive priority.
    pub queue_interactive: u64,
    /// Queue depth, batch priority.
    pub queue_batch: u64,
}

impl WorkerLoad {
    /// Decode from the heartbeat frame payload (body slots after the header).
    pub fn from_payload(body: &[f64]) -> Option<WorkerLoad> {
        if body.len() < 5 {
            return None;
        }
        Some(WorkerLoad {
            live: body[0] as u64,
            queued: body[1] as u64,
            capacity: body[2] as u64,
            queue_interactive: body[3] as u64,
            queue_batch: body[4] as u64,
        })
    }

    /// Decode a heartbeat reply body: the byte form of a frame sealed for
    /// `(epoch, seq)` whose payload is a load report. `None` for anything
    /// else — ragged or short bytes, a damaged, stale or foreign frame, a
    /// payload too short to be a report — all of which count as a miss.
    pub(crate) fn from_echo(body: &[u8], epoch: u64, seq: u64) -> Option<WorkerLoad> {
        let echo = frame_from_bytes(body)?;
        if check_frame(&echo, epoch, seq) != FrameCheck::Valid {
            return None;
        }
        WorkerLoad::from_payload(&echo[FRAME_HEADER..])
    }
}

/// One worker as the controller sees it.
#[derive(Debug, Clone)]
pub struct Worker {
    /// Stable name (registration key; survives address changes).
    pub name: String,
    /// Data-plane address.
    pub addr: String,
    /// Worker state directory (dead-worker checkpoint recovery reads here).
    pub dir: String,
    /// Consecutive missed heartbeats.
    pub missed: u32,
    /// Declared dead (jobs replayed away); a valid echo resurrects.
    pub dead: bool,
    /// Heartbeat epoch (bumped on re-registration so stale echoes from a
    /// previous incarnation are rejected by the frame check).
    pub epoch: u64,
    /// Last heartbeat sequence number sent.
    pub seq: u64,
    /// Tick before which no probe is sent (backoff).
    pub next_probe: u64,
    /// Last echoed load report.
    pub load: WorkerLoad,
}

impl Worker {
    /// Fresh registration.
    pub fn new(name: String, addr: String, dir: String, epoch: u64) -> Self {
        Worker {
            name,
            addr,
            dir,
            missed: 0,
            dead: false,
            epoch,
            seq: 0,
            next_probe: 0,
            load: WorkerLoad::default(),
        }
    }

    /// Whether a probe should be sent at `tick`.
    pub fn probe_due(&self, tick: u64) -> bool {
        tick >= self.next_probe
    }

    /// A valid echo arrived: reset the retry state, absorb the load report.
    pub fn record_success(&mut self, tick: u64, load: WorkerLoad) {
        self.missed = 0;
        self.dead = false;
        self.next_probe = tick + 1;
        self.load = load;
    }

    /// A probe failed (connect error, bad frame, stale echo). Returns `true`
    /// on the transition into death — exactly once per incident, so the
    /// caller replays the worker's jobs exactly once.
    pub fn record_failure(&mut self, tick: u64, max_missed: u32) -> bool {
        self.missed = self.missed.saturating_add(1);
        // Exponential backoff in ticks, capped at 8 heartbeat periods; a
        // dead worker is still probed (slowly) so it can resurrect.
        self.next_probe = tick + 1 + (1u64 << self.missed.min(3));
        let newly_dead = !self.dead && self.missed >= max_missed;
        if newly_dead {
            self.dead = true;
        }
        newly_dead
    }

    /// Re-registration at (possibly) a new address: new epoch invalidates
    /// any in-flight echo from the old incarnation.
    pub fn reregister(&mut self, addr: String, dir: String) {
        self.addr = addr;
        self.dir = dir;
        self.epoch += 1;
        self.missed = 0;
        self.dead = false;
        self.next_probe = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swlb_comm::frame::{frame_to_bytes, seal_frame};

    // The malformed-heartbeat corpus: `from_echo` reads what a worker (or
    // whatever answers at its address) sent back. Anything but the sealed
    // reply to *this* probe is a miss — `None`, never a panic.

    /// A worker's reply to probe `(epoch, seq)`, as `heartbeat` builds it.
    fn echo(load: [f64; 5], epoch: u64, seq: u64) -> Vec<u8> {
        let mut frame = vec![0.0; FRAME_HEADER];
        frame.extend_from_slice(&load);
        seal_frame(&mut frame, epoch, seq);
        frame_to_bytes(&frame)
    }

    const LOAD: WorkerLoad = WorkerLoad {
        live: 3,
        queued: 2,
        capacity: 8,
        queue_interactive: 1,
        queue_batch: 1,
    };

    fn sample() -> Vec<u8> {
        echo([3.0, 2.0, 8.0, 1.0, 1.0], 7, 123)
    }

    #[test]
    fn echo_cut_at_every_byte_or_flipped_in_any_bit_is_a_miss() {
        let bytes = sample();
        assert_eq!(WorkerLoad::from_echo(&bytes, 7, 123), Some(LOAD));
        // Every cut: the f64 slot boundaries (8, 16, …) are the fields.
        for keep in 0..bytes.len() {
            assert_eq!(
                WorkerLoad::from_echo(&bytes[..keep], 7, 123),
                None,
                "cut to {keep} B"
            );
        }
        // The CRC covers header and payload, and is itself compared exactly.
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(
                    WorkerLoad::from_echo(&bad, 7, 123),
                    None,
                    "bit {bit} of byte {byte}"
                );
            }
        }
    }

    #[test]
    fn stale_foreign_short_and_hostile_echoes_are_misses() {
        let bytes = sample();
        // A valid frame, but not the reply to this probe.
        for (epoch, seq) in [
            (7, 122),
            (7, 124),
            (6, 123),
            (8, 123),
            (0, 0),
            (u64::MAX, u64::MAX),
        ] {
            assert_eq!(
                WorkerLoad::from_echo(&bytes, epoch, seq),
                None,
                "({epoch}, {seq})"
            );
        }
        // Sealed for this probe, with a payload too short to be a report.
        for slots in 0..5 {
            let mut frame = vec![0.0; FRAME_HEADER + slots];
            seal_frame(&mut frame, 7, 123);
            assert_eq!(
                WorkerLoad::from_echo(&frame_to_bytes(&frame), 7, 123),
                None,
                "{slots} slots"
            );
        }
        // Values no counter holds saturate; they do not panic or wrap.
        let hostile = echo([f64::NAN, -1.0, f64::INFINITY, 1e300, -0.0], 7, 123);
        let load = WorkerLoad::from_echo(&hostile, 7, 123).unwrap();
        assert_eq!((load.live, load.queued, load.capacity), (0, 0, u64::MAX));
        assert_eq!((load.queue_interactive, load.queue_batch), (u64::MAX, 0));
        // A body of the largest size the transport admits is scanned, not trusted.
        let big = vec![0xffu8; swlb_serve::http::MAX_BODY];
        assert_eq!(WorkerLoad::from_echo(&big, 7, 123), None);
        // Extra payload slots behind a report are tolerated (a newer worker).
        let mut frame = vec![0.0; FRAME_HEADER];
        frame.extend_from_slice(&[3.0, 2.0, 8.0, 1.0, 1.0, 99.0]);
        seal_frame(&mut frame, 7, 123);
        assert_eq!(
            WorkerLoad::from_echo(&frame_to_bytes(&frame), 7, 123),
            Some(LOAD)
        );
    }

    proptest::proptest! {
        #[test]
        fn sealed_echo_decodes_to_the_load_it_carries(
            counts in proptest::prop::collection::vec(0u64..(1 << 53), 5),
            epoch in 0u64..(1 << 53),
            seq in 0u64..(1 << 53),
        ) {
            let load = [0, 1, 2, 3, 4].map(|i| counts[i] as f64);
            let got = WorkerLoad::from_echo(&echo(load, epoch, seq), epoch, seq).unwrap();
            proptest::prop_assert_eq!(
                [got.live, got.queued, got.capacity, got.queue_interactive, got.queue_batch],
                [counts[0], counts[1], counts[2], counts[3], counts[4]]
            );
        }
    }

    #[test]
    fn death_is_declared_exactly_once_and_backoff_grows() {
        let mut w = Worker::new("w0".into(), "a".into(), "d".into(), 1);
        assert!(w.probe_due(0));
        assert!(!w.record_failure(0, 3));
        let first_backoff = w.next_probe;
        assert!(first_backoff > 1, "backoff must skip ticks");
        assert!(!w.probe_due(first_backoff - 1));
        assert!(!w.record_failure(first_backoff, 3));
        let second_backoff = w.next_probe;
        // The second interval is wider than the first (probed at tick 0).
        assert!(second_backoff - first_backoff > first_backoff);
        // Third consecutive miss: the death transition fires once.
        assert!(w.record_failure(second_backoff, 3));
        assert!(w.dead);
        assert!(!w.record_failure(w.next_probe, 3), "no double death");
        // A valid echo resurrects and resets retry state.
        w.record_success(100, WorkerLoad::default());
        assert!(!w.dead);
        assert_eq!(w.missed, 0);
        assert!(w.probe_due(101));
    }

    #[test]
    fn reregistration_bumps_epoch_and_clears_death() {
        let mut w = Worker::new("w0".into(), "old".into(), "d".into(), 1);
        for _ in 0..3 {
            w.record_failure(0, 3);
        }
        assert!(w.dead);
        w.reregister("new".into(), "d2".into());
        assert!(!w.dead);
        assert_eq!(w.epoch, 2);
        assert_eq!(w.addr, "new");
        assert_eq!(w.dir, "d2");
        assert!(w.probe_due(0));
    }

    #[test]
    fn load_payload_decodes() {
        assert_eq!(
            WorkerLoad::from_payload(&[3.0, 2.0, 16.0, 1.0, 1.0]),
            Some(WorkerLoad {
                live: 3,
                queued: 2,
                capacity: 16,
                queue_interactive: 1,
                queue_batch: 1,
            })
        );
        assert_eq!(WorkerLoad::from_payload(&[1.0]), None);
    }
}
