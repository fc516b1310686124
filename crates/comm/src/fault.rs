//! Deterministic fault injection for distributed runs.
//!
//! A [`FaultPlan`] describes which messages to drop, delay, duplicate or
//! bit-corrupt, and which ranks to kill or stall at which step. Faults are
//! either scheduled explicitly ([`FaultPlan::drop_message`] and friends) or
//! drawn pseudo-randomly from per-message rates. Random draws are keyed by
//! `hash(seed, rank, tag, seq)` — a pure function of the message's identity,
//! not of thread interleaving — so a given seed reproduces the *same* fault
//! pattern on every run regardless of scheduling. That is what makes a chaos
//! failure reported from CI reproducible locally from its seed alone.
//!
//! [`ChaosComm`] wraps the real [`Comm`] transport and applies the plan on the
//! send side. Because the distributed engine is generic over
//! [`Communicator`], the wrapper exercises the production halo-exchange and
//! recovery code paths unmodified.
//!
//! Scope: by default only user tags in `0..8` (the halo-direction tags) are
//! eligible for *random* faults, so collectives and checkpoint traffic stay
//! reliable; explicit specs match whatever they name. Injected faults are
//! recorded in a shared log for post-run assertions.

use crate::comm::{Comm, CommError, Tag};
use crate::communicator::Communicator;
use crate::World;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What to do to one matched message (applied on the send side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Silently discard the send; the receiver sees only silence.
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Hold the sender for the given duration before sending.
    Delay(Duration),
    /// Flip `bit` of payload element `elem` (modulo payload length) in flight.
    CorruptBit {
        /// Payload element index (taken modulo the payload length).
        elem: usize,
        /// Bit position in `0..64`.
        bit: u32,
    },
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Drop => write!(f, "drop"),
            FaultAction::Duplicate => write!(f, "duplicate"),
            FaultAction::Delay(d) => write!(f, "delay {d:?}"),
            FaultAction::CorruptBit { elem, bit } => write!(f, "corrupt elem {elem} bit {bit}"),
        }
    }
}

/// One explicitly scheduled message fault. `seq` is the per-`(rank, tag)` send
/// sequence number — for halo tags each direction sends exactly once per step,
/// so `seq` equals the step at which the fault fires (counting resends after a
/// rollback as fresh sequence numbers).
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Sending rank the fault applies to.
    pub rank: usize,
    /// Message tag to match.
    pub tag: Tag,
    /// Per-`(rank, tag)` send sequence number to match.
    pub seq: u64,
    /// What to do to the matched message.
    pub action: FaultAction,
}

/// An injected fault, as recorded in the plan's log.
#[derive(Debug, Clone)]
pub enum FaultEvent {
    /// A message-level fault fired.
    Message {
        /// Tag of the affected message.
        tag: Tag,
        /// Per-`(rank, tag)` send sequence number.
        seq: u64,
        /// The action applied.
        action: FaultAction,
    },
    /// The rank was killed at the start of the given step.
    Kill {
        /// Step at which the kill fired.
        step: u64,
    },
    /// The rank was stalled at the start of the given step.
    Stall {
        /// Step at which the stall fired.
        step: u64,
        /// Stall duration.
        dur: Duration,
    },
}

/// One logged fault: which rank it hit and what happened.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// Rank the fault was injected on.
    pub rank: usize,
    /// The injected fault.
    pub event: FaultEvent,
}

/// Per-message random fault rates (probabilities in `[0, 1]`, summed tail must
/// stay ≤ 1). At most one random fault fires per message.
#[derive(Debug, Clone, Copy, Default)]
struct Rates {
    drop: f64,
    corrupt: f64,
    delay: f64,
    duplicate: f64,
}

/// How long a randomly drawn delay fault holds its message.
const RANDOM_DELAY: Duration = Duration::from_millis(20);

/// A deterministic, seeded schedule of faults. Build one, wrap it in an
/// [`Arc`], and hand it to [`ChaosComm::new`] on every rank.
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
    kills: Vec<(usize, u64)>,
    stalls: Vec<(usize, u64, Duration)>,
    rates: Rates,
    fault_tags: Range<Tag>,
    log: Mutex<Vec<FaultRecord>>,
}

impl FaultPlan {
    /// An empty plan with the given seed for random draws.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
            kills: Vec::new(),
            stalls: Vec::new(),
            rates: Rates::default(),
            fault_tags: 0..8,
            log: Mutex::new(Vec::new()),
        }
    }

    /// The seed this plan draws random faults from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedule an explicit fault.
    pub fn with_spec(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Drop `rank`'s `seq`-th send on `tag`.
    pub fn drop_message(self, rank: usize, tag: Tag, seq: u64) -> Self {
        self.with_spec(FaultSpec { rank, tag, seq, action: FaultAction::Drop })
    }

    /// Duplicate `rank`'s `seq`-th send on `tag`.
    pub fn duplicate_message(self, rank: usize, tag: Tag, seq: u64) -> Self {
        self.with_spec(FaultSpec { rank, tag, seq, action: FaultAction::Duplicate })
    }

    /// Delay `rank`'s `seq`-th send on `tag` by `dur`.
    pub fn delay_message(self, rank: usize, tag: Tag, seq: u64, dur: Duration) -> Self {
        self.with_spec(FaultSpec { rank, tag, seq, action: FaultAction::Delay(dur) })
    }

    /// Flip one (seed-derived) bit of `rank`'s `seq`-th send on `tag`.
    pub fn corrupt_message(self, rank: usize, tag: Tag, seq: u64) -> Self {
        let h = mix(self.seed ^ 0xC0FF_EE00, rank, tag, seq);
        let action =
            FaultAction::CorruptBit { elem: (h >> 8) as usize, bit: (h % 64) as u32 };
        self.with_spec(FaultSpec { rank, tag, seq, action })
    }

    /// Kill `rank` at the start of step `step`: every communicator operation
    /// from then on returns [`CommError::Disconnected`].
    pub fn kill_rank(mut self, rank: usize, step: u64) -> Self {
        self.kills.push((rank, step));
        self
    }

    /// Stall `rank` for `dur` at the start of step `step` (one-shot).
    pub fn stall_rank(mut self, rank: usize, step: u64, dur: Duration) -> Self {
        self.stalls.push((rank, step, dur));
        self
    }

    /// Set per-message random fault rates (probabilities). At most one random
    /// fault fires per eligible message; eligibility is limited to
    /// [`FaultPlan::with_fault_tags`].
    pub fn with_rates(mut self, drop: f64, corrupt: f64, delay: f64, duplicate: f64) -> Self {
        assert!(
            drop >= 0.0 && corrupt >= 0.0 && delay >= 0.0 && duplicate >= 0.0,
            "fault rates must be non-negative"
        );
        assert!(drop + corrupt + delay + duplicate <= 1.0, "fault rates must sum to at most 1");
        self.rates = Rates { drop, corrupt, delay, duplicate };
        self
    }

    /// Restrict which tags are eligible for *random* faults (default `0..8`,
    /// the halo-direction tags). Explicit specs are unaffected.
    pub fn with_fault_tags(mut self, tags: Range<Tag>) -> Self {
        self.fault_tags = tags;
        self
    }

    /// Everything injected so far, in injection order.
    pub fn records(&self) -> Vec<FaultRecord> {
        self.log.lock().unwrap().clone()
    }

    /// Count of logged message faults matching `pred`.
    pub fn count_message_faults(&self, pred: impl Fn(&FaultAction) -> bool) -> usize {
        self.log
            .lock()
            .unwrap()
            .iter()
            .filter(|r| matches!(&r.event, FaultEvent::Message { action, .. } if pred(action)))
            .count()
    }

    fn record(&self, rank: usize, event: FaultEvent) {
        self.log.lock().unwrap().push(FaultRecord { rank, event });
    }

    /// The fault (if any) to apply to `rank`'s `seq`-th send on `tag`.
    /// Deterministic in `(seed, rank, tag, seq)` alone.
    fn decide(&self, rank: usize, tag: Tag, seq: u64) -> Option<FaultAction> {
        if let Some(spec) =
            self.specs.iter().find(|s| s.rank == rank && s.tag == tag && s.seq == seq)
        {
            return Some(spec.action);
        }
        if !self.fault_tags.contains(&tag) {
            return None;
        }
        let r = self.rates;
        if r.drop + r.corrupt + r.delay + r.duplicate == 0.0 {
            return None;
        }
        let h = mix(self.seed, rank, tag, seq);
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < r.drop {
            Some(FaultAction::Drop)
        } else if u < r.drop + r.corrupt {
            let h2 = mix(self.seed ^ 0xBAD_F00D, rank, tag, seq);
            Some(FaultAction::CorruptBit { elem: (h2 >> 8) as usize, bit: (h2 % 64) as u32 })
        } else if u < r.drop + r.corrupt + r.delay {
            Some(FaultAction::Delay(RANDOM_DELAY))
        } else if u < r.drop + r.corrupt + r.delay + r.duplicate {
            Some(FaultAction::Duplicate)
        } else {
            None
        }
    }

    /// The step (if any) at which `rank` is scheduled to die.
    pub fn kill_step(&self, rank: usize) -> Option<u64> {
        self.kills.iter().find(|(r, _)| *r == rank).map(|(_, s)| *s)
    }

    fn stall_for(&self, rank: usize, step: u64) -> Option<Duration> {
        self.stalls.iter().find(|(r, s, _)| *r == rank && *s == step).map(|(_, _, d)| *d)
    }
}

/// SplitMix64-style mix of a message identity into a uniform `u64`.
fn mix(seed: u64, rank: usize, tag: Tag, seq: u64) -> u64 {
    let mut x = seed
        ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ tag.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ seq.wrapping_mul(0x94D0_49BB_1331_11EB);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A [`Communicator`] that wraps the real transport and injects the faults a
/// [`FaultPlan`] schedules for this rank. Send-side injection only: receives
/// are delegated untouched, so whatever arrives is exactly what (possibly
/// faulty) senders emitted.
pub struct ChaosComm {
    inner: Comm,
    plan: Arc<FaultPlan>,
    /// Per-tag send sequence counters.
    seq: RefCell<HashMap<Tag, u64>>,
    /// Step scheduled by the plan at which this rank dies, if any.
    kill_step: Option<u64>,
    killed: Cell<bool>,
}

impl ChaosComm {
    /// Wrap `inner`, applying the faults `plan` schedules for `inner.rank()`.
    pub fn new(inner: Comm, plan: Arc<FaultPlan>) -> Self {
        let kill_step = plan.kill_step(inner.rank());
        ChaosComm { inner, plan, seq: RefCell::new(HashMap::new()), kill_step, killed: Cell::new(false) }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &Comm {
        &self.inner
    }

    /// The plan driving this wrapper.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    /// Whether the plan has already killed this rank.
    pub fn is_killed(&self) -> bool {
        self.killed.get()
    }

    fn check_alive(&self) -> Result<(), CommError> {
        if self.killed.get() {
            Err(CommError::Disconnected)
        } else {
            Ok(())
        }
    }

    fn next_seq(&self, tag: Tag) -> u64 {
        let mut seq = self.seq.borrow_mut();
        let n = seq.entry(tag).or_insert(0);
        let s = *n;
        *n += 1;
        s
    }
}

impl Communicator for ChaosComm {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, dst: usize, tag: Tag, mut data: Vec<f64>) -> Result<(), CommError> {
        self.check_alive()?;
        let rank = self.inner.rank();
        let seq = self.next_seq(tag);
        match self.plan.decide(rank, tag, seq) {
            None => self.inner.send(dst, tag, data),
            Some(action) => {
                self.plan.record(rank, FaultEvent::Message { tag, seq, action });
                match action {
                    FaultAction::Drop => {
                        // Validate as a real send would, then discard.
                        if dst >= self.inner.size() {
                            return Err(CommError::RankOutOfRange {
                                rank: dst,
                                size: self.inner.size(),
                            });
                        }
                        Ok(())
                    }
                    FaultAction::Duplicate => {
                        self.inner.send(dst, tag, data.clone())?;
                        self.inner.send(dst, tag, data)
                    }
                    FaultAction::Delay(d) => {
                        std::thread::sleep(d);
                        self.inner.send(dst, tag, data)
                    }
                    FaultAction::CorruptBit { elem, bit } => {
                        if !data.is_empty() {
                            let i = elem % data.len();
                            data[i] = f64::from_bits(data[i].to_bits() ^ (1u64 << (bit % 64)));
                        }
                        self.inner.send(dst, tag, data)
                    }
                }
            }
        }
    }

    fn recv(&self, src: usize, tag: Tag) -> Result<Vec<f64>, CommError> {
        self.check_alive()?;
        self.inner.recv(src, tag)
    }

    /// Recycles the delivered vector like the production transport.
    fn recv_deadline_buffered(
        &self,
        src: usize,
        tag: Tag,
        timeout: Duration,
        out: &mut Vec<f64>,
    ) -> Result<(), CommError> {
        self.check_alive()?;
        self.inner.recv_deadline_buffered(src, tag, timeout, out)
    }

    fn allreduce_sum(&self, data: &[f64]) -> Result<Vec<f64>, CommError> {
        self.check_alive()?;
        self.inner.allreduce_sum(data)
    }

    fn broadcast(&self, data: &[f64]) -> Result<Vec<f64>, CommError> {
        self.check_alive()?;
        self.inner.broadcast(data)
    }

    fn set_op_timeout(&self, timeout: Option<Duration>) {
        self.inner.set_op_timeout(timeout)
    }

    fn op_timeout(&self) -> Option<Duration> {
        self.inner.op_timeout()
    }

    fn notify_step(&self, step: u64) {
        let rank = self.inner.rank();
        if let Some(kill) = self.kill_step {
            if step >= kill && !self.killed.get() {
                self.killed.set(true);
                self.plan.record(rank, FaultEvent::Kill { step });
            }
        }
        if let Some(dur) = self.plan.stall_for(rank, step) {
            self.plan.record(rank, FaultEvent::Stall { step, dur });
            std::thread::sleep(dur);
        }
    }
}

impl World {
    /// Like [`World::run`], but each rank's communicator is a [`ChaosComm`]
    /// applying the shared `plan`.
    pub fn run_chaos<T, F>(&self, plan: &Arc<FaultPlan>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(ChaosComm) -> T + Sync,
    {
        self.run(|c| f(ChaosComm::new(c, Arc::clone(plan))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_is_deterministic_and_interleaving_independent() {
        let plan = FaultPlan::new(42).with_rates(0.1, 0.1, 0.1, 0.1);
        let plan2 = FaultPlan::new(42).with_rates(0.1, 0.1, 0.1, 0.1);
        for rank in 0..4 {
            for tag in 0..8u64 {
                for seq in 0..64 {
                    assert_eq!(plan.decide(rank, tag, seq), plan2.decide(rank, tag, seq));
                }
            }
        }
        // A different seed must produce a different pattern somewhere.
        let other = FaultPlan::new(43).with_rates(0.1, 0.1, 0.1, 0.1);
        let differs = (0..4).any(|rank| {
            (0..8u64).any(|tag| {
                (0..64).any(|seq| plan.decide(rank, tag, seq) != other.decide(rank, tag, seq))
            })
        });
        assert!(differs, "seeds 42 and 43 produced identical fault patterns");
    }

    #[test]
    fn rates_hit_expected_frequency_roughly() {
        let plan = FaultPlan::new(7).with_rates(0.25, 0.0, 0.0, 0.0);
        let n = 4000;
        let drops = (0..n).filter(|&s| plan.decide(0, 3, s).is_some()).count();
        let frac = drops as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.05, "drop fraction {frac} far from 0.25");
    }

    #[test]
    fn random_faults_respect_tag_scope() {
        let plan = FaultPlan::new(9).with_rates(1.0, 0.0, 0.0, 0.0);
        assert!(plan.decide(0, 3, 0).is_some(), "halo tag must be eligible");
        assert!(plan.decide(0, 40, 0).is_none(), "scatter tag must be exempt");
    }

    #[test]
    fn dropped_message_never_arrives_and_is_logged() {
        let plan = Arc::new(FaultPlan::new(1).drop_message(0, 5, 0));
        let out = World::new(2).run_chaos(&plan, |c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![1.0]).unwrap(); // dropped
                c.send(1, 5, vec![2.0]).unwrap(); // seq 1: delivered
                vec![]
            } else {
                c.recv(0, 5).unwrap()
            }
        });
        assert_eq!(out[1], vec![2.0], "receiver must see the second send first");
        assert_eq!(plan.count_message_faults(|a| *a == FaultAction::Drop), 1);
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let plan = Arc::new(FaultPlan::new(1).corrupt_message(0, 2, 0));
        let out = World::new(2).run_chaos(&plan, |c| {
            if c.rank() == 0 {
                c.send(1, 2, vec![1.5, 2.5, 3.5]).unwrap();
                vec![]
            } else {
                c.recv(0, 2).unwrap()
            }
        });
        let clean = [1.5f64, 2.5, 3.5];
        let flipped: u32 = out[1]
            .iter()
            .zip(clean.iter())
            .map(|(a, b)| (a.to_bits() ^ b.to_bits()).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit must differ");
    }

    #[test]
    fn duplicate_delivers_twice() {
        let plan = Arc::new(FaultPlan::new(1).duplicate_message(0, 4, 0));
        let out = World::new(2).run_chaos(&plan, |c| {
            if c.rank() == 0 {
                c.send(1, 4, vec![8.0]).unwrap();
                vec![]
            } else {
                let a = c.recv(0, 4).unwrap();
                let b = c.recv(0, 4).unwrap();
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[1], vec![8.0, 8.0]);
    }

    #[test]
    fn killed_rank_gets_disconnected_from_every_op() {
        let plan = Arc::new(FaultPlan::new(1).kill_rank(1, 3));
        let out = World::new(2).run_chaos(&plan, |c| {
            if c.rank() == 1 {
                c.notify_step(2);
                assert!(c.send(0, 1, vec![0.0]).is_ok(), "alive before the kill step");
                c.notify_step(3);
                let e = c.send(0, 1, vec![0.0]).unwrap_err();
                assert_eq!(e, CommError::Disconnected);
                let e = c.recv(0, 1).unwrap_err();
                assert_eq!(e, CommError::Disconnected);
                let mut buf = Vec::new();
                let e = c.recv_deadline_buffered(0, 1, Duration::from_millis(1), &mut buf);
                assert_eq!(e.unwrap_err(), CommError::Disconnected);
                assert_eq!(c.allreduce_sum(&[1.0]).unwrap_err(), CommError::Disconnected);
                assert_eq!(c.broadcast(&[1.0]).unwrap_err(), CommError::Disconnected);
                assert!(c.is_killed());
                true
            } else {
                // Drain the one message rank 1 sent while alive.
                c.recv(1, 1).map(|_| true).unwrap()
            }
        });
        assert!(out.iter().all(|&b| b));
        assert!(plan.records().iter().any(|r| matches!(r.event, FaultEvent::Kill { step: 3 })));
    }

    #[test]
    fn stall_fires_once_and_is_logged() {
        let plan = Arc::new(FaultPlan::new(1).stall_rank(0, 1, Duration::from_millis(5)));
        World::new(1).run_chaos(&plan, |c| {
            c.notify_step(0);
            c.notify_step(1);
            c.notify_step(2);
        });
        let stalls = plan
            .records()
            .iter()
            .filter(|r| matches!(r.event, FaultEvent::Stall { .. }))
            .count();
        assert_eq!(stalls, 1);
    }
}
