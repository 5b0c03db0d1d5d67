//! Rank-per-thread communicator.
//!
//! [`run_ranks`] spawns one OS thread per rank and hands each a
//! [`ThreadComm`]; a [`RankWorld`] keeps its rank threads across runs and
//! hands them fresh communicators each time. Point-to-point messages flow through crossbeam channels
//! into a per-rank mailbox keyed by `(source, tag)`; collectives are built
//! on top of the point-to-point layer plus a shared barrier, mirroring how
//! an MPI implementation layers its collectives.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::collectives::{self, Transport};
use crate::comm::{Comm, Payload, ReduceOp};
use crate::fault::{CommError, FaultPlan, FaultState, InjectionStats};
use crate::stats::CommStats;

/// Tag bit reserved for internal collective traffic. User tags must keep
/// this bit clear; `sm-dbcsr`'s wire module funnels all tagged block
/// traffic through a checked constructor that enforces this.
pub const COLLECTIVE_BIT: u64 = 1 << 63;

/// Tag of the poison envelope a dying rank broadcasts so peers blocked in
/// `recv` fail fast instead of hanging. It carries *both* reserved bits,
/// which no collective (`COLLECTIVE_BIT` only), subgroup (`SUBGROUP_BIT`
/// only) or user (neither) tag can ever match.
const POISON_TAG: u64 = COLLECTIVE_BIT | crate::subcomm::SUBGROUP_BIT;

/// Poll period for re-checking peer-failure flags while blocked in a
/// receive; the poison envelope normally wakes the receiver long before
/// this fires, so it is a liveness backstop, not the detection path.
const FAILURE_POLL: Duration = Duration::from_millis(5);

type Envelope = (usize, u64, Payload);

/// Per-rank fault-injection context installed by
/// [`run_ranks_with_faults`]: the shared plan and state.
struct FaultCtx {
    plan: Arc<FaultPlan>,
    state: Arc<FaultState>,
}

/// Communicator handle owned by one rank thread.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
    mailbox: std::cell::RefCell<HashMap<(usize, u64), VecDeque<Payload>>>,
    barrier: Arc<std::sync::Barrier>,
    stats: Arc<CommStats>,
    /// Monotonically increasing collective sequence number; keeps the tags
    /// of successive collectives distinct so traffic can never cross-match.
    coll_seq: std::cell::Cell<u64>,
    /// Fault-injection context, if this world runs under a non-empty
    /// [`FaultPlan`].
    fault: Option<FaultCtx>,
    /// Peers this rank has *observed* failing (poison envelope or failed
    /// channel), independent of any installed plan.
    peer_failed: RefCell<Vec<bool>>,
}

impl ThreadComm {
    /// Shared transfer counters for the whole communicator.
    pub fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    /// The fault plan this world runs under — `None` for the empty plan,
    /// under which nothing is ever injected.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref().map(|f| &f.plan)
    }

    /// Announce this rank's death: raise its failed flag (when fault state
    /// is installed) and post a poison envelope to every peer so blocked
    /// receivers fail fast instead of hanging. Idempotent; called
    /// automatically when a rank thread unwinds mid-epoch.
    pub fn poison_peers(&self) {
        if let Some(f) = &self.fault {
            f.state.mark_failed(self.rank);
        }
        self.peer_failed.borrow_mut()[self.rank] = true;
        for dst in 0..self.size {
            if dst != self.rank {
                // Control traffic: uncounted, and a dead receiver is fine.
                let _ = self.senders[dst].send((self.rank, POISON_TAG, Payload::U64(Vec::new())));
            }
        }
    }

    fn next_collective_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        COLLECTIVE_BIT | seq
    }

    fn note_peer_failed(&self, rank: usize) {
        self.peer_failed.borrow_mut()[rank] = true;
        if let Some(f) = &self.fault {
            f.state.mark_failed(rank);
        }
    }

    fn peer_known_failed(&self, rank: usize) -> bool {
        self.peer_failed.borrow()[rank]
            || self.fault.as_ref().is_some_and(|f| f.state.is_failed(rank))
    }
}

impl Drop for ThreadComm {
    /// A rank thread that unwinds mid-epoch poisons its channels on the
    /// way out, so peers blocked in `recv` on it fail fast (clean panic or
    /// [`CommError::RankFailed`] from the deadline variants) instead of
    /// hanging until process teardown.
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.poison_peers();
        }
    }
}

impl Comm for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, dst: usize, tag: u64, payload: Payload) {
        assert!(
            tag & COLLECTIVE_BIT == 0,
            "user tags must not set the collective bit"
        );
        assert!(
            tag & crate::subcomm::SUBGROUP_BIT == 0,
            "user tags must not set the subgroup bit"
        );
        self.send_internal(dst, tag, payload);
    }

    fn recv(&self, src: usize, tag: u64) -> Payload {
        self.recv_internal(src, tag)
    }

    fn recv_deadline(&self, src: usize, tag: u64, timeout: Duration) -> Result<Payload, CommError> {
        self.recv_until(src, tag, Some(timeout))
    }

    fn barrier(&self) {
        self.barrier.wait();
    }

    fn allreduce_f64(&self, op: ReduceOp, x: &mut [f64]) {
        let tag_up = self.next_collective_tag();
        let tag_down = self.next_collective_tag();
        collectives::allreduce_f64(self, tag_up, tag_down, op, x);
    }

    fn allgather_u64(&self, local: &[u64]) -> Vec<Vec<u64>> {
        collectives::allgather_u64(self, self.next_collective_tag(), local)
    }

    fn allgather_f64(&self, local: &[f64]) -> Vec<Vec<f64>> {
        collectives::allgather_f64(self, self.next_collective_tag(), local)
    }

    fn alltoallv(&self, sends: Vec<Payload>) -> Vec<Payload> {
        collectives::alltoallv(self, self.next_collective_tag(), sends)
    }

    fn broadcast_f64(&self, root: usize, x: &mut Vec<f64>) {
        collectives::broadcast_f64(self, self.next_collective_tag(), root, x)
    }

    fn send_subgroup(&self, dst: usize, tag: u64, payload: Payload) {
        crate::subcomm::assert_subgroup_tag(tag);
        self.send_internal(dst, tag, payload);
    }

    fn recv_subgroup(&self, src: usize, tag: u64) -> Payload {
        crate::subcomm::assert_subgroup_tag(tag);
        self.recv_internal(src, tag)
    }
}

impl Transport for ThreadComm {
    fn p2p_rank(&self) -> usize {
        self.rank
    }

    fn p2p_size(&self) -> usize {
        self.size
    }

    fn send_p2p(&self, dst: usize, tag: u64, payload: Payload) {
        self.send_internal(dst, tag, payload);
    }

    fn recv_p2p(&self, src: usize, tag: u64) -> Payload {
        self.recv_internal(src, tag)
    }
}

impl ThreadComm {
    /// The one send path: local delivery for a self-send, otherwise the
    /// fault plan's injection point and then the channel.
    fn send_internal(&self, dst: usize, tag: u64, payload: Payload) {
        if dst == self.rank {
            self.mailbox
                .borrow_mut()
                .entry((self.rank, tag))
                .or_default()
                .push_back(payload);
            return;
        }
        if let Some(f) = &self.fault {
            if let Some(d) = f.plan.slow_stall(self.rank) {
                f.state.count_stall();
                std::thread::sleep(d);
            }
        }
        // Count only inter-rank traffic: MPI self-sends are memcpys.
        self.stats.record_send(self.rank, payload.byte_len());
        if self.senders[dst].send((self.rank, tag, payload)).is_err() {
            // Receiver thread gone. Under a fault model that is an
            // expected condition (sends to the dead are dropped, as MPI
            // buffered sends to a failed peer would be); without one it is
            // a programmer error in the test harness.
            if self.fault.is_some() || self.peer_known_failed(dst) {
                self.note_peer_failed(dst);
            } else {
                panic!("receiver thread terminated early");
            }
        }
    }

    /// File an incoming envelope: poison marks the sender failed, anything
    /// else is buffered by `(source, tag)`.
    fn stash(&self, (from, tag, payload): Envelope) {
        if tag == POISON_TAG {
            self.note_peer_failed(from);
        } else {
            self.mailbox
                .borrow_mut()
                .entry((from, tag))
                .or_default()
                .push_back(payload);
        }
    }

    /// Take the oldest message of `(src, tag)`, dropping the queue once it
    /// drains: every collective takes a fresh tag, so a kept empty queue
    /// would be one dead entry per collective for the communicator's life.
    fn pop_mailbox(&self, src: usize, tag: u64) -> Option<Payload> {
        let mut mailbox = self.mailbox.borrow_mut();
        let queue = mailbox.get_mut(&(src, tag))?;
        let payload = queue.pop_front();
        if queue.is_empty() {
            mailbox.remove(&(src, tag));
        }
        payload
    }

    /// Drain everything already queued in the channel without blocking;
    /// used before concluding a peer is dead, so messages it sent before
    /// dying are never lost.
    fn drain_channel(&self) {
        while let Ok(env) = self.receiver.try_recv() {
            self.stash(env);
        }
    }

    /// The one receive loop. A blocking receive is the deadline receive
    /// with no deadline: `timeout: None` never reads the clock and can only
    /// fail with [`CommError::RankFailed`].
    fn recv_until(
        &self,
        src: usize,
        tag: u64,
        timeout: Option<Duration>,
    ) -> Result<Payload, CommError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(p) = self.pop_mailbox(src, tag) {
                return Ok(p);
            }
            if self.peer_known_failed(src) {
                // The peer died, but messages it sent first still count.
                self.drain_channel();
                return self
                    .pop_mailbox(src, tag)
                    .ok_or(CommError::RankFailed { rank: src });
            }
            let wait = match deadline {
                None => FAILURE_POLL,
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(CommError::Timeout { src, tag });
                    }
                    (deadline - now).min(FAILURE_POLL)
                }
            };
            match self.receiver.recv_timeout(wait) {
                Ok(env) => self.stash(env),
                Err(RecvTimeoutError::Timeout) => {} // re-check failure flags
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("own sender handle keeps the channel alive")
                }
            }
        }
    }

    fn recv_internal(&self, src: usize, tag: u64) -> Payload {
        self.recv_until(src, tag, None).unwrap_or_else(|_| {
            panic!(
                "rank {src} failed while rank {} was blocked in recv (tag {tag:#x}); \
                 fault-tolerant callers should use recv_deadline",
                self.rank
            )
        })
    }
}

/// Run `f(comm)` on `size` rank threads and collect the per-rank results
/// (indexed by rank) plus the shared transfer statistics:
/// [`run_ranks_with_faults`] under the empty [`FaultPlan`].
///
/// Panics in any rank are propagated to the caller.
pub fn run_ranks<T, F>(size: usize, f: F) -> (Vec<T>, Arc<CommStats>)
where
    T: Send,
    F: Fn(&ThreadComm) -> T + Sync,
{
    let (results, stats, _) = run_ranks_with_faults(size, FaultPlan::new(), f);
    let results = results
        .into_iter()
        .map(|r| r.expect("the empty plan fails no rank"));
    (results.collect(), stats)
}

/// Run `f(comm)` on `size` rank threads with `plan` installed on every
/// rank's communicator: slow-rank stalls fire deterministically in the
/// send path, and rank deaths propagate through the poison protocol
/// plus the shared [`FaultState`]. An **empty** plan installs nothing —
/// the send path keeps its single fault check, a miss, and
/// [`ThreadComm::fault_plan`] is `None`. Returns per-rank results (`None`
/// for a rank the plan fails whose thread unwound — a *planned* death,
/// already poisoned on the way down; panics of ranks the plan does not
/// fail propagate), the shared transfer statistics, and the injection
/// counters that actually fired.
///
/// The ranks are scoped threads started for this call, so `f` may borrow;
/// [`RankWorld::run`] is the same contract on threads that outlive it.
///
/// The world-sized in-memory [`Comm::barrier`] must not be crossed after a
/// planned rank failure — dead ranks can never arrive. Protocols that
/// survive faults are built on deadline receives and subgroup collectives
/// over surviving members only (see `sm_pipeline`'s rank executor).
pub fn run_ranks_with_faults<T, F>(
    size: usize,
    plan: FaultPlan,
    f: F,
) -> (Vec<Option<T>>, Arc<CommStats>, InjectionStats)
where
    T: Send,
    F: Fn(&ThreadComm) -> T + Sync,
{
    run_world(size, plan, |comms| {
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| scope.spawn(move || f(&comm)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    })
}

/// What both executors share around the threads: fresh communicators for
/// one run, then each rank's outcome mapped in rank order — a planned
/// death's panic becomes `None`, any other panic is re-raised on the
/// caller (after every rank has returned).
fn run_world<T>(
    size: usize,
    plan: FaultPlan,
    launch: impl FnOnce(Vec<ThreadComm>) -> Vec<std::thread::Result<T>>,
) -> (Vec<Option<T>>, Arc<CommStats>, InjectionStats) {
    assert!(size >= 1, "need at least one rank");
    let fault = (!plan.is_empty()).then(|| (Arc::new(plan), Arc::new(FaultState::new(size))));
    let (comms, stats) = build_comms(size, fault.as_ref());
    let planned_death = |rank| matches!(&fault, Some((plan, _)) if plan.fails_at(rank).is_some());
    let results = launch(comms)
        .into_iter()
        .enumerate()
        .map(|(rank, outcome)| match outcome {
            Ok(v) => Some(v),
            // A planned death (the rank poisoned its channels on the way
            // down) is absorbed into the fault model.
            Err(_) if planned_death(rank) => None,
            Err(cause) => std::panic::resume_unwind(cause),
        })
        .collect();
    let injected = fault.map_or_else(InjectionStats::default, |(_, state)| state.snapshot());
    (results, stats, injected)
}

type RankTask = Box<dyn FnOnce() + Send>;

/// A world of rank threads that outlives the runs made on it, so a caller
/// that runs batch after batch starts no thread after the first. Thread
/// `r` runs rank `r` of every run; the world starts threads when a run
/// first needs them, grows to the largest size asked of it, and joins
/// them when dropped.
///
/// Each run gets fresh communicators (mailboxes, [`CommStats`], barrier
/// and fault state), as [`run_ranks_with_faults`] builds them, and maps
/// results and panics the same way. A run enqueues all its ranks under
/// one lock, so concurrent runs queue in the same order on every thread
/// and execute one after another instead of deadlocking. A rank body must
/// therefore never start a run on its own world: it would wait behind
/// itself.
#[derive(Default)]
pub struct RankWorld {
    ranks: Mutex<Vec<(Sender<RankTask>, JoinHandle<()>)>>,
}

impl RankWorld {
    /// [`run_ranks_with_faults`] on this world's threads, which is why `f`
    /// and `T` must be `'static`. Every rank body starts with its thread's
    /// trace sequence at 0, as on a thread of its own.
    pub fn run<T, F>(
        &self,
        size: usize,
        plan: FaultPlan,
        f: F,
    ) -> (Vec<Option<T>>, Arc<CommStats>, InjectionStats)
    where
        T: Send + 'static,
        F: Fn(&ThreadComm) -> T + Send + Sync + 'static,
    {
        run_world(size, plan, |comms| {
            let f = Arc::new(f);
            let (done, outcomes) = unbounded();
            {
                // Each update under the lock is one push or one send, which
                // leaves the list whole: a poisoned lock still guards a
                // valid list.
                let mut ranks = self.ranks.lock().unwrap_or_else(|e| e.into_inner());
                while ranks.len() < size {
                    let (tasks, queue) = unbounded::<RankTask>();
                    let thread = std::thread::spawn(move || {
                        while let Ok(task) = queue.recv() {
                            task();
                        }
                    });
                    ranks.push((tasks, thread));
                }
                for (rank, comm) in comms.into_iter().enumerate() {
                    let (f, done) = (Arc::clone(&f), done.clone());
                    // The body owns the comm and drops it inside the
                    // unwinding scope, so a panicking rank still poisons
                    // its peers; its thread survives for the next run.
                    let body = move || f(&comm);
                    let _ = ranks[rank].0.send(Box::new(move || {
                        sm_trace::reset_seq();
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(body));
                        let _ = done.send((rank, outcome));
                    }));
                }
            }
            drop(done);
            let mut slots: Vec<Option<std::thread::Result<T>>> = (0..size).map(|_| None).collect();
            while let Ok((rank, outcome)) = outcomes.recv() {
                slots[rank] = Some(outcome);
            }
            // A rank thread outlives every task it runs (each catches its
            // own panic), so no slot stays empty while the world lives.
            let lost = || Box::new("rank thread exited before reporting") as Box<dyn Any + Send>;
            slots
                .into_iter()
                .map(|s| s.unwrap_or_else(|| Err(lost())))
                .collect()
        })
    }

    /// OS threads this world has started (none exits before the world).
    pub fn threads_started(&self) -> usize {
        self.ranks.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl Drop for RankWorld {
    /// Close every rank's queue, then join its thread.
    fn drop(&mut self) {
        let ranks = self.ranks.get_mut().unwrap_or_else(|e| e.into_inner());
        for (tasks, thread) in ranks.drain(..) {
            drop(tasks);
            let _ = thread.join();
        }
    }
}

fn build_comms(
    size: usize,
    fault: Option<&(Arc<FaultPlan>, Arc<FaultState>)>,
) -> (Vec<ThreadComm>, Arc<CommStats>) {
    let stats = CommStats::new(size);
    let barrier = Arc::new(std::sync::Barrier::new(size));

    let mut senders = Vec::with_capacity(size);
    let mut receivers = Vec::with_capacity(size);
    for _ in 0..size {
        let (s, r) = unbounded::<Envelope>();
        senders.push(s);
        receivers.push(r);
    }

    let comms: Vec<ThreadComm> = receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| ThreadComm {
            rank,
            size,
            senders: senders.clone(),
            receiver,
            mailbox: std::cell::RefCell::new(HashMap::new()),
            barrier: Arc::clone(&barrier),
            stats: Arc::clone(&stats),
            coll_seq: std::cell::Cell::new(0),
            fault: fault.map(|(plan, state)| FaultCtx {
                plan: Arc::clone(plan),
                state: Arc::clone(state),
            }),
            peer_failed: RefCell::new(vec![false; size]),
        })
        .collect();
    (comms, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_know_themselves() {
        let (ranks, _) = run_ranks(4, |c| (c.rank(), c.size()));
        for (i, (r, s)) in ranks.iter().enumerate() {
            assert_eq!(*r, i);
            assert_eq!(*s, 4);
        }
    }

    #[test]
    fn ring_send_recv() {
        let n = 5;
        let (results, stats) = run_ranks(n, |c| {
            let next = (c.rank() + 1) % n;
            let prev = (c.rank() + n - 1) % n;
            c.send(next, 1, Payload::U64(vec![c.rank() as u64]));
            c.recv(prev, 1).into_u64()[0]
        });
        for (i, &got) in results.iter().enumerate() {
            assert_eq!(got as usize, (i + n - 1) % n);
        }
        assert_eq!(stats.total_msgs(), n as u64);
        assert_eq!(stats.total_bytes(), 8 * n as u64);
    }

    #[test]
    fn message_order_preserved_per_tag() {
        let (results, _) = run_ranks(2, |c| {
            if c.rank() == 0 {
                for k in 0..10u64 {
                    c.send(1, 3, Payload::U64(vec![k]));
                }
                Vec::new()
            } else {
                (0..10).map(|_| c.recv(0, 3).into_u64()[0]).collect()
            }
        });
        assert_eq!(results[1], (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let (results, _) = run_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 10, Payload::U64(vec![10]));
                c.send(1, 20, Payload::U64(vec![20]));
                0
            } else {
                // Receive in reverse order of sending.
                let b = c.recv(0, 20).into_u64()[0];
                let a = c.recv(0, 10).into_u64()[0];
                (a * 100 + b) as usize
            }
        });
        assert_eq!(results[1], 1020);
    }

    #[test]
    fn allreduce_sum_and_max() {
        let (results, _) = run_ranks(6, |c| {
            let mut x = vec![c.rank() as f64, 1.0];
            c.allreduce_f64(ReduceOp::Sum, &mut x);
            let mut y = vec![c.rank() as f64];
            c.allreduce_f64(ReduceOp::Max, &mut y);
            (x, y)
        });
        for (x, y) in results {
            assert_eq!(x, vec![15.0, 6.0]);
            assert_eq!(y, vec![5.0]);
        }
    }

    #[test]
    fn allgather_variable_lengths() {
        let (results, _) = run_ranks(3, |c| {
            let local: Vec<u64> = (0..c.rank() as u64).collect();
            c.allgather_u64(&local)
        });
        for r in results {
            assert_eq!(r[0], Vec::<u64>::new());
            assert_eq!(r[1], vec![0]);
            assert_eq!(r[2], vec![0, 1]);
        }
    }

    #[test]
    fn alltoallv_exchanges_personalized_data() {
        let n = 4;
        let (results, _) = run_ranks(n, |c| {
            let sends: Vec<Payload> = (0..n)
                .map(|d| Payload::U64(vec![(c.rank() * 10 + d) as u64]))
                .collect();
            c.alltoallv(sends)
        });
        for (me, recvd) in results.into_iter().enumerate() {
            for (src, p) in recvd.into_iter().enumerate() {
                assert_eq!(p.into_u64(), vec![(src * 10 + me) as u64]);
            }
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let (results, _) = run_ranks(4, |c| {
            let mut x = if c.rank() == 2 {
                vec![7.5, -1.0]
            } else {
                Vec::new()
            };
            c.broadcast_f64(2, &mut x);
            x
        });
        for r in results {
            assert_eq!(r, vec![7.5, -1.0]);
        }
    }

    #[test]
    fn barrier_separates_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_ranks(8, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must see all 8 increments.
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn self_send_is_local_and_uncounted() {
        let (results, stats) = run_ranks(2, |c| {
            c.send(c.rank(), 5, Payload::U64(vec![42]));
            c.recv(c.rank(), 5).into_u64()[0]
        });
        assert_eq!(results, vec![42, 42]);
        assert_eq!(
            stats.total_bytes(),
            0,
            "self-sends must not count as traffic"
        );
    }

    #[test]
    fn consecutive_collectives_do_not_cross_talk() {
        let (results, _) = run_ranks(3, |c| {
            let mut sums = Vec::new();
            for round in 0..5 {
                let mut x = vec![(c.rank() + round) as f64];
                c.allreduce_f64(ReduceOp::Sum, &mut x);
                sums.push(x[0]);
            }
            sums
        });
        for r in results {
            assert_eq!(r, vec![3.0, 6.0, 9.0, 12.0, 15.0]);
        }
    }

    #[test]
    fn recv_deadline_times_out_cleanly() {
        let (results, _) = run_ranks(2, |c| {
            if c.rank() == 0 {
                c.recv_deadline(1, 9, Duration::from_millis(20))
            } else {
                Ok(Payload::U64(Vec::new())) // rank 1 sends nothing
            }
        });
        assert_eq!(results[0], Err(CommError::Timeout { src: 1, tag: 9 }));
    }

    #[test]
    fn planned_rank_death_unblocks_deadline_receivers() {
        let plan = FaultPlan::new().fail_rank(1, 0);
        let (results, _, inj) = run_ranks_with_faults(2, plan, |c| {
            if c.rank() == 1 {
                c.poison_peers();
                return Err(CommError::RankFailed { rank: 1 });
            }
            c.recv_deadline(1, 4, Duration::from_secs(30))
        });
        assert_eq!(results[0], Some(Err(CommError::RankFailed { rank: 1 })));
        assert_eq!(inj.rank_failures, 1);
    }

    #[test]
    fn messages_sent_before_death_are_still_delivered() {
        let plan = FaultPlan::new().fail_rank(1, 0);
        let (results, _, _) = run_ranks_with_faults(2, plan, |c| {
            if c.rank() == 1 {
                c.send(0, 2, Payload::U64(vec![77]));
                c.poison_peers();
                return 0;
            }
            let first = c
                .recv_deadline(1, 2, Duration::from_secs(30))
                .unwrap()
                .into_u64()[0];
            // No further message can arrive: the death must surface as
            // RankFailed (fast), never as a hang.
            assert_eq!(
                c.recv_deadline(1, 2, Duration::from_secs(30)),
                Err(CommError::RankFailed { rank: 1 })
            );
            first
        });
        assert_eq!(results[0], Some(77));
    }

    #[test]
    fn planned_panic_is_absorbed_and_peers_fail_fast() {
        let plan = FaultPlan::new().fail_rank(1, 0);
        let (results, _, inj) = run_ranks_with_faults(2, plan, |c| {
            if c.rank() == 1 {
                // Unwinding poisons the channels via Drop.
                panic!("simulated mid-epoch crash");
            }
            c.recv_deadline(1, 8, Duration::from_secs(30))
        });
        assert_eq!(results[1], None, "planned death is absorbed");
        assert_eq!(results[0], Some(Err(CommError::RankFailed { rank: 1 })));
        assert_eq!(inj.rank_failures, 1);
    }

    #[test]
    fn unplanned_rank_death_panics_a_blocked_peer_instead_of_hanging() {
        // No plan installed: the only failure detection is the poison
        // envelope rank 1's communicator posts as its thread unwinds.
        let world = std::thread::spawn(|| {
            run_ranks(2, |c| {
                if c.rank() == 1 {
                    panic!("unplanned crash");
                }
                c.recv(1, 5)
            })
        });
        let watchdog = Instant::now() + Duration::from_secs(30);
        while !world.is_finished() {
            assert!(
                Instant::now() < watchdog,
                "rank 0 hung in recv on a dead peer"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Ranks are joined in order, so rank 0's panic is the one resumed.
        let cause = world.join().expect_err("the world must panic");
        let msg = cause.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains("rank 1 failed while rank 0 was blocked in recv"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    fn slow_rule_changes_timing_not_results() {
        let plan = FaultPlan::new().slow_rank(0, 50);
        let (results, _, inj) = run_ranks_with_faults(2, plan, |c| {
            if c.rank() == 0 {
                c.send(1, 6, Payload::U64(vec![5]));
                0
            } else {
                c.recv(0, 6).into_u64()[0]
            }
        });
        assert_eq!(results[1], Some(5));
        assert_eq!(inj.slow_stalls, 1);
    }

    #[test]
    fn drained_mailbox_queues_are_dropped() {
        let (entries, _) = run_ranks(2, |c| {
            for k in 0..1000 {
                let mut x = vec![k as f64];
                c.allreduce_f64(ReduceOp::Sum, &mut x);
            }
            c.mailbox.borrow().len()
        });
        assert_eq!(entries, vec![0, 0]);
    }

    #[test]
    fn a_world_keeps_its_threads_across_runs() {
        let world = RankWorld::default();
        let ring = |c: &ThreadComm| {
            let n = c.size();
            c.send((c.rank() + 1) % n, 1, Payload::U64(vec![c.rank() as u64]));
            c.recv((c.rank() + n - 1) % n, 1).into_u64()[0]
        };
        let (first, stats, _) = world.run(3, FaultPlan::new(), ring);
        assert_eq!(first, vec![Some(2), Some(0), Some(1)]);
        assert_eq!(stats.total_msgs(), 3);
        assert_eq!(world.threads_started(), 3);
        // Smaller and equal runs reuse the threads, with fresh stats.
        for size in [2, 3, 1] {
            let (out, stats, _) = world.run(size, FaultPlan::new(), ring);
            let expect: Vec<_> = (0..size)
                .map(|r| Some(((r + size - 1) % size) as u64))
                .collect();
            assert_eq!(out, expect);
            assert_eq!(stats.total_msgs(), if size > 1 { size as u64 } else { 0 });
        }
        assert_eq!(world.threads_started(), 3);
        let _ = world.run(4, FaultPlan::new(), ring);
        assert_eq!(world.threads_started(), 4, "the world grows by one thread");
    }

    #[test]
    fn a_world_maps_deaths_and_panics_as_scoped_ranks_do() {
        let world = RankWorld::default();
        let plan = FaultPlan::new().fail_rank(1, 0);
        let (results, _, inj) = world.run(2, plan, |c| {
            if c.rank() == 1 {
                panic!("simulated mid-epoch crash");
            }
            c.recv_deadline(1, 8, Duration::from_secs(30))
        });
        assert_eq!(results[1], None, "planned death is absorbed");
        assert_eq!(results[0], Some(Err(CommError::RankFailed { rank: 1 })));
        assert_eq!(inj.rank_failures, 1);
        // An unplanned panic poisons the blocked peer and reaches the
        // caller; the threads survive it.
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            world.run(2, FaultPlan::new(), |c| {
                if c.rank() == 1 {
                    panic!("unplanned crash");
                }
                c.recv(1, 5)
            })
        }));
        let cause = caught.expect_err("the run must panic");
        let msg = cause.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains("rank 1 failed while rank 0 was blocked in recv"),
            "{msg}"
        );
        let (ranks, _, _) = world.run(2, FaultPlan::new(), |c| c.rank());
        assert_eq!(ranks, vec![Some(0), Some(1)]);
        assert_eq!(world.threads_started(), 2);
    }

    #[test]
    fn single_rank_world_works() {
        let (results, _) = run_ranks(1, |c| {
            let mut x = vec![3.0];
            c.allreduce_f64(ReduceOp::Sum, &mut x);
            let g = c.allgather_u64(&[1, 2]);
            let a = c.alltoallv(vec![Payload::U64(vec![9])]);
            (x[0], g[0].clone(), a[0].clone().into_u64())
        });
        assert_eq!(results[0].0, 3.0);
        assert_eq!(results[0].1, vec![1, 2]);
        assert_eq!(results[0].2, vec![9]);
    }
}
