//! The communicator abstraction and its single-rank implementation.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use crate::fault::CommError;

/// Message payload. Keeping this a closed enum (instead of generics) lets
/// heterogeneous traffic — dense block data, block-ID lists — share one
/// mailbox and one byte-accounting path.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Dense floating-point data (matrix blocks, reduction operands).
    F64(Vec<f64>),
    /// Single-precision dense data — the reduced-precision value wire
    /// format of `sm_dbcsr::wire` (half the bytes of `F64`).
    F32(Vec<f32>),
    /// Index/ID lists (block IDs, counts, permutations).
    U64(Vec<u64>),
}

impl Payload {
    /// Wire size in bytes (what an MPI implementation would move).
    pub fn byte_len(&self) -> usize {
        match self {
            Payload::F64(v) => v.len() * 8,
            Payload::F32(v) => v.len() * 4,
            Payload::U64(v) => v.len() * 8,
        }
    }

    /// Unwrap an `F64` payload.
    ///
    /// # Panics
    /// Panics if the payload has a different variant — a protocol error.
    pub fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload, got {other:?}"),
        }
    }

    /// Unwrap a `U64` payload.
    ///
    /// # Panics
    /// Panics if the payload has a different variant — a protocol error.
    pub fn into_u64(self) -> Vec<u64> {
        match self {
            Payload::U64(v) => v,
            other => panic!("expected U64 payload, got {other:?}"),
        }
    }
}

/// Reduction operators for [`Comm::allreduce_f64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    /// Combine two scalars.
    #[inline]
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// MPI-like communicator. All collectives are blocking and must be entered
/// by every rank of the communicator (as in MPI).
pub trait Comm {
    /// This rank's index in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Post a message to `dst` with a user `tag`. Sending to self is
    /// allowed and delivered through the local mailbox.
    fn send(&self, dst: usize, tag: u64, payload: Payload);

    /// Blocking receive of the message from `src` carrying `tag`.
    /// Messages between the same (src, dst, tag) triple preserve order.
    fn recv(&self, src: usize, tag: u64) -> Payload;

    /// Deadline-based receive: blocks at most `timeout`, then returns
    /// [`CommError::Timeout`]; a peer known to have failed yields
    /// [`CommError::RankFailed`] without waiting. This is the primitive
    /// that guarantees a dead peer can never hang a group. The default
    /// forwards to the blocking [`recv`](Comm::recv): a single-rank
    /// transport either has the message or never will, and fault-tolerant
    /// protocols post their deadline receives on the world communicator,
    /// never on a subgroup.
    fn recv_deadline(&self, src: usize, tag: u64, timeout: Duration) -> Result<Payload, CommError> {
        let _ = timeout;
        Ok(self.recv(src, tag))
    }

    /// Synchronize all ranks.
    fn barrier(&self);

    /// In-place elementwise reduction across ranks; every rank ends up
    /// with the combined vector.
    fn allreduce_f64(&self, op: ReduceOp, x: &mut [f64]);

    /// Gather each rank's (variable-length) vector on every rank, indexed
    /// by source rank.
    fn allgather_u64(&self, local: &[u64]) -> Vec<Vec<u64>>;

    /// Gather each rank's (variable-length) f64 vector on every rank.
    fn allgather_f64(&self, local: &[f64]) -> Vec<Vec<f64>>;

    /// Personalized all-to-all: `sends[d]` goes to rank `d`; returns the
    /// vector received from each source rank (empty vectors allowed).
    fn alltoallv(&self, sends: Vec<Payload>) -> Vec<Payload>;

    /// Collectively partition this communicator into subgroups by `color`
    /// (MPI_Comm_split): every rank must call this; ranks sharing a color
    /// form one [`SubComm`](crate::subcomm::SubComm), ordered by
    /// `(key, rank)`. See [`crate::subcomm`] for the tag-namespace
    /// contract.
    fn split(&self, color: u64, key: u64) -> crate::subcomm::SubComm<'_, Self>
    where
        Self: Sized,
    {
        crate::subcomm::split(self, color, key)
    }

    /// Transport hook for subcommunicator traffic: deliver a message whose
    /// tag lives in the reserved [`SUBGROUP_BIT`](crate::subcomm::SUBGROUP_BIT)
    /// namespace (which [`send`](Comm::send) implementations may reject
    /// for user traffic). Not for direct use — [`SubComm`](crate::subcomm::SubComm)
    /// is the only caller.
    fn send_subgroup(&self, dst: usize, tag: u64, payload: Payload) {
        self.send(dst, tag, payload);
    }

    /// Receive counterpart of [`send_subgroup`](Comm::send_subgroup).
    fn recv_subgroup(&self, src: usize, tag: u64) -> Payload {
        self.recv(src, tag)
    }
}

/// Trivial single-rank communicator: all operations are local no-ops or
/// self-delivery through a mailbox.
#[derive(Default)]
pub struct SerialComm {
    mailbox: parking_lot::Mutex<HashMap<u64, VecDeque<Payload>>>,
}

impl SerialComm {
    /// Create a fresh single-rank communicator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Comm for SerialComm {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn send(&self, dst: usize, tag: u64, payload: Payload) {
        assert_eq!(dst, 0, "SerialComm only has rank 0");
        self.mailbox
            .lock()
            .entry(tag)
            .or_default()
            .push_back(payload);
    }

    fn recv(&self, src: usize, tag: u64) -> Payload {
        assert_eq!(src, 0, "SerialComm only has rank 0");
        self.mailbox
            .lock()
            .get_mut(&tag)
            .and_then(|q| q.pop_front())
            .expect("SerialComm::recv with empty mailbox would deadlock")
    }

    /// A single rank has nobody to wait on: if the mailbox is empty now it
    /// stays empty, so an empty mailbox is an immediate [`CommError::Timeout`]
    /// rather than the deadlock panic of the blocking [`recv`](Comm::recv).
    fn recv_deadline(
        &self,
        src: usize,
        tag: u64,
        _timeout: Duration,
    ) -> Result<Payload, CommError> {
        assert_eq!(src, 0, "SerialComm only has rank 0");
        self.mailbox
            .lock()
            .get_mut(&tag)
            .and_then(|q| q.pop_front())
            .ok_or(CommError::Timeout { src, tag })
    }

    fn barrier(&self) {}

    fn allreduce_f64(&self, _op: ReduceOp, _x: &mut [f64]) {}

    fn allgather_u64(&self, local: &[u64]) -> Vec<Vec<u64>> {
        vec![local.to_vec()]
    }

    fn allgather_f64(&self, local: &[f64]) -> Vec<Vec<f64>> {
        vec![local.to_vec()]
    }

    fn alltoallv(&self, sends: Vec<Payload>) -> Vec<Payload> {
        assert_eq!(sends.len(), 1);
        sends
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_byte_len() {
        assert_eq!(Payload::F64(vec![0.0; 3]).byte_len(), 24);
        assert_eq!(Payload::F32(vec![0.0; 3]).byte_len(), 12);
        assert_eq!(Payload::U64(vec![0; 2]).byte_len(), 16);
    }

    #[test]
    fn payload_unwrap() {
        assert_eq!(Payload::F64(vec![1.0]).into_f64(), vec![1.0]);
        assert_eq!(Payload::U64(vec![2]).into_u64(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn payload_wrong_unwrap_panics() {
        Payload::U64(vec![1]).into_f64();
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::Sum.combine(1.0, 2.0), 3.0);
        assert_eq!(ReduceOp::Max.combine(1.0, 2.0), 2.0);
        assert_eq!(ReduceOp::Min.combine(1.0, 2.0), 1.0);
    }

    #[test]
    fn serial_comm_self_messaging() {
        let c = SerialComm::new();
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        c.send(0, 7, Payload::F64(vec![1.0, 2.0]));
        c.send(0, 7, Payload::F64(vec![3.0]));
        assert_eq!(c.recv(0, 7).into_f64(), vec![1.0, 2.0]);
        assert_eq!(c.recv(0, 7).into_f64(), vec![3.0]);
    }

    #[test]
    fn serial_recv_deadline_times_out_instead_of_deadlocking() {
        let c = SerialComm::new();
        assert_eq!(
            c.recv_deadline(0, 7, Duration::from_millis(1)),
            Err(CommError::Timeout { src: 0, tag: 7 })
        );
        c.send(0, 7, Payload::U64(vec![9]));
        assert_eq!(
            c.recv_deadline(0, 7, Duration::from_millis(1))
                .unwrap()
                .into_u64(),
            vec![9]
        );
    }

    #[test]
    fn serial_collectives() {
        let c = SerialComm::new();
        c.barrier();
        let mut x = vec![1.0, 2.0];
        c.allreduce_f64(ReduceOp::Sum, &mut x);
        assert_eq!(x, vec![1.0, 2.0]);
        assert_eq!(c.allgather_u64(&[5, 6]), vec![vec![5, 6]]);
        let recv = c.alltoallv(vec![Payload::U64(vec![9])]);
        assert_eq!(recv[0].clone().into_u64(), vec![9]);
    }
}
