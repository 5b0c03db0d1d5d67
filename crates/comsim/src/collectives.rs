//! Collective algorithms shared by every point-to-point transport.
//!
//! [`ThreadComm`](crate::thread::ThreadComm) and
//! [`SubComm`](crate::subcomm::SubComm) both build their collectives on a
//! tagged send/recv primitive; the algorithms themselves (reduce-to-root
//! then fan-out for allreduce, ring exchanges for the gathers and
//! all-to-all) live here once, parameterized
//! over the [`Transport`]. Keeping a single copy is part of the
//! equivalence story: the serial/distributed bitwise contract depends on
//! both communicators combining values in the same order.

use crate::comm::{Payload, ReduceOp};

/// The point-to-point substrate a collective runs on. Tags are supplied
/// by the caller (each transport manages its own collective-tag
/// sequence/namespace).
pub(crate) trait Transport {
    fn p2p_rank(&self) -> usize;
    fn p2p_size(&self) -> usize;
    fn send_p2p(&self, dst: usize, tag: u64, payload: Payload);
    fn recv_p2p(&self, src: usize, tag: u64) -> Payload;
}

/// In-place elementwise reduction; every rank ends with the combined
/// vector. Rank 0 combines contributions in ascending source order, which
/// fixes the floating-point summation order independent of transport.
pub(crate) fn allreduce_f64<T: Transport>(
    t: &T,
    tag_up: u64,
    tag_down: u64,
    op: ReduceOp,
    x: &mut [f64],
) {
    if t.p2p_rank() == 0 {
        for src in 1..t.p2p_size() {
            let contrib = t.recv_p2p(src, tag_up).into_f64();
            assert_eq!(contrib.len(), x.len(), "allreduce length mismatch");
            for (xi, ci) in x.iter_mut().zip(contrib) {
                *xi = op.combine(*xi, ci);
            }
        }
        for dst in 1..t.p2p_size() {
            t.send_p2p(dst, tag_down, Payload::F64(x.to_vec()));
        }
    } else {
        t.send_p2p(0, tag_up, Payload::F64(x.to_vec()));
        let combined = t.recv_p2p(0, tag_down).into_f64();
        x.copy_from_slice(&combined);
    }
}

/// Gather each rank's (variable-length) vector on every rank, indexed by
/// source rank. Generic over the payload direction via the two closures.
fn allgather_with<T: Transport, V: Clone>(
    t: &T,
    tag: u64,
    local: &[V],
    wrap: impl Fn(Vec<V>) -> Payload,
    unwrap: impl Fn(Payload) -> Vec<V>,
) -> Vec<Vec<V>> {
    for dst in 0..t.p2p_size() {
        if dst != t.p2p_rank() {
            t.send_p2p(dst, tag, wrap(local.to_vec()));
        }
    }
    let mut out = vec![Vec::new(); t.p2p_size()];
    out[t.p2p_rank()] = local.to_vec();
    for (src, slot) in out.iter_mut().enumerate() {
        if src != t.p2p_rank() {
            *slot = unwrap(t.recv_p2p(src, tag));
        }
    }
    out
}

pub(crate) fn allgather_u64<T: Transport>(t: &T, tag: u64, local: &[u64]) -> Vec<Vec<u64>> {
    allgather_with(t, tag, local, Payload::U64, Payload::into_u64)
}

pub(crate) fn allgather_f64<T: Transport>(t: &T, tag: u64, local: &[f64]) -> Vec<Vec<f64>> {
    allgather_with(t, tag, local, Payload::F64, Payload::into_f64)
}

/// Personalized all-to-all: `sends[d]` goes to rank `d`; returns the
/// payload received from each source (the self-slot passes through
/// locally).
pub(crate) fn alltoallv<T: Transport>(t: &T, tag: u64, sends: Vec<Payload>) -> Vec<Payload> {
    assert_eq!(
        sends.len(),
        t.p2p_size(),
        "alltoallv needs one payload per rank"
    );
    let mut out: Vec<Option<Payload>> = (0..t.p2p_size()).map(|_| None).collect();
    for (dst, payload) in sends.into_iter().enumerate() {
        if dst == t.p2p_rank() {
            out[dst] = Some(payload);
        } else {
            t.send_p2p(dst, tag, payload);
        }
    }
    for (src, slot) in out.iter_mut().enumerate() {
        if src != t.p2p_rank() {
            *slot = Some(t.recv_p2p(src, tag));
        }
    }
    out.into_iter().map(|p| p.expect("filled above")).collect()
}

/// Gather-to-root + release fan-out: a barrier for transports without a
/// shared in-memory barrier (subcommunicators).
pub(crate) fn barrier_p2p<T: Transport>(t: &T, tag_up: u64, tag_down: u64) {
    if t.p2p_rank() == 0 {
        for src in 1..t.p2p_size() {
            t.recv_p2p(src, tag_up);
        }
        for dst in 1..t.p2p_size() {
            t.send_p2p(dst, tag_down, Payload::U64(Vec::new()));
        }
    } else {
        t.send_p2p(0, tag_up, Payload::U64(Vec::new()));
        t.recv_p2p(0, tag_down);
    }
}
