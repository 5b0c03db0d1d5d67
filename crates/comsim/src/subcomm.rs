//! Subcommunicators: partition a communicator into independent groups.
//!
//! [`Comm::split`] mirrors `MPI_Comm_split`: every rank of the parent calls
//! it collectively with a `color` and a `key`; ranks sharing a color form
//! one [`SubComm`], ordered by `(key, parent rank)`. [`split_known`] forms
//! the same handle from a member list the callers already agree on,
//! without a message. A subcommunicator supplies [`Comm`]'s raw tagged
//! pair by translating sub-ranks to parent ranks and moving its tags into
//! a reserved namespace of the parent's raw pair; its barrier, reductions,
//! gathers and all-to-all are [`Comm`]'s provided ones. So any collective
//! code written against [`Comm`] (the submatrix engine, the SCF driver,
//! the wire block exchanges) runs unchanged inside a subgroup, and a dead
//! member fails a subgroup collective as it fails a world one.
//!
//! ## Tag discipline
//!
//! The parent's tag space gains a second reserved bit: all subgroup
//! traffic rides parent tags with [`SUBGROUP_BIT`] set, so it can never
//! cross-match direct parent-level user sends (which `sm-dbcsr`'s
//! `user_tag` guard keeps clear of both reserved bits). Within that
//! namespace, bit [`SUB_COLLECTIVE_BIT`] separates the subgroup's own
//! collective traffic from its user sends — the same guard the parent
//! applies with [`COLLECTIVE_BIT`](crate::COLLECTIVE_BIT), one level down. User tags inside a
//! subgroup must therefore fit in the low [`SUB_TAG_BITS`] bits; the
//! existing wire-format tags (small constants) all do.
//!
//! Because colors partition the parent's ranks, two live subgroups can
//! never exchange messages, and a salt derived from the color keeps
//! traffic of a subgroup distinguishable from a later same-shape split.
//! Subcommunicators cannot be split again (nested namespaces would
//! overflow the tag word): [`SubComm`]'s `split` panics, and a subgroup
//! formed with [`split_known`] over a subgroup panics at its first
//! message.
//!
//! ## Re-split lifecycle
//!
//! Splits are cheap, borrow-scoped handles, so a scheduler can tear a
//! grouping down and re-deal the same world every **epoch**: drop the
//! epoch's `SubComm`s, then call [`Comm::split`] again on the *world*
//! comm — regrouping is always a fresh one-level split, never a nested
//! one, so the tag-namespace invariant survives any number of epochs.
//! Same-color re-splits share a tag salt, which is safe because every
//! protocol here fully drains its messages before the handle is dropped;
//! callers that want per-epoch namespaces mix the epoch index into the
//! color (the scheduler does). Each new handle starts with **fresh
//! zeroed [`CommStats`]**, giving per-epoch traffic accounting for free,
//! while the parent's counters keep accumulating across epochs. The
//! `resplit_lifecycle` integration suite pins all of this.
//!
//! ## Statistics
//!
//! Each [`SubComm`] handle carries its own [`CommStats`] sized to the
//! subgroup, counting the traffic *this rank* sent within the group
//! (indexed by sub-rank). Parent-level counters still see the same bytes;
//! the subgroup view is what lets a scheduler attribute traffic per job
//! group — each member returns its own row, and the caller sums them.

use std::cell::Cell;
use std::sync::Arc;

use crate::comm::{Comm, Payload};
use crate::stats::CommStats;

/// Parent-tag bit reserved for subgroup traffic (bit 62; bit 63 is the
/// parent's own [`COLLECTIVE_BIT`](crate::COLLECTIVE_BIT)).
pub const SUBGROUP_BIT: u64 = 1 << 62;

/// Bit separating a subgroup's internal collective traffic from its user
/// sends, inside the subgroup namespace.
pub const SUB_COLLECTIVE_BIT: u64 = 1 << 46;

/// Width of the user tag space inside a subgroup.
pub const SUB_TAG_BITS: u32 = 46;

/// Bits of color-derived salt mixed into every subgroup tag.
const SALT_BITS: u32 = 15;
const SALT_SHIFT: u32 = 47;

/// One rank's handle on a subgroup of a parent communicator. Created
/// collectively by [`Comm::split`] or from agreed members by
/// [`split_known`].
pub struct SubComm<'a, C: Comm> {
    parent: &'a C,
    color: u64,
    /// This rank's index within the subgroup.
    rank: usize,
    /// Parent ranks of the subgroup members, indexed by sub-rank.
    members: Vec<usize>,
    salt: u64,
    stats: Arc<CommStats>,
    coll_seq: Cell<u64>,
}

/// Build a subgroup from an **explicitly agreed member list** instead of a
/// parent-level collective. Every member must call this with the *same*
/// `color` and `members` (parent ranks, in sub-rank order); no message is
/// exchanged, so ranks outside `members` — including dead ones — are not
/// involved at all. This is the group-formation primitive of the fault
/// recovery path: after the fault consensus commits a survivor set, each
/// survivor derives its group membership from the same pure function of
/// the committed view and calls `split_known`, where the collective
/// [`Comm::split`] would hang waiting for failed ranks.
///
/// # Panics
/// Panics if the calling rank is not in `members` (an empty list
/// included) — a programmer error in the caller's group computation.
pub fn split_known<C: Comm>(parent: &C, color: u64, members: Vec<usize>) -> SubComm<'_, C> {
    let rank = members
        .iter()
        .position(|&r| r == parent.rank())
        .expect("split_known caller must be in the member list");
    let stats = CommStats::new(members.len());
    SubComm {
        parent,
        color,
        rank,
        members,
        salt: salt_for_color(color),
        stats,
        coll_seq: Cell::new(0),
    }
}

/// SplitMix64-style salt from the subgroup color, truncated to
/// [`SALT_BITS`]. Distinguishes (probabilistically) the tag namespaces of
/// differently-colored splits over time; same-color re-splits share a
/// namespace, which is safe because every protocol here fully drains its
/// messages (each send matched by a blocking recv).
fn salt_for_color(color: u64) -> u64 {
    let mut z = color.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & ((1 << SALT_BITS) - 1)
}

impl<'a, C: Comm> SubComm<'a, C> {
    /// The color this subgroup was formed with.
    pub fn color(&self) -> u64 {
        self.color
    }

    /// Parent ranks of all members, indexed by sub-rank.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The parent communicator.
    pub fn parent(&self) -> &'a C {
        self.parent
    }

    /// This handle's subgroup traffic counters: what *this rank* sent
    /// within the group, indexed by sub-rank. (Ranks do not share memory,
    /// so each member holds its own row; a caller that wants the group's
    /// traffic sums what the members return.)
    pub fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    fn user_tag(&self, tag: u64) -> u64 {
        assert!(
            tag >> SUB_TAG_BITS == 0,
            "subgroup user tag {tag:#x} exceeds {SUB_TAG_BITS} bits"
        );
        tag
    }

    /// The parent tag of a subgroup tag. A tag with bits above the
    /// subgroup's own is a nested subgroup's, which the namespace cannot
    /// hold.
    fn parent_tag(&self, tag: u64) -> u64 {
        assert!(
            tag >> SALT_SHIFT == 0,
            "nested subcommunicator splits are not supported (tag namespace is one level deep)"
        );
        SUBGROUP_BIT | (self.salt << SALT_SHIFT) | tag
    }
}

impl<C: Comm> Comm for SubComm<'_, C> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    /// Every subgroup send funnels through here, so this one chokepoint
    /// counts it in the handle's [`CommStats`].
    fn send_raw(&self, dst: usize, tag: u64, payload: Payload) {
        let parent_tag = self.parent_tag(tag);
        if dst != self.rank {
            self.stats.record_send(self.rank, payload.byte_len());
        }
        self.parent.send_raw(self.members[dst], parent_tag, payload);
    }

    fn recv_raw(&self, src: usize, tag: u64) -> Payload {
        self.parent
            .recv_raw(self.members[src], self.parent_tag(tag))
    }

    fn next_collective_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        assert!(
            seq >> SUB_TAG_BITS == 0,
            "subgroup collective sequence overflowed"
        );
        SUB_COLLECTIVE_BIT | seq
    }

    fn send(&self, dst: usize, tag: u64, payload: Payload) {
        self.send_raw(dst, self.user_tag(tag), payload);
    }

    fn recv(&self, src: usize, tag: u64) -> Payload {
        self.recv_raw(src, self.user_tag(tag))
    }

    fn split(&self, _color: u64, _key: u64) -> SubComm<'_, Self> {
        panic!("nested subcommunicator splits are not supported (tag namespace is one level deep)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{ReduceOp, SerialComm};
    use crate::thread::run_ranks;

    #[test]
    fn serial_split_is_singleton() {
        let c = SerialComm::new();
        let sub = c.split(7, 0);
        assert_eq!(sub.rank(), 0);
        assert_eq!(sub.size(), 1);
        assert_eq!(sub.members(), &[0]);
        let mut x = vec![2.0];
        sub.allreduce_f64(ReduceOp::Sum, &mut x);
        assert_eq!(x, vec![2.0]);
        sub.barrier();
        assert_eq!(sub.allgather_u64(&[4, 5]), vec![vec![4, 5]]);
        let got = sub.alltoallv(vec![Payload::U64(vec![1])]);
        assert_eq!(got[0].clone().into_u64(), vec![1]);
    }

    #[test]
    fn split_partitions_by_color_and_orders_by_key() {
        let (results, _) = run_ranks(6, |c| {
            // Even/odd split with keys reversing the natural order.
            let color = (c.rank() % 2) as u64;
            let key = (10 - c.rank()) as u64;
            let sub = c.split(color, key);
            (sub.rank(), sub.size(), sub.members().to_vec())
        });
        // Color 0 = parent ranks {0,2,4}, keys {10,8,6} => order 4,2,0.
        assert_eq!(results[4].0, 0);
        assert_eq!(results[2].0, 1);
        assert_eq!(results[0].0, 2);
        for r in [0, 2, 4] {
            assert_eq!(results[r].1, 3);
            assert_eq!(results[r].2, vec![4, 2, 0]);
        }
        // Color 1 = parent ranks {1,3,5}.
        assert_eq!(results[5].2, vec![5, 3, 1]);
    }

    #[test]
    fn subgroup_collectives_are_independent() {
        let (results, _) = run_ranks(6, |c| {
            let color = (c.rank() / 3) as u64; // {0,1,2} vs {3,4,5}
            let sub = c.split(color, c.rank() as u64);
            // Different groups do *different numbers* of collectives —
            // exactly what a world-level collective could never survive.
            let rounds = 1 + color as usize * 3;
            let mut total = 0.0;
            for _ in 0..rounds {
                let mut x = vec![sub.rank() as f64 + 1.0];
                sub.allreduce_f64(ReduceOp::Sum, &mut x);
                total = x[0];
            }
            sub.barrier();
            total
        });
        for r in results {
            assert_eq!(r, 6.0); // 1+2+3 in both groups
        }
    }

    #[test]
    fn subgroup_point_to_point_and_user_tags() {
        let (results, _) = run_ranks(4, |c| {
            let color = (c.rank() % 2) as u64;
            let sub = c.split(color, c.rank() as u64);
            // Ring within each 2-member subgroup, reusing the *same* user
            // tag in both groups: namespaces must not cross-match.
            let next = (sub.rank() + 1) % sub.size();
            let prev = (sub.rank() + sub.size() - 1) % sub.size();
            sub.send(next, 3, Payload::U64(vec![c.rank() as u64 * 100]));
            sub.recv(prev, 3).into_u64()[0]
        });
        assert_eq!(results, vec![200, 300, 0, 100]);
    }

    #[test]
    fn subgroup_stats_attribute_traffic_per_group() {
        let (results, _) = run_ranks(4, |c| {
            let color = (c.rank() / 2) as u64;
            let sub = c.split(color, c.rank() as u64);
            if sub.rank() == 0 {
                sub.send(1, 1, Payload::F64(vec![0.0; 10])); // 80 bytes
            } else {
                sub.recv(0, 1);
            }
            let stats = sub.stats();
            (stats.total_bytes(), stats.total_msgs())
        });
        // Each handle counts what its own rank sent: the sender's row
        // holds the group's message, and the members' rows sum to it.
        assert_eq!(results, [(80, 1), (0, 0), (80, 1), (0, 0)]);
    }

    #[test]
    fn world_and_subgroup_traffic_coexist() {
        // Parent-level user sends concurrent with subgroup traffic on the
        // same tag value: the SUBGROUP_BIT namespace keeps them apart.
        let (results, _) = run_ranks(4, |c| {
            let sub = c.split((c.rank() % 2) as u64, c.rank() as u64);
            if c.rank() == 0 {
                c.send(1, 9, Payload::U64(vec![111]));
            }
            sub.send((sub.rank() + 1) % 2, 9, Payload::U64(vec![c.rank() as u64]));
            let from_sub = sub.recv((sub.rank() + 1) % 2, 9).into_u64()[0];
            let from_world = if c.rank() == 1 {
                c.recv(0, 9).into_u64()[0]
            } else {
                0
            };
            (from_sub, from_world)
        });
        assert_eq!(results[0].0, 2);
        assert_eq!(results[1], (3, 111));
    }

    #[test]
    #[should_panic(expected = "nested subcommunicator")]
    fn nested_split_rejected() {
        let c = SerialComm::new();
        let sub = c.split(0, 0);
        let _ = sub.split(0, 0);
    }

    #[test]
    #[should_panic(expected = "nested subcommunicator")]
    fn nested_split_known_panics_at_its_first_message() {
        let c = SerialComm::new();
        let sub = c.split(0, 0);
        let nested = split_known(&sub, 1, vec![0]);
        nested.send(0, 1, Payload::U64(vec![1]));
    }

    #[test]
    #[should_panic(expected = "exceeds 46 bits")]
    fn oversized_subgroup_user_tag_rejected() {
        let c = SerialComm::new();
        let sub = c.split(0, 0);
        sub.send(0, 1 << 50, Payload::U64(vec![1]));
    }

    #[test]
    fn full_collective_suite_inside_subgroups() {
        let (results, _) = run_ranks(6, |c| {
            let color = (c.rank() / 3) as u64;
            let sub = c.split(color, c.rank() as u64);
            let mut x = vec![sub.rank() as f64];
            sub.allreduce_f64(ReduceOp::Max, &mut x);
            let g = sub.allgather_u64(&[sub.rank() as u64]);
            let gf = sub.allgather_f64(&[sub.rank() as f64 * 0.5]);
            let a = sub.alltoallv(
                (0..sub.size())
                    .map(|d| Payload::U64(vec![(sub.rank() * 10 + d) as u64]))
                    .collect(),
            );
            (
                x[0],
                g,
                gf,
                a.into_iter().map(|p| p.into_u64()).collect::<Vec<_>>(),
            )
        });
        for (max, g, gf, a) in results {
            assert_eq!(max, 2.0);
            assert_eq!(g, vec![vec![0], vec![1], vec![2]]);
            assert_eq!(gf, vec![vec![0.0], vec![0.5], vec![1.0]]);
            for (src, v) in a.iter().enumerate() {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0] / 10, src as u64);
            }
        }
    }
}
