//! `SubComm` re-split lifecycle: the contract the scheduler's epoch loop
//! leans on. A subcommunicator is torn down (dropped) between epochs and
//! the **world** comm is re-split — always a fresh one-level split, never
//! a nested one — with fresh per-group `CommStats`, so traffic is
//! attributed per epoch. These tests pin: drop-then-resplit from the same
//! world comm succeeds (same colors or new ones), per-group counters
//! reset with every split while the parent's keep accumulating, epoch-
//! salted tag namespaces never cross-match, and the nested-split
//! rejection still fires.

use std::collections::BTreeMap;

use sm_comsim::{run_ranks, Comm, Payload, ReduceOp, SerialComm};

#[test]
fn drop_then_resplit_from_same_world_succeeds() {
    let (results, _) = run_ranks(6, |c| {
        let mut sums = Vec::new();
        // Epoch 0: two groups of three.
        {
            let sub = c.split((c.rank() / 3) as u64, c.rank() as u64);
            let mut x = vec![sub.rank() as f64 + 1.0];
            sub.allreduce_f64(ReduceOp::Sum, &mut x);
            sums.push(x[0]);
        } // epoch 0's SubComm dropped here
          // Epoch 1: regrouped — three groups of two, from the same world.
        {
            let sub = c.split((c.rank() % 3) as u64, c.rank() as u64);
            let mut x = vec![sub.rank() as f64 + 1.0];
            sub.allreduce_f64(ReduceOp::Sum, &mut x);
            sums.push(x[0]);
        }
        sums
    });
    for r in results {
        assert_eq!(r, vec![6.0, 3.0]); // 1+2+3 then 1+2
    }
}

#[test]
fn per_group_stats_reset_per_epoch_while_parent_accumulates() {
    let (results, world_stats) = run_ranks(4, |c| {
        let payload = || Payload::F64(vec![0.0; 10]); // 80 bytes
        let mut rows = Vec::new();
        for epoch in 0..3u64 {
            // Epoch-salted color, exactly like the scheduler's loop; the
            // grouping changes between epochs (parity, then halves).
            let color = if epoch == 1 {
                c.rank() / 2
            } else {
                c.rank() % 2
            } as u64;
            let sub = c.split((epoch << 32) | color, c.rank() as u64);
            // A fresh split starts at zero: per-epoch accounting needs no
            // manual reset.
            let stats = sub.stats();
            assert_eq!((stats.total_bytes(), stats.total_msgs()), (0, 0));
            if sub.rank() == 0 {
                sub.send(1, 1, payload());
            } else {
                sub.recv(0, 1);
            }
            let mut x = vec![sub.rank() as f64];
            sub.allreduce_f64(ReduceOp::Sum, &mut x);
            assert_eq!(x[0], 1.0); // 0 + 1 in every group of two
            rows.push(((epoch, color), stats.total_bytes(), stats.total_msgs()));
        }
        rows
    });
    // The caller sums the members' rows per (epoch, group). Every epoch's
    // group moved one 80-byte payload and the same allreduce — the
    // previous epoch's traffic never leaks into the new counters.
    let mut groups: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
    for (group, bytes, msgs) in results.into_iter().flatten() {
        let sum = groups.entry(group).or_default();
        *sum = (sum.0 + bytes, sum.1 + msgs);
    }
    assert_eq!(groups.len(), 6);
    let first = groups[&(0, 0)];
    assert!(
        first.0 > 80 && first.1 > 1,
        "payload plus the allreduce: {first:?}"
    );
    assert!(groups.values().all(|&sum| sum == first), "{groups:?}");
    // The parent-level counters keep accumulating across epochs: at least
    // the 3 epochs × 2 groups × 1 payload message (plus the splits' own
    // allgather traffic, which also rides the parent).
    assert!(world_stats.total_msgs() >= 6);
    assert!(world_stats.total_bytes() >= 6 * 80);
}

#[test]
fn same_color_resplit_reuses_namespace_safely() {
    // The scheduler drains every protocol before an epoch ends, so a
    // same-color re-split (same tag salt) must still deliver cleanly.
    let (results, _) = run_ranks(4, |c| {
        let mut got = Vec::new();
        for epoch in 0..4u64 {
            let sub = c.split((c.rank() % 2) as u64, c.rank() as u64);
            let next = (sub.rank() + 1) % sub.size();
            let prev = (sub.rank() + sub.size() - 1) % sub.size();
            sub.send(next, 7, Payload::U64(vec![epoch * 100 + c.rank() as u64]));
            got.push(sub.recv(prev, 7).into_u64()[0]);
        }
        got
    });
    for (rank, got) in results.into_iter().enumerate() {
        let peer = ((rank + 2) % 4) as u64; // the other member of the pair
        assert_eq!(got, (0..4).map(|e| e * 100 + peer).collect::<Vec<_>>());
    }
}

#[test]
fn regrouped_membership_changes_sub_rank_mapping() {
    // Between epochs a rank can land in a different group at a different
    // sub-rank; the membership tables must follow.
    let (results, _) = run_ranks(6, |c| {
        let a = {
            let sub = c.split((c.rank() / 3) as u64, c.rank() as u64);
            (sub.rank(), sub.size(), sub.members().to_vec())
        };
        let b = {
            // Reverse keys: sub-rank order flips within each new group.
            let sub = c.split((c.rank() % 2) as u64, (10 - c.rank()) as u64);
            (sub.rank(), sub.size(), sub.members().to_vec())
        };
        (a, b)
    });
    // Epoch 0: ranks {0,1,2} and {3,4,5}, keyed by rank.
    assert_eq!(results[4].0, (1, 3, vec![3, 4, 5]));
    // Epoch 1: colors by parity, keys reversed: color 0 = {4,2,0}.
    assert_eq!(results[4].1, (0, 3, vec![4, 2, 0]));
    assert_eq!(results[0].1 .0, 2, "rank 0 moved to the last sub-rank");
}

#[test]
fn interleaved_epoch_tags_never_cross_match() {
    // Two epochs exchange on the SAME user tag with different epoch-
    // salted colors; a stale message from epoch 0 must never satisfy an
    // epoch-1 recv even though both ride the subgroup namespace.
    let (results, _) = run_ranks(4, |c| {
        let mut got = Vec::new();
        for epoch in 0..2u64 {
            let sub = c.split((epoch << 32) | (c.rank() / 2) as u64, c.rank() as u64);
            if sub.rank() == 0 {
                sub.send(1, 5, Payload::U64(vec![epoch + 1]));
                got.push(0);
            } else {
                got.push(sub.recv(0, 5).into_u64()[0]);
            }
        }
        got
    });
    assert_eq!(results[1], vec![1, 2]);
    assert_eq!(results[3], vec![1, 2]);
}

#[test]
fn rank_death_mid_batch_poisons_cleanly_and_preserves_prior_messages() {
    use sm_comsim::{run_ranks_with_faults, split_known, CommError, FaultPlan};
    use std::time::Duration;

    // The drop-during-epoch regression: rank 3 dies between epochs —
    // its ThreadComm is dropped while every peer still holds protocol
    // state — and the survivors must (a) still receive anything it sent
    // before dying, (b) get a fast typed error instead of a hang for
    // anything it never sent, and (c) regroup without it.
    let plan = FaultPlan::new().fail_rank(3, 1);
    let (results, _, injected) = run_ranks_with_faults(4, plan, |c| {
        // Epoch 0: full world. Rank 3 ships a payload that must survive
        // its upcoming death, then everyone runs a collective round.
        if c.rank() == 3 {
            c.send(0, 9, Payload::U64(vec![33]));
        }
        {
            let sub = c.split(0, c.rank() as u64);
            let mut x = vec![1.0];
            sub.allreduce_f64(ReduceOp::Sum, &mut x);
            assert_eq!(x[0], 4.0);
        }
        // Epoch 1 boundary: the planned death (the panic is absorbed by
        // the harness for planned ranks; Drop poisons the channels).
        if c.rank() == 3 {
            panic!("planned death at the epoch boundary");
        }
        if c.rank() == 0 {
            // (a) Messages sent before the death are preserved...
            let kept = c
                .recv_deadline(3, 9, Duration::from_secs(5))
                .expect("pre-death message must be delivered")
                .into_u64();
            assert_eq!(kept, vec![33]);
            // (b) ...while a receive the dead rank can never satisfy
            // fails fast with the typed error, not the full deadline.
            match c.recv_deadline(3, 10, Duration::from_secs(30)) {
                Err(CommError::RankFailed { rank: 3 }) => {}
                other => panic!("expected RankFailed for rank 3, got {other:?}"),
            }
        }
        // (c) The surviving world regroups explicitly — no collective
        // over the dead rank — and its collectives still work.
        let sub = split_known(c, 1u64 << 32, vec![0, 1, 2]);
        let mut x = vec![1.0];
        sub.allreduce_f64(ReduceOp::Sum, &mut x);
        assert_eq!(x[0], 3.0);
        c.rank()
    });
    assert_eq!(injected.rank_failures, 1);
    assert_eq!(results[3], None, "the dead rank must produce no result");
    assert_eq!(results.iter().flatten().count(), 3);
}

#[test]
#[should_panic(expected = "nested subcommunicator")]
fn nested_split_rejection_still_fires_after_resplit() {
    // Regrouping must always come from the world comm: even after a
    // drop-and-resplit cycle, splitting a live SubComm is rejected.
    let c = SerialComm::new();
    {
        let sub = c.split(0, 0);
        sub.barrier();
    }
    let sub = c.split(1, 0);
    let _ = sub.split(0, 0);
}
