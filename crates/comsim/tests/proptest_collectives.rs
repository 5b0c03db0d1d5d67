//! Property-based tests of the collectives across random rank counts and
//! payload sizes, on every communicator: the thread world, a subgroup made
//! by either constructor, and the single rank. The correctness of every
//! distributed result in the repo rests on these.

use proptest::prelude::*;

use sm_comsim::{run_ranks, split_known, Comm, Payload, ReduceOp, SerialComm, SubComm, ThreadComm};

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn allreduce_sum_is_rank_invariant(size in 1usize..9, len in 1usize..8) {
        let (results, _) = run_ranks(size, |c| {
            let mut x: Vec<f64> = (0..len).map(|i| (c.rank() * 10 + i) as f64).collect();
            c.allreduce_f64(ReduceOp::Sum, &mut x);
            x
        });
        let expect: Vec<f64> = (0..len)
            .map(|i| (0..size).map(|r| (r * 10 + i) as f64).sum())
            .collect();
        for r in results {
            prop_assert_eq!(&r, &expect);
        }
    }

    #[test]
    fn allreduce_min_max_bracket(size in 1usize..9) {
        let (results, _) = run_ranks(size, |c| {
            let mut mn = vec![c.rank() as f64];
            c.allreduce_f64(ReduceOp::Min, &mut mn);
            let mut mx = vec![c.rank() as f64];
            c.allreduce_f64(ReduceOp::Max, &mut mx);
            (mn[0], mx[0])
        });
        for (mn, mx) in results {
            prop_assert_eq!(mn, 0.0);
            prop_assert_eq!(mx, (size - 1) as f64);
        }
    }

    #[test]
    fn allgather_preserves_per_rank_data(size in 1usize..8, base_len in 0usize..5) {
        let (results, _) = run_ranks(size, |c| {
            let local: Vec<u64> = (0..base_len + c.rank()).map(|i| i as u64).collect();
            c.allgather_u64(&local)
        });
        for gathered in results {
            prop_assert_eq!(gathered.len(), size);
            for (src, v) in gathered.iter().enumerate() {
                prop_assert_eq!(v.len(), base_len + src);
            }
        }
    }

    #[test]
    fn alltoallv_is_a_transpose(size in 1usize..8) {
        let (results, _) = run_ranks(size, |c| {
            let sends: Vec<Payload> = (0..size)
                .map(|d| Payload::U64(vec![(c.rank() * 100 + d) as u64]))
                .collect();
            c.alltoallv(sends)
        });
        for (me, received) in results.into_iter().enumerate() {
            for (src, p) in received.into_iter().enumerate() {
                prop_assert_eq!(p.into_u64(), vec![(src * 100 + me) as u64]);
            }
        }
    }

    #[test]
    fn point_to_point_ring_any_size(size in 2usize..9, payload in 0u64..1000) {
        let (results, _) = run_ranks(size, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 7, Payload::U64(vec![payload + c.rank() as u64]));
            c.recv(prev, 7).into_u64()[0]
        });
        for (me, got) in results.into_iter().enumerate() {
            let prev = (me + size - 1) % size;
            prop_assert_eq!(got, payload + prev as u64);
        }
    }

    #[test]
    fn serial_collectives_are_the_identity(
        values in proptest::collection::vec(-1e3f64..1e3, 8),
        len in 0usize..9,
        base in 0u64..1000,
    ) {
        let c = SerialComm::new();
        let x = &values[..len];
        let ids: Vec<u64> = (base..base + len as u64).collect();
        c.barrier();
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
            let mut y = x.to_vec();
            c.allreduce_f64(op, &mut y);
            prop_assert_eq!(bits(&y), bits(x));
        }
        prop_assert_eq!(c.allgather_u64(&ids), vec![ids.clone()]);
        prop_assert_eq!(c.allgather_f64(x).iter().map(|v| bits(v)).collect::<Vec<_>>(), vec![bits(x)]);
        prop_assert_eq!(c.alltoallv(vec![Payload::U64(ids.clone())]), vec![Payload::U64(ids)]);
    }

    #[test]
    fn split_and_split_known_agree(size in 1usize..7, colors in 1usize..4, len in 1usize..5) {
        let (results, _) = run_ranks(size, |c| {
            let color = (c.rank() % colors) as u64;
            // Keys reverse the parent order inside each color.
            let key = (size - c.rank()) as u64;
            let run = |sub: &SubComm<'_, ThreadComm>| {
                let mut x: Vec<f64> = (0..len).map(|i| (c.rank() * 10 + i) as f64 * 0.1).collect();
                sub.allreduce_f64(ReduceOp::Sum, &mut x);
                sub.barrier();
                let ranks = sub.allgather_u64(&[c.rank() as u64]);
                let firsts = sub.allgather_f64(&x[..1]).concat();
                let moved = sub.alltoallv(
                    (0..sub.size())
                        .map(|d| Payload::U64(vec![(sub.rank() * 100 + d) as u64]))
                        .collect(),
                );
                let group = (sub.rank(), sub.size(), sub.members().to_vec());
                (group, bits(&x), ranks, bits(&firsts), moved)
            };
            let by_split = run(&c.split(color, key));
            let by_members = run(&split_known(c, color, by_split.0 .2.clone()));
            (by_split, by_members)
        });
        for (rank, (by_split, by_members)) in results.into_iter().enumerate() {
            let expect: Vec<usize> = (0..size).rev().filter(|r| r % colors == rank % colors).collect();
            prop_assert_eq!(&by_split.0 .2, &expect);
            prop_assert_eq!(by_split, by_members);
        }
    }
}
