//! Property-based tests of the communicator: arbitrary traffic patterns must
//! deliver every message exactly once, in order per (source, tag) stream, and
//! collectives must compute the right reductions for arbitrary payloads.

use proptest::prelude::*;
use swlb_comm::{Cart2d, World};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_to_all_random_payloads_deliver_exactly_once(
        n in 2usize..5,
        seed in 0u64..1000,
    ) {
        let out = World::new(n).run(|c| {
            // Every rank sends a seeded payload to every other rank.
            for dst in 0..n {
                if dst != c.rank() {
                    let v = (seed ^ (c.rank() as u64 * 31 + dst as u64)) as f64;
                    c.send(dst, 1, vec![v; 3]).unwrap();
                }
            }
            let mut got = Vec::new();
            for src in 0..n {
                if src != c.rank() {
                    let d = c.recv(src, 1).unwrap();
                    let expect = (seed ^ (src as u64 * 31 + c.rank() as u64)) as f64;
                    assert_eq!(d, vec![expect; 3]);
                    got.push(expect);
                }
            }
            got.len()
        });
        for (rank, count) in out.iter().enumerate() {
            prop_assert_eq!(*count, n - 1, "rank {} received {} messages", rank, count);
        }
    }

    #[test]
    fn per_stream_fifo_holds_for_bursts(burst in 1usize..20) {
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                for i in 0..burst {
                    c.send(1, 5, vec![i as f64]).unwrap();
                }
                vec![]
            } else {
                (0..burst).map(|_| c.recv(0, 5).unwrap()[0]).collect::<Vec<_>>()
            }
        });
        let expect: Vec<f64> = (0..burst).map(|i| i as f64).collect();
        prop_assert_eq!(&out[1], &expect);
    }

    #[test]
    fn allreduce_sum_equals_serial_sum(
        n in 1usize..6,
        values in prop::collection::vec(-100.0f64..100.0, 1..8),
    ) {
        let vals = &values;
        let out = World::new(n).run(|c| {
            // Rank r contributes values scaled by (r+1).
            let mine: Vec<f64> = vals.iter().map(|v| v * (c.rank() + 1) as f64).collect();
            c.allreduce_sum(&mine).unwrap()
        });
        let scale: f64 = (1..=n).map(|r| r as f64).sum();
        for reduced in &out {
            for (i, v) in reduced.iter().enumerate() {
                prop_assert!((v - vals[i] * scale).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn allreduce_max_equals_serial_max(
        n in 1usize..6,
        base in -50.0f64..50.0,
    ) {
        let out = World::new(n).run(|c| {
            c.allreduce_max(&[base + c.rank() as f64]).unwrap()[0]
        });
        let expect = base + (n - 1) as f64;
        for v in &out {
            prop_assert!((v - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn cart_neighbor_is_involutive_on_torus(
        px in 1usize..8,
        py in 1usize..8,
        dx in -1i32..2,
        dy in -1i32..2,
    ) {
        let cart = Cart2d::new(px, py, true);
        for rank in 0..cart.size() {
            let n = cart.neighbor(rank, dx, dy).unwrap();
            let back = cart.neighbor(n, -dx, -dy).unwrap();
            prop_assert_eq!(back, rank);
        }
    }

    #[test]
    fn block_ranges_partition(total in 1usize..200, parts in 1usize..20) {
        let parts = parts.min(total);
        let mut next = 0;
        for i in 0..parts {
            let (off, len) = Cart2d::block_range(total, parts, i);
            prop_assert_eq!(off, next);
            prop_assert!(len >= total / parts);
            prop_assert!(len <= total / parts + 1);
            next = off + len;
        }
        prop_assert_eq!(next, total);
    }
}
