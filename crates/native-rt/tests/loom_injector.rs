//! Model checks for the sharded injector (`injector.rs`) — the queue
//! every outside submission goes through, and the batch pop a worker
//! takes its share of it with.
//!
//! Two producers push while one consumer takes with `pop_batch`. Three
//! things can go wrong. A **lost or doubled element**: the occupancy
//! and `len` counts drop by a batch's size after the shard unlocks, and
//! a sweep that trusts a stale zero would skip a shard that holds one —
//! the consumer then spins forever (the model hangs) — or a batch hands
//! an element out twice. A **reordered shard**: the batch returns the
//! shard's oldest element and gives the rest to its sink newest first,
//! so an owner that pops them LIFO runs them in push order; a wrong end
//! of the drain shows up as one producer's elements out of order. A
//! **count left behind**: once everything is taken, `len` must read 0,
//! or idle workers would sweep an empty injector forever.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p native-rt --test
//! loom_injector` (the loom CI lane).

#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;

use native_rt::Injector;

/// Elements each producer pushes.
const PER_PRODUCER: usize = 3;

/// An element: its producer and its place in that producer's pushes.
fn item(producer: usize, seq: usize) -> usize {
    producer * PER_PRODUCER + seq
}

/// Two producers, one batch consumer: every element is taken exactly
/// once; a producer's elements that share a shard come out in the order
/// they went in; and the drained injector reads empty.
#[test]
fn batch_pop_conserves_and_keeps_each_shard_in_order() {
    loom::model(|| {
        // One consumer: two shards, and a batch takes all a shard holds.
        let inj = Arc::new(Injector::new(1));
        assert_eq!(inj.shards(), 2);
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let inj = Arc::clone(&inj);
                thread::spawn(move || {
                    for seq in 0..PER_PRODUCER {
                        inj.push(item(p, seq));
                    }
                })
            })
            .collect();

        // The order a LIFO owner runs what it takes: the returned
        // element now, then the sink's, last handed over first.
        let mut taken = Vec::new();
        while taken.len() < 2 * PER_PRODUCER {
            let mut batch = Vec::new();
            match inj.pop_batch(0, |v| batch.push(v)) {
                Some(first) => {
                    taken.push(first);
                    taken.extend(batch.into_iter().rev());
                }
                None => thread::yield_now(),
            }
        }
        for p in producers {
            p.join().unwrap();
        }

        let mut sorted = taken.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..2 * PER_PRODUCER).collect::<Vec<_>>());
        // A producer walks the shards in turn, so with two shards its
        // elements `seq` and `seq + 2` share one.
        let at = |v| taken.iter().position(|&t| t == v).unwrap();
        for p in 0..2 {
            for seq in 0..PER_PRODUCER - 2 {
                assert!(
                    at(item(p, seq)) < at(item(p, seq + 2)),
                    "producer {p}: {taken:?}"
                );
            }
        }
        assert_eq!(inj.len(), 0);
        assert!(inj.pop_batch(0, |_| unreachable!()).is_none());
    });
}
