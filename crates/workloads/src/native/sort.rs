//! Parallel merge sort building blocks: heapsort leaves, pairwise merges.

/// In-place heapsort — the paper's leaf sorter ("simultaneously sorting a
/// number of small lists of numbers with heapsort").
pub fn heapsort<T: Ord>(xs: &mut [T]) {
    let n = xs.len();
    // Build a max-heap.
    for i in (0..n / 2).rev() {
        sift_down(xs, i, n);
    }
    // Pop the max to the end repeatedly.
    for end in (1..n).rev() {
        xs.swap(0, end);
        sift_down(xs, 0, end);
    }
}

fn sift_down<T: Ord>(xs: &mut [T], mut root: usize, end: usize) {
    loop {
        let mut child = 2 * root + 1;
        if child >= end {
            return;
        }
        if child + 1 < end {
            // A select, not a branch: which child is larger is a coin flip.
            child += usize::from(xs[child] < xs[child + 1]);
        }
        if xs[root] >= xs[child] {
            return;
        }
        xs.swap(root, child);
        root = child;
    }
}

/// Merges two sorted runs into a fresh vector; equal elements keep their
/// order, the left run's first.
///
/// Neither run can end within `min(left, right)` steps, so that many are
/// taken at a time with no end-of-run test, each a select between the two
/// heads rather than a branch on their (coin-flip) order.
pub fn merge<T: Ord + Copy>(mut a: &[T], mut b: &[T]) -> Vec<T> {
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]), "left run unsorted");
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "right run unsorted");
    let mut out = Vec::with_capacity(a.len() + b.len());
    while !a.is_empty() && !b.is_empty() {
        let (mut i, mut j) = (0, 0);
        out.extend((0..a.len().min(b.len())).map(|_| {
            let (x, y) = (a[i], b[j]);
            let left = x <= y;
            i += usize::from(left);
            j += usize::from(!left);
            if left {
                x
            } else {
                y
            }
        }));
        a = &a[i..];
        b = &b[j..];
    }
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out
}

/// Sequential reference: split into `leaves` runs, heapsort each, merge
/// pairwise — exactly the parallel algorithm's work, done serially.
pub fn merge_sort_via_leaves<T: Ord + Copy>(xs: &[T], leaves: usize) -> Vec<T> {
    assert!(leaves >= 1 && leaves.is_power_of_two());
    let chunk = xs.len().div_ceil(leaves);
    let mut runs: Vec<Vec<T>> = xs
        .chunks(chunk.max(1))
        .map(|c| {
            let mut v = c.to_vec();
            heapsort(&mut v);
            v
        })
        .collect();
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len() / 2 + 1);
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge(&a, &b)),
                None => next.push(a),
            }
        }
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// 44-bit keys, as `native_mix` draws them: next to no duplicates.
    fn wide_random(n: usize, mut seed: u64) -> Vec<i64> {
        (0..n)
            .map(|_| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (seed >> 20) as i64
            })
            .collect()
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<i64> {
        let mut keys = wide_random(n, seed);
        keys.iter_mut().for_each(|k| *k %= 10_000);
        keys
    }

    /// Ordered by `key` alone; `from` tells equal keys apart, so a test
    /// can see where each one went.
    #[derive(Clone, Copy, Debug)]
    struct Tagged {
        key: i64,
        from: usize,
    }

    impl PartialEq for Tagged {
        fn eq(&self, o: &Self) -> bool {
            self.key == o.key
        }
    }
    impl Eq for Tagged {}
    impl PartialOrd for Tagged {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for Tagged {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            self.key.cmp(&o.key)
        }
    }

    fn tagged(keys: &[i64], from: impl Fn(usize) -> usize) -> Vec<Tagged> {
        let tag = |(at, &key)| Tagged {
            key,
            from: from(at),
        };
        keys.iter().enumerate().map(tag).collect()
    }

    fn fields(v: &[Tagged]) -> Vec<(i64, usize)> {
        v.iter().map(|t| (t.key, t.from)).collect()
    }

    /// The sort as it was, with a branch on which child is larger: the
    /// same compares and swaps, so the same array after every step.
    fn heapsort_reference<T: Ord>(xs: &mut [T]) {
        fn sift_down<T: Ord>(xs: &mut [T], mut root: usize, end: usize) {
            loop {
                let mut child = 2 * root + 1;
                if child >= end {
                    return;
                }
                if child + 1 < end && xs[child] < xs[child + 1] {
                    child += 1;
                }
                if xs[root] >= xs[child] {
                    return;
                }
                xs.swap(root, child);
                root = child;
            }
        }
        let n = xs.len();
        for i in (0..n / 2).rev() {
            sift_down(xs, i, n);
        }
        for end in (1..n).rev() {
            xs.swap(0, end);
            sift_down(xs, 0, end);
        }
    }

    /// The merge as it was: one branch and one `push` per element.
    fn merge_reference<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }

    #[test]
    fn heapsort_sorts() {
        let mut xs = pseudo_random(1000, 42);
        let mut expect = xs.clone();
        expect.sort_unstable();
        heapsort(&mut xs);
        assert_eq!(xs, expect);
    }

    #[test]
    fn heapsort_handles_edges() {
        let mut empty: Vec<i32> = vec![];
        heapsort(&mut empty);
        assert!(empty.is_empty());
        let mut one = vec![5];
        heapsort(&mut one);
        assert_eq!(one, vec![5]);
        let mut dups = vec![3, 3, 3, 1, 1, 2];
        heapsort(&mut dups);
        assert_eq!(dups, vec![1, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn heapsort_places_equal_keys_as_the_branching_sift_did() {
        // Heapsort is not stable: where equal keys land follows from the
        // exact swaps made, which the select must not change.
        for n in [0usize, 1, 2, 3, 10, 257, 2048] {
            let keys: Vec<i64> = pseudo_random(n, n as u64).iter().map(|k| k % 16).collect();
            let (mut got, mut want) = (tagged(&keys, |at| at), tagged(&keys, |at| at));
            heapsort(&mut got);
            heapsort_reference(&mut want);
            assert_eq!(fields(&got), fields(&want), "n={n}");
        }
    }

    #[test]
    fn merge_interleaves() {
        assert_eq!(merge(&[1, 4, 6], &[2, 3, 5]), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(merge::<i32>(&[], &[1]), vec![1]);
        assert_eq!(merge(&[1, 1], &[1]), vec![1, 1, 1]);
    }

    #[test]
    fn merge_is_a_stable_sort_of_the_concatenation() {
        let sorted = |n: usize, seed: u64, modulus: i64| {
            let mut keys: Vec<i64> = pseudo_random(n, seed).iter().map(|k| k % modulus).collect();
            keys.sort_unstable();
            keys
        };
        let cases: Vec<(Vec<i64>, Vec<i64>)> = vec![
            (vec![], vec![]),
            (vec![], vec![1, 2, 2]),
            (vec![1, 2, 2], vec![]),
            (vec![5; 9], vec![5; 4]),     // all equal
            (vec![7], sorted(40, 1, 10)), // one against many
            (sorted(40, 2, 10), vec![0]),
            (vec![1, 2, 3], vec![4, 5, 6]), // no interleaving
            (vec![4, 5, 6], vec![1, 2, 3]),
            (sorted(300, 3, 4), sorted(200, 4, 4)), // duplicate-heavy
            (sorted(257, 5, 10_000), sorted(64, 6, 10_000)),
        ];
        for (left, right) in cases {
            let (a, b) = (tagged(&left, |_| 0), tagged(&right, |_| 1));
            let mut want = [a.clone(), b.clone()].concat();
            want.sort(); // stable: on a tie the left run's element stays first
            assert_eq!(
                fields(&merge(&a, &b)),
                fields(&want),
                "{left:?} + {right:?}"
            );
            assert_eq!(fields(&merge_reference(&a, &b)), fields(&want));
        }
    }

    #[test]
    fn leafwise_sort_matches_std() {
        for leaves in [1usize, 2, 8, 32] {
            let xs = pseudo_random(997, leaves as u64); // non-divisible length
            let mut expect = xs.clone();
            expect.sort_unstable();
            assert_eq!(
                merge_sort_via_leaves(&xs, leaves),
                expect,
                "leaves={leaves}"
            );
        }
    }

    #[test]
    fn sorted_input_stays_sorted() {
        let xs: Vec<i64> = (0..500).collect();
        assert_eq!(merge_sort_via_leaves(&xs, 16), xs);
    }

    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -p workloads -- --ignored micro_ --nocapture --test-threads=1`
    fn micro_heapsort_2048() {
        let keys = wide_random(2048, 3);
        let time = |sort: fn(&mut [i64])| {
            let n = 3_000u32;
            let mut buf = keys.clone();
            let start = Instant::now();
            for _ in 0..n {
                buf.copy_from_slice(&keys);
                sort(std::hint::black_box(&mut buf));
            }
            (start.elapsed() / n).as_nanos()
        };
        println!(
            "heapsort 2048 i64: {} ns/op, branching-sift reference {} ns/op",
            time(heapsort),
            time(heapsort_reference)
        );
    }

    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -p workloads -- --ignored micro_ --nocapture --test-threads=1`
    fn micro_merge_2x65536() {
        // Wide keys: which head is smaller is a coin flip.
        let run = |seed| {
            let mut v = wide_random(65_536, seed);
            v.sort_unstable();
            v
        };
        let (a, b) = (run(1), run(2));
        let time = |merge: fn(&[i64], &[i64]) -> Vec<i64>| {
            let n = 300u32;
            let start = Instant::now();
            for _ in 0..n {
                std::hint::black_box(merge(std::hint::black_box(&a), &b));
            }
            (start.elapsed() / n).as_nanos()
        };
        println!(
            "merge 2 x 65536 i64: {} ns/op, branch-per-element reference {} ns/op",
            time(merge),
            time(merge_reference)
        );
    }
}
