//! Task-graph builders: the paper's four applications as `uthreads` specs.
//!
//! Each builder returns an [`AppSpec`] whose task structure mirrors the
//! corresponding application's synchronization pattern; the actual numeric
//! work is abstracted into calibrated compute durations (the real kernels
//! live in [`crate::native`] and run on the native runtime).

use desim::SimDur;
use simkernel::LockId;
use uthreads::{AppSpec, ChanId, FnTask, Task, TaskBody, TaskEvent, TaskOp};

use crate::params::{FftParams, GaussParams, MatmulParams, SortParams};

/// Matrix multiplication: "the multiplication is parallelized by splitting
/// the multiplicand by rows" — independent, equal tasks, no inter-task
/// synchronization beyond the package's ready queue.
pub fn matmul_spec(p: &MatmulParams) -> AppSpec {
    let tasks = (0..p.tasks)
        .map(|_| Task::compute("matmul-rows", p.task_cost))
        .collect();
    AppSpec::tasks(tasks)
}

/// One persistent FFT chunk: compute, meet everyone at the phase barrier,
/// repeat for each phase.
struct FftChunk {
    phases_left: u32,
    cost: SimDur,
    barrier: uthreads::BarrierId,
}

impl TaskBody for FftChunk {
    fn step(&mut self, event: TaskEvent) -> TaskOp {
        match event {
            TaskEvent::Start | TaskEvent::BarrierPassed => {
                if self.phases_left == 0 {
                    TaskOp::Done
                } else {
                    TaskOp::Compute(self.cost)
                }
            }
            TaskEvent::ComputeDone => {
                self.phases_left -= 1;
                TaskOp::Barrier(self.barrier)
            }
            other => unreachable!("fft chunk got {other:?}"),
        }
    }
}

/// FFT after Norton & Silberger: "several loops that were broken into
/// parts to provide parallelism" — `chunks` persistent tasks execute
/// `phases` loop bodies separated by barriers.
pub fn fft_spec(p: &FftParams) -> AppSpec {
    let mut spec = AppSpec::tasks(vec![]);
    let barrier = spec.add_barrier(p.chunks);
    for _ in 0..p.chunks {
        spec.tasks.push(Task::new(
            "fft-chunk",
            Box::new(FftChunk {
                phases_left: p.phases,
                cost: p.chunk_cost,
                barrier,
            }),
        ));
    }
    spec
}

/// A merge node: receive both input runs, merge (compute), pass the result
/// up; `level` 0 is a heapsort leaf.
struct SortNode {
    /// 0 = leaf (heapsort); >0 = merge of two level-1 runs.
    level: u32,
    cost: SimDur,
    /// Channel to the parent node, if any (the root has none).
    parent: Option<ChanId>,
    /// Channel this node receives its children's completions on.
    inputs: Option<ChanId>,
    received: u32,
}

impl TaskBody for SortNode {
    fn step(&mut self, event: TaskEvent) -> TaskOp {
        match event {
            TaskEvent::Start => {
                if self.level == 0 {
                    TaskOp::Compute(self.cost) // heapsort the leaf
                } else {
                    TaskOp::Recv(self.inputs.expect("merge node has inputs"))
                }
            }
            TaskEvent::Received(_) => {
                self.received += 1;
                if self.received < 2 {
                    TaskOp::Recv(self.inputs.expect("merge node has inputs"))
                } else {
                    TaskOp::Compute(self.cost) // merge the two runs
                }
            }
            TaskEvent::ComputeDone => match self.parent {
                Some(ch) => TaskOp::Send(ch, 1),
                None => TaskOp::Done,
            },
            TaskEvent::Sent => TaskOp::Done,
            other => unreachable!("sort node got {other:?}"),
        }
    }
}

/// Merge sort: "simultaneously sorting a number of small lists with
/// heapsort, and then merging pairs of sorted lists in parallel until the
/// final sorted list is achieved." Parallelism halves at each merge level.
pub fn sort_spec(p: &SortParams) -> AppSpec {
    assert!(p.leaves.is_power_of_two(), "leaves must be a power of two");
    let mut spec = AppSpec::tasks(vec![]);
    // One channel per internal (merge) node; nodes are numbered as in a
    // binary heap: node 1 is the root, node i has children 2i and 2i+1.
    // Internal nodes are 1..leaves; leaves occupy leaves..2*leaves.
    let n_internal = (p.leaves - 1) as usize;
    let chans: Vec<ChanId> = (0..n_internal).map(|_| spec.add_channel()).collect();
    let chan_of = |node: u32| -> Option<ChanId> {
        if node >= 1 && node < p.leaves {
            Some(chans[(node - 1) as usize])
        } else {
            None
        }
    };
    let levels = p.leaves.trailing_zeros();
    // Internal merge nodes.
    for node in 1..p.leaves {
        let depth = 32 - node.leading_zeros() - 1; // root = 0
        let level = levels - depth; // leaves' parents have level 1
        let runs = 1u64 << level; // each input run is runs/2 leaf-sizes
        spec.tasks.push(Task::new(
            "sort-merge",
            Box::new(SortNode {
                level,
                cost: p.merge_unit * runs,
                parent: chan_of(node / 2),
                inputs: chan_of(node),
                received: 0,
            }),
        ));
    }
    // Leaves.
    for node in p.leaves..2 * p.leaves {
        spec.tasks.push(Task::new(
            "sort-leaf",
            Box::new(SortNode {
                level: 0,
                cost: p.leaf_cost,
                parent: chan_of(node / 2),
                inputs: None,
                received: 0,
            }),
        ));
    }
    spec
}

/// The gauss coordinator: per step, spawn the row tasks, collect their
/// completions, do the serial pivot work, move on.
struct GaussCoordinator {
    p: GaussParams,
    step: u32,
    rows_spawned: u32,
    rows_done: u32,
    chan: ChanId,
}

impl GaussCoordinator {
    fn rows_in_step(&self) -> u32 {
        self.p.steps - self.step
    }

    fn row_cost(&self) -> SimDur {
        // Row work shrinks with the remaining submatrix.
        let frac = f64::from(self.p.steps - self.step) / f64::from(self.p.steps);
        self.p.row_cost.mul_f64(frac)
    }

    fn next(&mut self) -> TaskOp {
        if self.step >= self.p.steps {
            return TaskOp::Done;
        }
        if self.rows_spawned < self.rows_in_step() {
            self.rows_spawned += 1;
            let cost = self.row_cost();
            let chan = self.chan;
            let mut sent = false;
            return TaskOp::Spawn(Task::new(
                "gauss-row",
                Box::new(FnTask(move |ev: TaskEvent| match ev {
                    TaskEvent::Start => TaskOp::Compute(cost),
                    TaskEvent::ComputeDone if !sent => {
                        sent = true;
                        TaskOp::Send(chan, 1)
                    }
                    _ => TaskOp::Done,
                })),
            ));
        }
        if self.rows_done < self.rows_in_step() {
            return TaskOp::Recv(self.chan);
        }
        // All rows eliminated: serial pivot for the next step.
        self.step += 1;
        self.rows_spawned = 0;
        self.rows_done = 0;
        TaskOp::Compute(self.p.pivot_cost)
    }
}

impl TaskBody for GaussCoordinator {
    fn step(&mut self, event: TaskEvent) -> TaskOp {
        if matches!(event, TaskEvent::Received(_)) {
            self.rows_done += 1;
        }
        self.next()
    }
}

/// Gaussian elimination with partial pivoting: "the row elimination is
/// parallelized" — step `k` eliminates column `k` from the remaining rows
/// in parallel, with a serial pivot between steps. The finest-grained of
/// the four applications.
pub fn gauss_spec(p: &GaussParams) -> AppSpec {
    let mut spec = AppSpec::tasks(vec![]);
    let chan = spec.add_channel();
    spec.tasks.push(Task::new(
        "gauss-coord",
        Box::new(GaussCoordinator {
            p: *p,
            step: 0,
            rows_spawned: 0,
            rows_done: 0,
            chan,
        }),
    ));
    spec
}

/// A synthetic workload with an explicit application-level critical
/// section: each task alternates open computation with a locked section.
/// `cs_fraction` of the grain is spent holding `lock`. Used by the
/// fine-grained-contention ablation.
pub fn synthetic_cs_spec(
    tasks: u32,
    repeats: u32,
    grain: SimDur,
    cs_fraction: f64,
    lock: LockId,
) -> AppSpec {
    assert!((0.0..=1.0).contains(&cs_fraction));
    let open = grain.mul_f64(1.0 - cs_fraction);
    let cs = grain.mul_f64(cs_fraction);
    let mk = move || {
        let mut left = repeats;
        let mut in_cs = false;
        Task::new(
            "synthetic-cs",
            Box::new(FnTask(move |ev: TaskEvent| match ev {
                TaskEvent::Start => TaskOp::Compute(open),
                TaskEvent::ComputeDone if !in_cs => {
                    in_cs = true;
                    TaskOp::Lock(lock)
                }
                TaskEvent::Locked => TaskOp::Compute(cs),
                TaskEvent::ComputeDone => TaskOp::Unlock(lock),
                TaskEvent::Unlocked => {
                    in_cs = false;
                    left -= 1;
                    if left == 0 {
                        TaskOp::Done
                    } else {
                        TaskOp::Compute(open)
                    }
                }
                other => unreachable!("synthetic task got {other:?}"),
            })),
        )
    };
    AppSpec::tasks((0..tasks).map(|_| mk()).collect())
}

/// A producer/consumer pipeline (the paper's degradation mechanism #2):
/// `pairs` producers each push `items` values through a channel to a
/// matching consumer; the consumer does the heavier half of the work.
pub fn producer_consumer_spec(
    pairs: u32,
    items: u32,
    produce_cost: SimDur,
    consume_cost: SimDur,
) -> AppSpec {
    let mut spec = AppSpec::tasks(vec![]);
    for _ in 0..pairs {
        let ch = spec.add_channel();
        let mut left = items;
        spec.tasks.push(Task::new(
            "producer",
            Box::new(FnTask(move |ev: TaskEvent| match ev {
                TaskEvent::Start => TaskOp::Compute(produce_cost),
                TaskEvent::ComputeDone => TaskOp::Send(ch, 1),
                TaskEvent::Sent => {
                    left -= 1;
                    if left == 0 {
                        TaskOp::Done
                    } else {
                        TaskOp::Compute(produce_cost)
                    }
                }
                other => unreachable!("producer got {other:?}"),
            })),
        ));
        let mut to_eat = items;
        spec.tasks.push(Task::new(
            "consumer",
            Box::new(FnTask(move |ev: TaskEvent| match ev {
                TaskEvent::Start => TaskOp::Recv(ch),
                TaskEvent::Received(_) => TaskOp::Compute(consume_cost),
                TaskEvent::ComputeDone => {
                    to_eat -= 1;
                    if to_eat == 0 {
                        TaskOp::Done
                    } else {
                        TaskOp::Recv(ch)
                    }
                }
                other => unreachable!("consumer got {other:?}"),
            })),
        ));
    }
    spec
}

/// A node of the fork/join tree: internal nodes spawn their children at
/// runtime (recursive task creation, as in the task-queue languages the
/// paper cites), await their completions, combine, and report upward.
struct ForkJoinNode {
    /// This node's index in the fan-ary heap numbering (1-based).
    node: u32,
    depth_left: u32,
    fan: u32,
    leaf_cost: SimDur,
    combine_cost: SimDur,
    /// Channel to the parent (`None` for the root).
    parent: Option<ChanId>,
    spawned: u32,
    received: u32,
}

impl ForkJoinNode {
    fn child_index(&self, i: u32) -> u32 {
        self.fan * (self.node - 1) + 2 + i
    }

    fn my_chan(&self) -> ChanId {
        ChanId(self.node - 1)
    }
}

impl TaskBody for ForkJoinNode {
    fn step(&mut self, event: TaskEvent) -> TaskOp {
        if self.depth_left == 0 {
            // Leaf: compute and report.
            return match event {
                TaskEvent::Start => TaskOp::Compute(self.leaf_cost),
                TaskEvent::ComputeDone => match self.parent {
                    Some(ch) => TaskOp::Send(ch, 1),
                    None => TaskOp::Done,
                },
                TaskEvent::Sent => TaskOp::Done,
                other => unreachable!("fork-join leaf got {other:?}"),
            };
        }
        match event {
            TaskEvent::Start | TaskEvent::Spawned if self.spawned < self.fan => {
                let child = ForkJoinNode {
                    node: self.child_index(self.spawned),
                    depth_left: self.depth_left - 1,
                    fan: self.fan,
                    leaf_cost: self.leaf_cost,
                    combine_cost: self.combine_cost,
                    parent: Some(self.my_chan()),
                    spawned: 0,
                    received: 0,
                };
                self.spawned += 1;
                TaskOp::Spawn(Task::new("forkjoin-node", Box::new(child)))
            }
            TaskEvent::Spawned => TaskOp::Recv(self.my_chan()),
            TaskEvent::Received(_) => {
                self.received += 1;
                if self.received < self.fan {
                    TaskOp::Recv(self.my_chan())
                } else {
                    TaskOp::Compute(self.combine_cost)
                }
            }
            TaskEvent::ComputeDone => match self.parent {
                Some(ch) => TaskOp::Send(ch, 1),
                None => TaskOp::Done,
            },
            TaskEvent::Sent => TaskOp::Done,
            other => unreachable!("fork-join node got {other:?}"),
        }
    }
}

/// A divide-and-conquer workload: a `fan`-ary tree of `depth` levels whose
/// internal nodes *recursively spawn* their children (unlike the sort
/// tree, which pre-creates every task). Exercises dynamic task creation
/// under the queue lock, the model behind the task-queue parallel
/// languages the paper cites (QLisp et al.).
pub fn fork_join_spec(depth: u32, fan: u32, leaf_cost: SimDur, combine_cost: SimDur) -> AppSpec {
    assert!(fan >= 2, "a fork needs at least two branches");
    assert!(depth >= 1, "use a plain compute task for depth 0");
    let mut spec = AppSpec::tasks(vec![]);
    // One channel per potential internal node (heap numbering).
    let internal = (fan.pow(depth) - 1) / (fan - 1);
    for _ in 0..internal {
        spec.add_channel();
    }
    spec.tasks.push(Task::new(
        "forkjoin-root",
        Box::new(ForkJoinNode {
            node: 1,
            depth_left: depth,
            fan,
            leaf_cost,
            combine_cost,
            parent: None,
            spawned: 0,
            received: 0,
        }),
    ));
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Presets;

    #[test]
    fn matmul_spec_shape() {
        let s = matmul_spec(&Presets::tiny().matmul);
        assert_eq!(s.tasks.len(), 64);
        assert!(s.barriers.is_empty());
        assert_eq!(s.channels, 0);
    }

    #[test]
    fn fft_spec_shape() {
        let p = Presets::tiny().fft;
        let s = fft_spec(&p);
        assert_eq!(s.tasks.len(), p.chunks as usize);
        assert_eq!(s.barriers, vec![p.chunks]);
    }

    #[test]
    fn sort_spec_shape() {
        let p = Presets::tiny().sort;
        let s = sort_spec(&p);
        // leaves + internal nodes = 2 * leaves - 1 tasks.
        assert_eq!(s.tasks.len(), (2 * p.leaves - 1) as usize);
        assert_eq!(s.channels, p.leaves - 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn sort_rejects_non_power_of_two() {
        let mut p = Presets::tiny().sort;
        p.leaves = 12;
        sort_spec(&p);
    }

    #[test]
    fn gauss_spec_shape() {
        let s = gauss_spec(&Presets::tiny().gauss);
        assert_eq!(s.tasks.len(), 1, "gauss starts with only a coordinator");
        assert_eq!(s.channels, 1);
    }

    #[test]
    fn synthetic_fraction_bounds() {
        let s = synthetic_cs_spec(4, 2, SimDur::from_millis(10), 0.25, simkernel::LockId(0));
        assert_eq!(s.tasks.len(), 4);
    }

    #[test]
    #[should_panic]
    fn synthetic_rejects_bad_fraction() {
        synthetic_cs_spec(1, 1, SimDur::from_millis(1), 1.5, simkernel::LockId(0));
    }

    #[test]
    fn producer_consumer_shape() {
        let s = producer_consumer_spec(3, 10, SimDur::from_millis(1), SimDur::from_millis(2));
        assert_eq!(s.tasks.len(), 6);
        assert_eq!(s.channels, 3);
    }
}
