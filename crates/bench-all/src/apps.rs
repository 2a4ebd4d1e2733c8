//! The three `native_mix` applications: real `workloads::native` kernels
//! cut into pool jobs the way the paper's applications were —
//! `fft` (phases of independent transforms, a barrier per phase), `sort`
//! (heapsort leaves, then a merge tree whose parallelism halves per
//! level) and `matmul` (coarse independent row bands). Each has seeded
//! input generation, a pool run that verifies its own output, and the
//! same job list run on one thread with no pool (the plain baseline).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use native_rt::Pool;
use workloads::native::fft::{dft_reference, fft, Complex};
use workloads::native::matmul::{matmul, matmul_rows, Matrix};
use workloads::native::sort::{heapsort, merge, merge_sort_via_leaves};

use crate::harness::{Rng, Tracer};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Fft,
    Sort,
    Matmul,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Fft, Kind::Sort, Kind::Matmul];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fft => "fft",
            Kind::Sort => "sort",
            Kind::Matmul => "matmul",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

// Problem sizes. One unit of `scale` is ~0.05 s of single-threaded work
// per application on the container this was calibrated on; the counts
// below are fixed so that both sides of an A/B run the same job list.
const FFT_SIZE: usize = 2048;
const FFT_PER_PHASE: usize = 16;
const FFT_PHASES_PER_UNIT: f64 = 13.8;
const SORT_LEAVES: usize = 64;
const SORT_LEAF_LEN: usize = 2048;
const SORT_ROUNDS_PER_UNIT: f64 = 3.1;
const MATMUL_N: usize = 256;
const MATMUL_BAND: usize = 16;
const MATMUL_ROUNDS_PER_UNIT: f64 = 10.0;

fn repeats(per_unit: f64, scale: f64) -> usize {
    ((per_unit * scale).round() as usize).max(1)
}

/// Generated inputs of one application.
pub enum Inputs {
    Fft {
        phases: usize,
        signals: Arc<Vec<Vec<Complex>>>,
        small: Vec<Complex>,
    },
    Sort {
        rounds: usize,
        data: Arc<Vec<i64>>,
    },
    Matmul {
        rounds: usize,
        bands: Arc<Vec<Matrix>>,
        b: Arc<Matrix>,
    },
}

pub fn generate(kind: Kind, seed: u64, scale: f64) -> Inputs {
    let mut rng = Rng::new(seed).fork(kind as u64 + 0xA0);
    match kind {
        Kind::Fft => {
            let mut signal = |n: usize| -> Vec<Complex> {
                (0..n)
                    .map(|_| Complex::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
                    .collect()
            };
            Inputs::Fft {
                phases: repeats(FFT_PHASES_PER_UNIT, scale),
                signals: Arc::new((0..FFT_PER_PHASE).map(|_| signal(FFT_SIZE)).collect()),
                small: signal(64),
            }
        }
        Kind::Sort => Inputs::Sort {
            rounds: repeats(SORT_ROUNDS_PER_UNIT, scale),
            data: Arc::new(
                (0..SORT_LEAVES * SORT_LEAF_LEN)
                    .map(|_| (rng.next_u64() >> 20) as i64)
                    .collect(),
            ),
        },
        Kind::Matmul => {
            let mut m =
                |rows: usize| Matrix::from_fn(rows, MATMUL_N, |_, _| rng.range_f64(-1.0, 1.0));
            Inputs::Matmul {
                rounds: repeats(MATMUL_ROUNDS_PER_UNIT, scale),
                bands: Arc::new(
                    (0..MATMUL_N / MATMUL_BAND)
                        .map(|_| m(MATMUL_BAND))
                        .collect(),
                ),
                b: Arc::new(m(MATMUL_N)),
            }
        }
    }
}

/// A digest of the generated inputs (the determinism test compares it).
pub fn digest(inputs: &Inputs) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bits: u64| h = (h ^ bits).wrapping_mul(0x0000_0100_0000_01B3);
    match inputs {
        Inputs::Fft {
            phases,
            signals,
            small,
        } => {
            eat(*phases as u64);
            for c in signals.iter().flatten().chain(small) {
                eat(c.re.to_bits());
                eat(c.im.to_bits());
            }
        }
        Inputs::Sort { rounds, data } => {
            eat(*rounds as u64);
            data.iter().for_each(|&v| eat(v as u64));
        }
        Inputs::Matmul { rounds, bands, b } => {
            eat(*rounds as u64);
            for m in bands.iter().chain(std::iter::once(&**b)) {
                m.data.iter().for_each(|v| eat(v.to_bits()));
            }
        }
    }
    h
}

fn spectrum_sum(data: &[Complex]) -> f64 {
    data.iter().map(|c| c.abs()).sum()
}

fn matrix_sum(m: &Matrix) -> f64 {
    m.data.iter().sum()
}

/// What a pool run did: jobs executed through the pool and output checks
/// that failed.
pub struct AppResult {
    pub jobs: u64,
    pub failed: u64,
}

/// Slot for one job's result digest; `u64::MAX` means "never written".
fn result_slots(n: usize) -> Arc<Vec<AtomicU64>> {
    Arc::new((0..n).map(|_| AtomicU64::new(u64::MAX)).collect())
}

/// One sort round's merge tree in heap numbering: node 1 is the root,
/// leaves are `SORT_LEAVES..2*SORT_LEAVES`.
struct SortTree {
    pool: Arc<Pool>,
    runs: Vec<Mutex<Option<Vec<i64>>>>,
    /// Children still missing, per internal node.
    pending: Vec<AtomicU32>,
}

impl SortTree {
    /// Called when `node`'s run is stored: the second child to arrive
    /// forks the parent's merge from inside the worker.
    fn arrived(self: &Arc<Self>, node: usize) {
        if node == 1 {
            return;
        }
        let parent = node / 2;
        if self.pending[parent].fetch_sub(1, Ordering::AcqRel) == 1 {
            let tree = Arc::clone(self);
            self.pool.execute(move || {
                let take = |n: usize| {
                    tree.runs[n]
                        .lock()
                        .expect("run lock poisoned")
                        .take()
                        .expect("both children stored their runs")
                };
                let merged = merge(&take(2 * parent), &take(2 * parent + 1));
                *tree.runs[parent].lock().expect("run lock poisoned") = Some(merged);
                tree.arrived(parent);
            });
        }
    }
}

/// Runs the application's job list on `pool`, with the synchronization
/// shape of the original, and verifies the output.
pub fn run_on_pool(inputs: &Inputs, pool: &Arc<Pool>, tracer: &Tracer) -> AppResult {
    let mut failed = 0u64;
    let mut jobs = 0u64;
    match inputs {
        Inputs::Fft {
            phases,
            signals,
            small,
        } => {
            let sums = result_slots(phases * FFT_PER_PHASE);
            for phase in 0..*phases {
                {
                    let _s = tracer.span("pool", "execute_phase", phase as u64);
                    for j in 0..FFT_PER_PHASE {
                        let (signals, sums) = (Arc::clone(signals), Arc::clone(&sums));
                        pool.execute(move || {
                            let mut buf = signals[j].clone();
                            fft(&mut buf);
                            sums[phase * FFT_PER_PHASE + j]
                                .store(spectrum_sum(&buf).to_bits(), Ordering::Release);
                        });
                    }
                }
                let _s = tracer.span("pool", "wait_idle", phase as u64);
                pool.wait_idle();
            }
            jobs += (phases * FFT_PER_PHASE) as u64;
            // Every phase transformed the same signals: all must agree
            // with a transform done here, and the kernel itself with the
            // naive DFT on a small size.
            for j in 0..FFT_PER_PHASE {
                let mut buf = signals[j].clone();
                fft(&mut buf);
                let want = spectrum_sum(&buf).to_bits();
                failed += (0..*phases)
                    .filter(|p| sums[p * FFT_PER_PHASE + j].load(Ordering::Acquire) != want)
                    .count() as u64;
            }
            let mut got = small.clone();
            fft(&mut got);
            let want = dft_reference(small);
            let close = got
                .iter()
                .zip(&want)
                .all(|(a, b)| (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
            failed += u64::from(!close);
        }
        Inputs::Sort { rounds, data } => {
            let mut expect = data.to_vec();
            expect.sort_unstable();
            for round in 0..*rounds {
                let tree = Arc::new(SortTree {
                    pool: Arc::clone(pool),
                    runs: (0..2 * SORT_LEAVES).map(|_| Mutex::new(None)).collect(),
                    pending: (0..SORT_LEAVES).map(|_| AtomicU32::new(2)).collect(),
                });
                {
                    let _s = tracer.span("pool", "execute_leaves", round as u64);
                    for leaf in 0..SORT_LEAVES {
                        let (tree, data) = (Arc::clone(&tree), Arc::clone(data));
                        pool.execute(move || {
                            let mut run =
                                data[leaf * SORT_LEAF_LEN..(leaf + 1) * SORT_LEAF_LEN].to_vec();
                            heapsort(&mut run);
                            *tree.runs[SORT_LEAVES + leaf]
                                .lock()
                                .expect("run lock poisoned") = Some(run);
                            tree.arrived(SORT_LEAVES + leaf);
                        });
                    }
                }
                {
                    let _s = tracer.span("pool", "wait_idle", round as u64);
                    pool.wait_idle();
                }
                jobs += (2 * SORT_LEAVES - 1) as u64;
                // A sorted permutation of the input equals the input sorted.
                let sorted = tree.runs[1].lock().expect("run lock poisoned").take();
                failed += u64::from(sorted.as_deref() != Some(expect.as_slice()));
            }
        }
        Inputs::Matmul { rounds, bands, b } => {
            let sums = result_slots(rounds * bands.len());
            {
                let _s = tracer.span("pool", "execute_bands", 0);
                for round in 0..*rounds {
                    for band in 0..bands.len() {
                        let (bands, b, sums) =
                            (Arc::clone(bands), Arc::clone(b), Arc::clone(&sums));
                        pool.execute(move || {
                            let mut out = Matrix::zeros(MATMUL_BAND, MATMUL_N);
                            matmul_rows(&bands[band], &b, &mut out, 0..MATMUL_BAND);
                            sums[round * bands.len() + band]
                                .store(matrix_sum(&out).to_bits(), Ordering::Release);
                        });
                    }
                }
            }
            {
                let _s = tracer.span("pool", "wait_idle", 0);
                pool.wait_idle();
            }
            jobs += (rounds * bands.len()) as u64;
            // Sampled rows against the sequential reference; the other
            // bands must at least have been written.
            for band in 0..bands.len() {
                let want = (band % 4 == 0).then(|| matrix_sum(&matmul(&bands[band], b)).to_bits());
                failed += (0..*rounds)
                    .filter(|r| {
                        let got = sums[r * bands.len() + band].load(Ordering::Acquire);
                        got == u64::MAX || want.is_some_and(|w| w != got)
                    })
                    .count() as u64;
            }
        }
    }
    AppResult { jobs, failed }
}

/// The same job list on the calling thread, no pool: seconds it took.
pub fn run_solo(inputs: &Inputs) -> f64 {
    let t = Instant::now();
    match inputs {
        Inputs::Fft {
            phases, signals, ..
        } => {
            for _ in 0..*phases {
                for s in signals.iter() {
                    let mut buf = s.clone();
                    fft(&mut buf);
                    std::hint::black_box(spectrum_sum(&buf));
                }
            }
        }
        Inputs::Sort { rounds, data } => {
            for _ in 0..*rounds {
                std::hint::black_box(merge_sort_via_leaves(data, SORT_LEAVES));
            }
        }
        Inputs::Matmul { rounds, bands, b } => {
            for _ in 0..*rounds {
                for band in bands.iter() {
                    let mut out = Matrix::zeros(MATMUL_BAND, MATMUL_N);
                    matmul_rows(band, b, &mut out, 0..MATMUL_BAND);
                    std::hint::black_box(matrix_sum(&out));
                }
            }
        }
    }
    t.elapsed().as_secs_f64()
}
