//! Process control with real OS threads and real numeric work.
//!
//! Two thread pools — one multiplying matrices, one running FFTs — each
//! create twice as many workers as the machine has cores (the
//! overcommitted regime the paper warns about). The in-process controller
//! partitions the cores between them; excess workers suspend at safe
//! points and resume when the other pool finishes.
//!
//! Run with: `cargo run --release --example native_pool`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use native_rt::{Controller, Pool};
use workloads::native::fft::{fft, Complex};
use workloads::native::matmul::{matmul_rows, Matrix};

fn main() {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let controller = Controller::new(cores, Duration::from_millis(50));
    println!(
        "host: {cores} cores; two pools of {} workers each\n",
        2 * cores
    );

    // Pool A: C = A * B, one job per row band.
    let n = 384;
    let a = Arc::new(Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 13) as f64));
    let b = Arc::new(Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 17) % 11) as f64));
    let c = Arc::new(Mutex::new(Matrix::zeros(n, n)));

    // Pool B: batches of small FFTs.
    let fft_batches = 256;
    let ffts_done = Arc::new(AtomicUsize::new(0));

    let t0 = Instant::now();
    let pool_a = Pool::new(&controller, 2 * cores, false);
    let pool_b = Pool::new(&controller, 2 * cores, false);
    controller.recompute_now();
    println!(
        "targets after partitioning: matmul pool {} workers, fft pool {} workers",
        pool_a.target(),
        pool_b.target()
    );

    let band = 16;
    for start in (0..n).step_by(band) {
        let (a, b, c) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&c));
        pool_a.execute(move || {
            // Compute into a private buffer, then merge the band (keeps
            // the job free of long lock holds).
            let mut local = Matrix::zeros(a.rows, b.cols);
            let rows = start..(start + band).min(a.rows);
            matmul_rows(&a, &b, &mut local, rows.clone());
            let mut out = c.lock().unwrap();
            let cols = out.cols;
            for i in rows {
                let off = i * cols;
                out.data[off..off + cols].copy_from_slice(&local.data[off..off + cols]);
            }
        });
    }
    for seed in 0..fft_batches {
        let k = Arc::clone(&ffts_done);
        pool_b.execute(move || {
            let mut data: Vec<Complex> = (0..1024)
                .map(|i| Complex::new(((seed * 1024 + i) % 97) as f64 / 97.0, 0.0))
                .collect();
            for _ in 0..20 {
                fft(&mut data);
            }
            k.fetch_add(1, Ordering::Relaxed);
        });
    }

    pool_a.wait_idle();
    pool_b.wait_idle();
    let elapsed = t0.elapsed();

    // Verify the matmul against a few spot rows.
    let out = c.lock().unwrap();
    let mut reference = Matrix::zeros(n, n);
    matmul_rows(&a, &b, &mut reference, 0..2);
    assert_eq!(out.data[..2 * n], reference.data[..2 * n], "matmul wrong");

    println!("\nall work finished in {elapsed:.2?}");
    println!(
        "matmul pool: {} jobs, {} suspends, {} resumes",
        pool_a.metrics().jobs_run,
        pool_a.metrics().suspends,
        pool_a.metrics().resumes
    );
    println!(
        "fft pool:    {} jobs ({} batches), {} suspends, {} resumes",
        pool_b.metrics().jobs_run,
        ffts_done.load(Ordering::Relaxed),
        pool_b.metrics().suspends,
        pool_b.metrics().resumes
    );
    println!(
        "\nactive workers now: matmul {}, fft {} (of {} each)",
        pool_a.active(),
        pool_b.active(),
        2 * cores
    );
}
