//! Real numeric kernels for the native runtime.
//!
//! The simulated figures use the task-graph models in [`crate::sim`]; these
//! are the actual algorithms (same shapes, real arithmetic) that the
//! `native-rt` crate runs on OS threads, demonstrating the process-control
//! protocol with genuine computation.
//!
//! The vectorizable kernels ([`matmul::matmul_rows`], [`fft::fft`]) each
//! have one body compiled twice: a baseline instance, and one inside a
//! `#[target_feature(enable = "avx2")]` function that runs when the CPU
//! has AVX2. Both instances give the same output bits.

pub mod fft;
pub mod gauss;
pub mod matmul;
pub mod sort;

/// Whether this CPU runs the kernels' AVX2 instances: the one place the
/// kernels ask (the answer is cached by the standard library).
#[cfg(target_arch = "x86_64")]
fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}
