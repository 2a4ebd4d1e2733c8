//! One-dimensional radix-2 FFT.
//!
//! An iterative Cooley–Tukey implementation whose butterfly passes are the
//! parallel phases of the Norton–Silberger algorithm the paper used: each
//! pass over the array can be split into independent chunks, with a
//! barrier between passes.

use std::f64::consts::PI;
use std::sync::OnceLock;

/// A complex number (we avoid an external dependency for one struct).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Constructs a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{i·theta}`.
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }

    fn add(self, o: Complex) -> Complex {
        Complex {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }

    fn sub(self, o: Complex) -> Complex {
        Complex {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

/// Bit-reversal permutation (the scramble pass before the butterflies).
pub fn bit_reverse_permute(data: &mut [Complex]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n == 1 {
        // Zero index bits: the shift below would be by the full width.
        return;
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
}

/// The twiddles of butterfly span `len`: `cis(-2πk/len)` for `k` in
/// `0..len/2`, each computed by the expression the per-butterfly loop
/// used, so a transform's output bits do not depend on the table.
///
/// One table per span, built on first use and never freed: 16·(`len`/2)
/// bytes each, so a process that transforms `n` points holds 16·(`n` − 1)
/// bytes for all its stages together (32 KiB at `n` = 2048).
fn twiddles(len: usize) -> &'static [Complex] {
    static TABLES: [OnceLock<Vec<Complex>>; usize::BITS as usize] =
        [const { OnceLock::new() }; usize::BITS as usize];
    // Not a debug_assert: a table filed under the wrong power of two would
    // outlive the call that built it.
    assert!(
        len.is_power_of_two(),
        "butterfly span must be a power of two"
    );
    TABLES[len.trailing_zeros() as usize].get_or_init(|| {
        let step = -2.0 * PI / len as f64; // forward transform
        (0..len / 2)
            .map(|k| Complex::cis(step * k as f64))
            .collect()
    })
}

/// Executes the butterflies of one FFT stage (`len` = butterfly span) for
/// the group range `groups` — the parallel chunk of one phase.
///
/// Stage `s` (1-based) has span `len = 2^s`; there are `n / len` groups,
/// each independent of the others.
#[inline(always)]
pub fn fft_stage_groups(data: &mut [Complex], len: usize, groups: std::ops::Range<usize>) {
    let table = twiddles(len);
    for group in data[groups.start * len..groups.end * len].chunks_exact_mut(len) {
        let (lo, hi) = group.split_at_mut(len / 2);
        for ((a, b), &w) in lo.iter_mut().zip(hi).zip(table) {
            let x = *a;
            let y = b.mul(w);
            *a = x.add(y);
            *b = x.sub(y);
        }
    }
}

/// Full sequential FFT (reference and convenience).
///
/// Runs the AVX2 instance of its body on a CPU that has AVX2 and the
/// baseline one otherwise; both give the same output bits (no fused
/// multiply-add, and each butterfly is the same expression).
pub fn fft(data: &mut [Complex]) {
    #[cfg(target_arch = "x86_64")]
    if super::avx2() {
        // SAFETY: the CPU has AVX2, the one feature the instance enables.
        return unsafe { fft_avx2(data) };
    }
    fft_baseline(data);
}

/// The baseline instance of [`fft`].
fn fft_baseline(data: &mut [Complex]) {
    transform(data);
}

/// The AVX2 instance of [`fft`].
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fft_avx2(data: &mut [Complex]) {
    transform(data);
}

/// The one body of [`fft`]: the scramble, then every stage in turn.
#[inline(always)]
fn transform(data: &mut [Complex]) {
    let n = data.len();
    bit_reverse_permute(data);
    let mut len = 2;
    while len <= n {
        fft_stage_groups(data, len, 0..n / len);
        len *= 2;
    }
}

/// Naive DFT, used as the test oracle.
pub fn dft_reference(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::default();
            for (j, &x) in input.iter().enumerate() {
                let w = Complex::cis(-2.0 * PI * (k * j) as f64 / n as f64);
                acc = acc.add(x.mul(w));
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn close(a: Complex, b: Complex) -> bool {
        (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9
    }

    fn random_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = seed;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        (0..n).map(|_| Complex::new(next(), next())).collect()
    }

    /// The stage as it was before the tables: `sin` and `cos` per
    /// butterfly. The table version must reproduce it bit for bit.
    fn stage_reference(data: &mut [Complex], len: usize, groups: std::ops::Range<usize>) {
        let half = len / 2;
        let step = -2.0 * PI / len as f64;
        for g in groups {
            let base = g * len;
            for k in 0..half {
                let w = Complex::cis(step * k as f64);
                let a = data[base + k];
                let b = data[base + k + half].mul(w);
                data[base + k] = a.add(b);
                data[base + k + half] = a.sub(b);
            }
        }
    }

    fn fft_reference(data: &mut [Complex]) {
        let n = data.len();
        bit_reverse_permute(data);
        let mut len = 2;
        while len <= n {
            stage_reference(data, len, 0..n / len);
            len *= 2;
        }
    }

    fn bits(data: &[Complex]) -> Vec<(u64, u64)> {
        data.iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    #[test]
    fn matches_dft_on_random_data() {
        for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
            let input = random_signal(n, 123 + n as u64);
            let expect = dft_reference(&input);
            let mut data = input;
            fft(&mut data);
            for (a, b) in data.iter().zip(&expect) {
                assert!(close(*a, *b), "n={n}: {a:?} != {b:?}");
            }
        }
    }

    type Transform = fn(&mut [Complex]);

    /// Every compiled instance of the transform this CPU can run, by
    /// name: the baseline one always, the AVX2 one where the CPU has AVX2
    /// (a skip line otherwise), and `fft`, which picks one of them.
    fn instances() -> Vec<(&'static str, Transform)> {
        let mut all: Vec<(&'static str, Transform)> =
            vec![("baseline", fft_baseline), ("dispatched", fft)];
        #[cfg(target_arch = "x86_64")]
        if crate::native::avx2() {
            all.push(("avx2", |data| {
                // SAFETY: the CPU has AVX2, checked just above.
                unsafe { fft_avx2(data) }
            }));
        } else {
            println!("fft avx2 instance: skipped, this CPU has no AVX2");
        }
        all
    }

    #[test]
    fn matches_per_butterfly_reference_bit_for_bit() {
        for log in 0..=12 {
            let n = 1usize << log;
            let input = random_signal(n, 99 + log);
            let mut want = input.clone();
            fft_reference(&mut want);
            for (name, transform) in instances() {
                let mut got = input.clone();
                transform(&mut got);
                assert_eq!(bits(&got), bits(&want), "{name}: n={n}");
            }
        }
    }

    #[test]
    fn length_one_is_the_identity() {
        let x = Complex::new(0.25, -3.0);
        let mut data = [x];
        bit_reverse_permute(&mut data);
        assert_eq!(data, [x]);
        fft(&mut data);
        assert_eq!(data, [x]);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![Complex::default(); 16];
        data[0] = Complex::new(1.0, 0.0);
        fft(&mut data);
        for x in &data {
            assert!(close(*x, Complex::new(1.0, 0.0)));
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let mut data = vec![Complex::new(1.0, 0.0); 8];
        fft(&mut data);
        assert!(close(data[0], Complex::new(8.0, 0.0)));
        for x in &data[1..] {
            assert!(x.abs() < 1e-9);
        }
    }

    #[test]
    fn stage_groups_compose_to_full_stage() {
        let n = 64;
        let base = random_signal(n, 7);
        let mut len = 2;
        while len <= n {
            let groups = n / len;
            let mut whole = base.clone();
            fft_stage_groups(&mut whole, len, 0..groups);
            let mut want = base.clone();
            stage_reference(&mut want, len, 0..groups);
            assert_eq!(bits(&whole), bits(&want), "len={len}");
            // Every two-way cut (empty sides included), run right half
            // first, and one group at a time.
            for cut in 0..=groups {
                let mut split = base.clone();
                fft_stage_groups(&mut split, len, cut..groups);
                fft_stage_groups(&mut split, len, 0..cut);
                assert_eq!(bits(&split), bits(&whole), "len={len} cut={cut}");
            }
            let mut single = base.clone();
            for g in 0..groups {
                fft_stage_groups(&mut single, len, g..g + 1);
            }
            assert_eq!(bits(&single), bits(&whole), "len={len} one by one");
            len *= 2;
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut data = vec![Complex::default(); 12];
        bit_reverse_permute(&mut data);
    }

    #[test]
    #[should_panic(expected = "span must be a power of two")]
    fn non_power_of_two_span_rejected() {
        let mut data = vec![Complex::default(); 12];
        fft_stage_groups(&mut data, 12, 0..1);
    }

    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -p workloads -- --ignored micro_ --nocapture --test-threads=1`
    fn micro_fft_2048() {
        let signal = random_signal(2048, 1);
        // The fastest of 7 rounds: one round is no number on a shared host.
        let time = |transform: Transform| {
            let mut buf = signal.clone();
            transform(&mut buf); // tables built, caches warm
            (0..7)
                .map(|_| {
                    let n = 1_000u32;
                    let start = Instant::now();
                    for _ in 0..n {
                        buf.copy_from_slice(&signal);
                        transform(std::hint::black_box(&mut buf));
                    }
                    (start.elapsed() / n).as_nanos()
                })
                .min()
                .expect("seven rounds")
        };
        let mut all = instances();
        all.push(("per-butterfly reference", fft_reference));
        for (name, transform) in all {
            println!(
                "fft 2048 points, {name}: {} ns/op (min of 7 rounds)",
                time(transform)
            );
        }
    }
}
