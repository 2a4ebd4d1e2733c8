//! Dense matrix multiplication, row-band parallelizable.

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f64>,
}

impl Matrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a generator.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }
}

/// Multiplies the row band `rows` of `a` by `b` into the matching rows of
/// `out` (added to what `out` holds). This is the unit of work a parallel
/// worker executes — "the multiplication is parallelized by splitting the
/// multiplicand by rows".
///
/// Each element is `out[i][j] + a[i][0]·b[0][j] + a[i][1]·b[1][j] + …`
/// summed in that order whichever path computes it, so the result does
/// not depend on how the rows are split into bands, nor on which of the
/// two compiled instances of one body runs: the baseline one (2 × 8
/// tiles), or the AVX2 one (4 × 8 tiles) on a CPU that has AVX2. Rust
/// never contracts `x * y + z` into a fused multiply-add, so each sum
/// rounds the same at any vector width. The sums of a tile stay in
/// registers across the whole `k` loop: `b` is read once per tile row
/// count and `out` touched once per tile. The loop this replaced skipped
/// `a[i][k] == 0.0`; the skip is gone, which changes a result only where
/// it hid a non-finite `b[k][j]` (`0·∞` now yields NaN, as IEEE matrix
/// multiplication does) or kept a `-0.0` already in `out`.
///
/// # Panics
///
/// Panics if dimensions disagree or the band is out of range.
pub fn matmul_rows(a: &Matrix, b: &Matrix, out: &mut Matrix, rows: std::ops::Range<usize>) {
    #[cfg(target_arch = "x86_64")]
    if super::avx2() {
        // SAFETY: the CPU has AVX2, the one feature the instance enables.
        return unsafe { matmul_rows_avx2(a, b, out, rows) };
    }
    matmul_rows_baseline(a, b, out, rows);
}

/// The baseline instance: 2 rows × 8 columns of sums is 8 two-lane
/// vector registers, which beside the 4 of a `b` row slice and the 2
/// broadcast `a` elements fits the 16 of baseline x86-64; a 4 × 8 tile
/// spills there and measured ~10 % slower.
fn matmul_rows_baseline(a: &Matrix, b: &Matrix, out: &mut Matrix, rows: std::ops::Range<usize>) {
    tiled::<2, 8>(a, b, out, rows);
}

/// The AVX2 instance: 4 × 8 sums of four lanes are 8 of the 16 `ymm`
/// registers, beside the 2 of a `b` row slice and the 4 broadcasts.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_rows_avx2(a: &Matrix, b: &Matrix, out: &mut Matrix, rows: std::ops::Range<usize>) {
    tiled::<4, 8>(a, b, out, rows);
}

/// The one body of [`matmul_rows`]: whole `R` × `C` tiles, then the rows
/// and columns no whole tile covers.
#[inline(always)]
fn tiled<const R: usize, const C: usize>(
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    rows: std::ops::Range<usize>,
) {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    assert_eq!(out.rows, a.rows);
    assert_eq!(out.cols, b.cols);
    assert!(rows.end <= a.rows, "row band out of range");
    let tiled_rows = rows.start..rows.start + rows.len() / R * R;
    let tiled_cols = b.cols - b.cols % C;
    for i in tiled_rows.clone().step_by(R) {
        for j in (0..tiled_cols).step_by(C) {
            tile::<R, C>(a, b, out, i, j);
        }
    }
    row_at_a_time(a, b, out, tiled_rows.clone(), tiled_cols..b.cols);
    row_at_a_time(a, b, out, tiled_rows.end..rows.end, 0..b.cols);
}

/// `out[i..i + R][j..j + C] += a[i..][..] · b[..][j..]`.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    i: usize,
    j: usize,
) {
    let mut acc = [[0.0; C]; R];
    for (r, acc) in acc.iter_mut().enumerate() {
        acc.copy_from_slice(&out.data[(i + r) * out.cols + j..][..C]);
    }
    let a_rows: [&[f64]; R] =
        std::array::from_fn(|r| &a.data[(i + r) * a.cols..(i + r + 1) * a.cols]);
    for (k, b_row) in b.data.chunks_exact(b.cols).enumerate() {
        let b_row = &b_row[j..j + C];
        for (acc, a_row) in acc.iter_mut().zip(a_rows) {
            let aik = a_row[k];
            for (sum, &bv) in acc.iter_mut().zip(b_row) {
                *sum += aik * bv;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        out.data[(i + r) * out.cols + j..][..C].copy_from_slice(acc);
    }
}

/// The remainder path: rows and columns no whole tile covers.
#[inline(always)]
fn row_at_a_time(
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) {
    if cols.is_empty() {
        return;
    }
    for i in rows {
        let out_row = &mut out.data[i * b.cols..][cols.clone()];
        let a_row = &a.data[i * a.cols..(i + 1) * a.cols];
        for (&aik, b_row) in a_row.iter().zip(b.data.chunks_exact(b.cols)) {
            for (sum, &bv) in out_row.iter_mut().zip(&b_row[cols.clone()]) {
                *sum += aik * bv;
            }
        }
    }
}

/// Full sequential multiply (reference).
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    matmul_rows(a, b, &mut out, 0..a.rows);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use std::time::Instant;

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(5, 5, |i, j| (i * 7 + j) as f64);
        let i = Matrix::identity(5);
        assert_eq!(matmul(&a, &i), a);
        assert_eq!(matmul(&i, &a), a);
    }

    #[test]
    fn known_product() {
        let a = Matrix {
            rows: 2,
            cols: 3,
            data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        };
        let b = Matrix {
            rows: 3,
            cols: 2,
            data: vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0],
        };
        let c = matmul(&a, &b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn banded_multiply_matches_full() {
        let a = Matrix::from_fn(8, 8, |i, j| ((i + 1) * (j + 2) % 7) as f64);
        let b = Matrix::from_fn(8, 8, |i, j| ((i * 3 + j * 5) % 11) as f64);
        let full = matmul(&a, &b);
        let mut banded = Matrix::zeros(8, 8);
        matmul_rows(&a, &b, &mut banded, 0..3);
        matmul_rows(&a, &b, &mut banded, 3..6);
        matmul_rows(&a, &b, &mut banded, 6..8);
        assert_eq!(full, banded);
    }

    /// The loop as it was: one row of `out` re-streamed per `a[i][k]`,
    /// zero multipliers skipped.
    fn matmul_rows_reference(a: &Matrix, b: &Matrix, out: &mut Matrix, rows: Range<usize>) {
        for i in rows {
            for k in 0..a.cols {
                let aik = a.at(i, k);
                if aik == 0.0 {
                    continue;
                }
                let brow = &b.data[k * b.cols..(k + 1) * b.cols];
                let orow = &mut out.data[i * out.cols..(i + 1) * out.cols];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aik * bv;
                }
            }
        }
    }

    /// Entries in (-0.5, 0.5).
    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = seed;
        Matrix::from_fn(rows, cols, |_, _| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        })
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    type Band = fn(&Matrix, &Matrix, &mut Matrix, Range<usize>);

    /// Every compiled instance of the kernel this CPU can run, by name:
    /// the baseline one always, the AVX2 one where the CPU has AVX2 (a
    /// skip line otherwise), and `matmul_rows`, which picks one of them.
    fn instances() -> Vec<(&'static str, Band)> {
        let mut all: Vec<(&'static str, Band)> = vec![
            ("baseline", matmul_rows_baseline),
            ("dispatched", matmul_rows),
        ];
        #[cfg(target_arch = "x86_64")]
        if crate::native::avx2() {
            all.push(("avx2", |a, b, out, rows| {
                // SAFETY: the CPU has AVX2, checked just above.
                unsafe { matmul_rows_avx2(a, b, out, rows) }
            }));
        } else {
            println!("matmul avx2 instance: skipped, this CPU has no AVX2");
        }
        all
    }

    #[test]
    fn matches_naive_loop_bit_for_bit_under_every_band_split() {
        // Row counts that leave remainders under a 2- and a 4-row tile,
        // column counts that leave remainders under an 8-column one.
        for (n, inner, m) in [
            (1, 1, 1),
            (5, 7, 3),
            (17, 9, 13),
            (6, 33, 21),
            (16, 256, 256),
            (4, 0, 16),
        ] {
            let mut a = random_matrix(n, inner, 11 + n as u64);
            // Multipliers the old loop skipped and the tile does not.
            a.data.iter_mut().step_by(5).for_each(|v| *v = 0.0);
            let b = random_matrix(inner, m, 12 + m as u64);
            // `out` is added to, not overwritten.
            let start = random_matrix(n, m, 13);
            let mut want = start.clone();
            matmul_rows_reference(&a, &b, &mut want, 0..n);
            for (name, instance) in instances() {
                for band in 1..=n {
                    let mut got = start.clone();
                    // Bands in descending order: no band may depend on another.
                    for lo in (0..n).step_by(band).rev() {
                        instance(&a, &b, &mut got, lo..(lo + band).min(n));
                    }
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{name}: {n}x{inner} . {inner}x{m}, bands of {band}"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_outside_the_band_are_untouched() {
        let a = random_matrix(6, 5, 1);
        let b = random_matrix(5, 11, 2);
        let start = random_matrix(6, 11, 3);
        let mut out = start.clone();
        matmul_rows(&a, &b, &mut out, 1..4);
        assert_eq!(bits(&out)[..11], bits(&start)[..11]);
        assert_eq!(bits(&out)[4 * 11..], bits(&start)[4 * 11..]);
    }

    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -p workloads -- --ignored micro_ --nocapture --test-threads=1`
    fn micro_matmul_band_16x256() {
        let a = random_matrix(16, 256, 1);
        let b = random_matrix(256, 256, 2);
        // The fastest of 7 rounds: one round is no number on a shared host.
        let time = |band: Band| {
            (0..7)
                .map(|_| {
                    let n = 300u32;
                    let start = Instant::now();
                    for _ in 0..n {
                        let mut out = Matrix::zeros(16, 256);
                        band(std::hint::black_box(&a), &b, &mut out, 0..16);
                        std::hint::black_box(&out);
                    }
                    (start.elapsed() / n).as_nanos()
                })
                .min()
                .expect("seven rounds")
        };
        let mut all = instances();
        all.push(("row-at-a-time reference", matmul_rows_reference));
        for (name, band) in all {
            println!(
                "matmul 16x256 . 256x256, {name}: {} ns/op (min of 7 rounds)",
                time(band)
            );
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        matmul(&a, &b);
    }
}
