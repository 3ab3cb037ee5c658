//! The planned FFT against the textbook recurrence it replaced: exact
//! where it claims to be (batched columns ≡ per-column transforms, bit
//! for bit), no less accurate anywhere, and faster by a margin that does
//! not depend on the host. The recurrence lives here and nowhere else.

use std::time::Instant;

use fx_kernels::complex::Complex;
use fx_kernels::fft::{dft_reference, fft_any, fft_cols_in_place, fft_in_place};
use proptest::prelude::*;

/// The seed kernel: a `reverse_bits` per element, one `cis` per stage and
/// a loop-carried `w *= wlen` twiddle. Accuracy and speed reference only.
fn recurrence_fft(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two() && n >= 2);
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let wlen = Complex::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
        for start in (0..n).step_by(len) {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let u = data[start + k];
                let v = data[start + k + len / 2] * w;
                data[start + k] = u + v;
                data[start + k + len / 2] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

fn signal(n: usize, salt: f64) -> Vec<Complex> {
    (0..n)
        .map(|i| Complex::new((i as f64 * 0.7 + salt).sin(), (i as f64 * 1.3 - salt).cos()))
        .collect()
}

fn max_err(got: &[Complex], want: &[Complex]) -> f64 {
    got.iter().zip(want).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The invariant that keeps `reference_histogram` equal to every
    /// mapping's answer: transforming the columns of a block together
    /// leaves the bits that transforming each alone would.
    #[test]
    fn batched_columns_equal_per_column_transforms_bitwise(
        log_rows in 0u32..=10,
        cols in 1usize..=17,
        inverse in any::<bool>(),
        seed in 0.0f64..100.0,
    ) {
        let rows = 1usize << log_rows;
        let block = signal(rows * cols, seed);
        let mut batched = block.clone();
        fft_cols_in_place(&mut batched, rows, cols, inverse);
        for c in 0..cols {
            let mut col: Vec<Complex> = (0..rows).map(|r| block[r * cols + c]).collect();
            fft_in_place(&mut col, inverse);
            for (r, want) in col.iter().enumerate() {
                let got = batched[r * cols + c];
                prop_assert!(
                    got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
                    "rows {rows} cols {cols} inverse {inverse}: ({r}, {c}) is {got:?}, alone {want:?}"
                );
            }
        }
    }
}

/// Twiddles straight from `cis` must not be worse than an n/2-long
/// product chain, in either direction.
#[test]
fn plan_is_no_less_accurate_than_the_recurrence() {
    for n in [64usize, 512, 4096] {
        for inverse in [false, true] {
            let x = signal(n, n as f64);
            let exact = dft_reference(&x, inverse);
            let mut planned = x.clone();
            fft_in_place(&mut planned, inverse);
            let mut chained = x.clone();
            recurrence_fft(&mut chained, inverse);
            let (new, old) = (max_err(&planned, &exact), max_err(&chained, &exact));
            assert!(new <= old, "n = {n}, inverse {inverse}: plan {new:e} > recurrence {old:e}");
        }
    }
}

/// Both directions interleaved on a warm cache: a cached forward chirp
/// must not leak into an inverse call, nor one length into another.
#[test]
fn bluestein_cache_keeps_lengths_and_directions_apart() {
    let lengths = [3usize, 5, 40, 100];
    for round in 0..3 {
        for n in lengths {
            for inverse in [false, true] {
                let x = signal(n, round as f64);
                let fast = fft_any(&x, inverse);
                let slow = dft_reference(&x, inverse);
                let err = max_err(&fast, &slow);
                assert!(err < 1e-9 * n as f64, "round {round} n {n} inverse {inverse}: {err:e}");
            }
        }
    }
}

fn best_of_7_ns(mut pass: impl FnMut()) -> u128 {
    (0..7)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos()
        })
        .min()
        .expect("seven passes")
}

/// CI's kernel gate (`--release --ignored`): two timings from one process,
/// so host speed cancels. A per-call `cis`, a `reverse_bits` per element
/// or a loop-carried twiddle creeping back into `fft_in_place` closes the
/// gap (the planned transform measures 2.4–2.5× faster on a quiet host).
#[test]
#[ignore = "timing; CI runs it in release with --ignored"]
fn planned_512_point_transform_beats_the_recurrence() {
    let input = signal(512, 0.0);
    let mut row = input.clone();
    let reps = 2000;
    fft_in_place(&mut row, false); // build the plan outside the timed passes
    let mut time = |kernel: fn(&mut [Complex], bool)| {
        best_of_7_ns(|| {
            for _ in 0..reps {
                row.copy_from_slice(&input);
                kernel(std::hint::black_box(&mut row), false);
            }
        })
    };
    let planned = time(fft_in_place);
    let chained = time(recurrence_fft);
    let per_point = |ns: u128| ns as f64 / (reps * 512) as f64;
    println!(
        "512-point transform: planned {:.2} ns/point, recurrence {:.2} ns/point ({:.2}x)",
        per_point(planned),
        per_point(chained),
        chained as f64 / planned as f64
    );
    assert!(
        planned * 3 < chained * 2,
        "planned {planned} ns x 1.5 is not under the recurrence's {chained} ns"
    );
}
