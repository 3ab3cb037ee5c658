//! One-dimensional fast Fourier transforms.
//!
//! Radix-2 iterative Cooley–Tukey run from a **plan per length**: the
//! first transform of a power-of-two length builds that length's
//! bit-reversal swap list and its `n − 4` stage-contiguous twiddles (each
//! straight from `cis`, so the error does not grow along a product
//! chain), and every later transform of that length — on any thread —
//! reads them. The `len = 2` and `len = 4` stages are one fused pass with
//! no multiplication (`w ∈ {1, ∓i}` exactly); the later stages are
//! slice-zip loops with no loop-carried dependency.
//!
//! [`fft_cols_in_place`] runs the same schedule over whole rows of a
//! row-major block, so every column advances together; each element sees
//! exactly the operations [`fft_in_place`] would apply to its column,
//! which is what keeps the sequential oracle ([`fft2d_reference`]) and the
//! distributed `cffts` bit-equal. [`fft_any`] (Bluestein) keeps its chirp
//! and transformed kernel per `(n, direction)` in the same process-wide
//! cache. [`dft_reference`] is the O(n²) test oracle and [`fft_flops`] the
//! standard operation count the simulator charges for one transform.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::complex::Complex;

/// What every transform of one power-of-two length `n ≥ 4` shares.
struct Plan {
    /// The pairs `(i, j)`, `i < j = bitrev(i)`, of the bit-reversal
    /// permutation.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles `e^{-2πik/2h}`, `k < h`, of the stage with half
    /// length `h`, for `h = 4, 8, …, n/2` back to back: stage `h` starts
    /// at `h − 4`. Real and imaginary parts apart, because that is how
    /// the vectorised butterfly loop wants consecutive twiddles and it
    /// saves shuffling them there. The inverse transform conjugates on
    /// load.
    twiddle_re: Vec<f64>,
    twiddle_im: Vec<f64>,
}

impl Plan {
    fn build(n: usize) -> Plan {
        let bits = n.trailing_zeros();
        let last = u32::try_from(n - 1).expect("FFT plans index rows with u32");
        let swaps = (0..=last)
            .map(|i| (i, i.reverse_bits() >> (32 - bits)))
            .filter(|(i, j)| i < j)
            .collect();
        let stages = std::iter::successors(Some(4), |h| Some(2 * h)).take_while(|&h| h < n);
        let (twiddle_re, twiddle_im) = stages
            .flat_map(|h| (0..h).map(move |k| -std::f64::consts::PI * k as f64 / h as f64))
            .map(Complex::cis)
            .map(|w| (w.re, w.im))
            .unzip();
        Plan { swaps, twiddle_re, twiddle_im }
    }

    /// The `h` twiddles of the stage with half length `h ≥ 4`, as their
    /// real parts and their imaginary parts.
    fn stage(&self, h: usize) -> (&[f64], &[f64]) {
        let of_stage = h - 4..2 * h - 4;
        (&self.twiddle_re[of_stage.clone()], &self.twiddle_im[of_stage])
    }
}

/// The plan of length `n` (a power of two), built by whoever asks first.
/// Read-only afterwards, so it does not matter which worker a coroutine
/// runs on.
fn plan(n: usize) -> &'static Plan {
    static PLANS: [OnceLock<Plan>; usize::BITS as usize] =
        [const { OnceLock::new() }; usize::BITS as usize];
    PLANS[n.trailing_zeros() as usize].get_or_init(|| Plan::build(n))
}

/// `(u, v) ← (u + v, u − v)`: the `w = 1` butterfly.
#[inline(always)]
fn butterfly_one(u: &mut Complex, v: &mut Complex) {
    let (a, b) = (*u, *v);
    *u = a + b;
    *v = a - b;
}

/// `(u, v) ← (u + wv, u − wv)` with `w` a forward twiddle.
#[inline(always)]
fn butterfly<const INV: bool>(u: &mut Complex, v: &mut Complex, w: Complex) {
    let t = *v * if INV { w.conj() } else { w };
    let a = *u;
    *u = a + t;
    *v = a - t;
}

/// The `len = 2` and `len = 4` stages on four bit-reversed neighbours.
/// Their twiddles are `1` and `∓i`, so there is nothing to multiply.
#[inline(always)]
fn first_pass<const INV: bool>(
    a: &mut Complex,
    b: &mut Complex,
    c: &mut Complex,
    d: &mut Complex,
) {
    butterfly_one(a, b);
    butterfly_one(c, d);
    butterfly_one(a, c);
    // d · (∓i)
    *d = if INV { Complex::new(-d.im, d.re) } else { Complex::new(d.im, -d.re) };
    butterfly_one(b, d);
}

/// The transform of every column of a `rows x cols` block, `rows ≥ 2`:
/// the radix-2 schedule with a row of `cols` elements wherever a single
/// transform has one element. Inlined into its two callers so that
/// [`fft_in_place`] gets a copy with `cols = 1` folded in — one element
/// per row, rows adjacent — and the two can never disagree by a bit.
#[inline(always)]
fn transform<const INV: bool>(data: &mut [Complex], rows: usize, cols: usize) {
    if rows == 2 {
        let (r0, r1) = data.split_at_mut(cols);
        return r0.iter_mut().zip(r1).for_each(|(a, b)| butterfly_one(a, b));
    }
    let plan = plan(rows);
    for &(i, j) in &plan.swaps {
        let (head, tail) = data.split_at_mut(j as usize * cols);
        head[i as usize * cols..][..cols].swap_with_slice(&mut tail[..cols]);
    }
    for quad in data.chunks_exact_mut(4 * cols) {
        let (r01, r23) = quad.split_at_mut(2 * cols);
        let (r0, r1) = r01.split_at_mut(cols);
        let (r2, r3) = r23.split_at_mut(cols);
        for (((a, b), c), d) in r0.iter_mut().zip(r1).zip(r2).zip(r3) {
            first_pass::<INV>(a, b, c, d);
        }
    }
    let mut h = 4;
    while h < rows {
        let (w_re, w_im) = plan.stage(h);
        for block in data.chunks_exact_mut(2 * h * cols) {
            let (lo, hi) = block.split_at_mut(h * cols);
            let row_pairs = lo.chunks_exact_mut(cols).zip(hi.chunks_exact_mut(cols));
            for ((lo_row, hi_row), (&re, &im)) in row_pairs.zip(w_re.iter().zip(w_im)) {
                let w = Complex::new(re, im);
                for (u, v) in lo_row.iter_mut().zip(hi_row) {
                    butterfly::<INV>(u, v, w);
                }
            }
        }
        h *= 2;
    }
}

/// In-place radix-2 FFT. `data.len()` must be a power of two (it panics
/// otherwise). `inverse` computes the unscaled inverse transform; callers
/// divide by `n` themselves if they need the unitary roundtrip.
///
/// The first call for a length builds that length's O(n) table of
/// twiddles and bit-reversal swaps; it stays cached for the life of the
/// process.
pub fn fft_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "radix-2 FFT needs a power-of-two length, got {n}");
    if n <= 1 {
        return;
    }
    if inverse {
        transform::<true>(data, n, 1)
    } else {
        transform::<false>(data, n, 1)
    }
}

/// In-place FFT of every column of a row-major `rows x cols` block;
/// `rows` must be a power of two. Bit-for-bit what gathering each column,
/// running [`fft_in_place`] on it and scattering it back would leave, but
/// all columns advance together: a twiddle loads once per row pair and
/// the inner loop runs along contiguous memory.
pub fn fft_cols_in_place(data: &mut [Complex], rows: usize, cols: usize, inverse: bool) {
    assert_eq!(data.len(), rows * cols);
    assert!(rows.is_power_of_two(), "radix-2 FFT needs a power-of-two length, got {rows}");
    if rows <= 1 || cols == 0 {
        return;
    }
    if cols == 1 {
        return fft_in_place(data, inverse);
    }
    if inverse {
        transform::<true>(data, rows, cols)
    } else {
        transform::<false>(data, rows, cols)
    }
}

/// Forward FFT returning a new vector.
pub fn fft(data: &[Complex]) -> Vec<Complex> {
    let mut v = data.to_vec();
    fft_in_place(&mut v, false);
    v
}

/// Unitary inverse FFT returning a new vector (scaled by `1/n`).
pub fn ifft(data: &[Complex]) -> Vec<Complex> {
    let mut v = data.to_vec();
    fft_in_place(&mut v, true);
    let scale = 1.0 / v.len() as f64;
    for z in &mut v {
        *z = z.scale(scale);
    }
    v
}

/// What every Bluestein transform of one length and direction shares.
struct Bluestein {
    /// `w_k = e^{∓iπk²/n}`, `k < n`.
    chirp: Vec<Complex>,
    /// The forward FFT, at the padded length `m`, of the wrapped
    /// conjugate chirp the input is convolved with.
    kernel: Vec<Complex>,
}

impl Bluestein {
    fn build(n: usize, inverse: bool) -> Bluestein {
        let sign = if inverse { 1.0 } else { -1.0 };
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                // k^2 mod 2n avoids precision loss for large k.
                let k2 = (k * k) % (2 * n);
                Complex::cis(sign * std::f64::consts::PI * k2 as f64 / n as f64)
            })
            .collect();
        let m = (2 * n - 1).next_power_of_two();
        let mut kernel = vec![Complex::ZERO; m];
        for (k, w) in chirp.iter().enumerate() {
            kernel[k] = w.conj();
            if k != 0 {
                kernel[m - k] = w.conj();
            }
        }
        fft_in_place(&mut kernel, false);
        Bluestein { chirp, kernel }
    }
}

/// The Bluestein state for `(n, inverse)`, cached beside the
/// power-of-two plans. Racing first callers build identical tables and
/// the first insert wins.
fn bluestein(n: usize, inverse: bool) -> Arc<Bluestein> {
    static CACHE: RwLock<BTreeMap<(usize, bool), Arc<Bluestein>>> = RwLock::new(BTreeMap::new());
    const POISONED: &str = "a thread panicked inserting a Bluestein plan";
    if let Some(hit) = CACHE.read().expect(POISONED).get(&(n, inverse)) {
        return Arc::clone(hit);
    }
    let built = Arc::new(Bluestein::build(n, inverse));
    Arc::clone(CACHE.write().expect(POISONED).entry((n, inverse)).or_insert(built))
}

/// In-place FFT of **any** length via Bluestein's chirp-z algorithm
/// (arbitrary-n DFT as a convolution evaluated with power-of-two FFTs).
/// Lets the radar pipeline use the paper's exact 40-pulse (10 dwells × 4
/// channels) Doppler transform instead of padding to a power of two.
/// Unscaled in both directions, like [`fft_in_place`].
///
/// `scratch` holds the padded convolution; pass the same vector to every
/// call of a loop and only the first one allocates. Chirp and kernel come
/// from the per-`(n, inverse)` cache, so a call costs two power-of-two
/// FFTs and no trigonometry.
pub fn fft_any_in_place(data: &mut [Complex], inverse: bool, scratch: &mut Vec<Complex>) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    if n.is_power_of_two() {
        return fft_in_place(data, inverse);
    }
    let shared = bluestein(n, inverse);
    let m = shared.kernel.len();
    scratch.clear();
    scratch.extend(data.iter().zip(&shared.chirp).map(|(&x, &w)| x * w));
    scratch.resize(m, Complex::ZERO);
    fft_in_place(scratch, false);
    for (x, &y) in scratch.iter_mut().zip(&shared.kernel) {
        *x *= y;
    }
    fft_in_place(scratch, true);
    let scale = 1.0 / m as f64;
    for ((out, &x), &w) in data.iter_mut().zip(scratch.iter()).zip(&shared.chirp) {
        *out = (x * w).scale(scale);
    }
}

/// [`fft_any_in_place`] returning a new vector.
pub fn fft_any(data: &[Complex], inverse: bool) -> Vec<Complex> {
    let mut v = data.to_vec();
    fft_any_in_place(&mut v, inverse, &mut Vec::new());
    v
}

/// Flop count for an arbitrary-length FFT: three power-of-two FFTs of
/// the padded length plus the chirp multiplications.
pub fn fft_any_flops(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    if n.is_power_of_two() {
        return fft_flops(n);
    }
    let m = (2 * n - 1).next_power_of_two();
    3.0 * fft_flops(m) + 12.0 * n as f64
}

/// Direct O(n²) DFT — the oracle for FFT tests. Any length.
pub fn dft_reference(data: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = data.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in data.iter().enumerate() {
                // k·j mod n: an angle of up to 2πn would carry n times the
                // rounding error, more than the transforms this judges.
                let ang = sign * 2.0 * std::f64::consts::PI * ((k * j) % n) as f64 / n as f64;
                acc += x * Complex::cis(ang);
            }
            acc
        })
        .collect()
}

/// Floating point operations of one radix-2 FFT of length `n`
/// (the conventional `5 n log2 n` count).
pub fn fft_flops(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    5.0 * n as f64 * (n as f64).log2()
}

/// Sequential 2-D FFT of a row-major `rows x cols` matrix: columns first,
/// then rows (the FFT-Hist order). Used as the oracle for the distributed
/// pipeline. Both dimensions must be powers of two.
pub fn fft2d_reference(data: &[Complex], rows: usize, cols: usize) -> Vec<Complex> {
    assert_eq!(data.len(), rows * cols);
    let mut m = data.to_vec();
    fft_cols_in_place(&mut m, rows, cols, false);
    // Row FFTs.
    for r in 0..rows {
        fft_in_place(&mut m[r * cols..(r + 1) * cols], false);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_vec(a: &[Complex], b: &[Complex], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.approx_eq(*y, tol))
    }

    #[test]
    fn impulse_transforms_to_ones() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::ONE;
        let y = fft(&x);
        assert!(y.iter().all(|z| z.approx_eq(Complex::ONE, 1e-12)));
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let x = vec![Complex::ONE; 16];
        let y = fft(&x);
        assert!(y[0].approx_eq(Complex::new(16.0, 0.0), 1e-9));
        assert!(y[1..].iter().all(|z| z.approx_eq(Complex::ZERO, 1e-9)));
    }

    #[test]
    fn matches_dft_reference() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let fast = fft(&x);
            let slow = dft_reference(&x, false);
            assert!(approx_vec(&fast, &slow, 1e-6), "n = {n}");
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<Complex> =
            (0..64).map(|i| Complex::new(i as f64, -(i as f64) * 0.5)).collect();
        let y = ifft(&fft(&x));
        assert!(approx_vec(&x, &y, 1e-9));
    }

    #[test]
    fn single_frequency_peaks_in_right_bin() {
        let n = 32;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * (k0 * i) as f64 / n as f64))
            .collect();
        let y = fft(&x);
        for (k, z) in y.iter().enumerate() {
            if k == k0 {
                assert!(z.approx_eq(Complex::new(n as f64, 0.0), 1e-9));
            } else {
                assert!(z.abs() < 1e-9, "leak at bin {k}: {z:?}");
            }
        }
    }

    #[test]
    fn bluestein_matches_dft_for_awkward_lengths() {
        for n in [3usize, 5, 7, 12, 40, 100] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.9).cos(), (i as f64 * 0.4).sin()))
                .collect();
            let fast = fft_any(&x, false);
            let slow = dft_reference(&x, false);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(a.approx_eq(*b, 1e-7 * n as f64), "n={n}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn bluestein_power_of_two_path_agrees_with_radix2() {
        let x: Vec<Complex> =
            (0..16).map(|i| Complex::new(i as f64, -(i as f64))).collect();
        assert_eq!(fft_any(&x, false), fft(&x));
    }

    #[test]
    fn bluestein_inverse_roundtrips() {
        let n = 40; // the radar's 10 dwells x 4 channels
        let x: Vec<Complex> =
            (0..n).map(|i| Complex::new((i as f64).sin(), (i as f64).cos())).collect();
        let y = fft_any(&x, false);
        let back: Vec<Complex> =
            fft_any(&y, true).into_iter().map(|z| z.scale(1.0 / n as f64)).collect();
        for (a, b) in x.iter().zip(&back) {
            assert!(a.approx_eq(*b, 1e-8), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn racing_first_transforms_share_one_plan() {
        // A length no other test in this binary transforms, so the eight
        // threads really do race the build.
        let n = 1 << 13;
        let x: Vec<Complex> =
            (0..n).map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.3).cos())).collect();
        let gate = std::sync::Barrier::new(8);
        let runs: Vec<(Vec<Complex>, &Plan)> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        (fft(&x), plan(n))
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().expect("racer panicked")).collect()
        });
        let (first, table) = &runs[0];
        for (y, t) in &runs[1..] {
            assert!(std::ptr::eq(*t, *table), "two tables for one length");
            assert_eq!(y, first);
        }
    }

    #[test]
    fn fft_any_flops_reasonable() {
        assert_eq!(fft_any_flops(16), fft_flops(16));
        assert!(fft_any_flops(40) > fft_flops(64));
        assert_eq!(fft_any_flops(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        let mut x = vec![Complex::ZERO; 12];
        fft_in_place(&mut x, false);
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(fft_flops(1), 0.0);
        assert_eq!(fft_flops(8), 5.0 * 8.0 * 3.0);
    }

    #[test]
    fn fft2d_matches_separable_reference() {
        let rows = 4;
        let cols = 8;
        let data: Vec<Complex> = (0..rows * cols)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let got = fft2d_reference(&data, rows, cols);
        // Independent check: full 2-D DFT.
        let mut expect = vec![Complex::ZERO; rows * cols];
        for kr in 0..rows {
            for kc in 0..cols {
                let mut acc = Complex::ZERO;
                for r in 0..rows {
                    for c in 0..cols {
                        let ang = -2.0 * std::f64::consts::PI
                            * ((kr * r) as f64 / rows as f64 + (kc * c) as f64 / cols as f64);
                        acc += data[r * cols + c] * Complex::cis(ang);
                    }
                }
                expect[kr * cols + kc] = acc;
            }
        }
        assert!(approx_vec(&got, &expect, 1e-6));
    }
}
