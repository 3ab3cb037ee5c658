//! Flop counts of scaling and thresholding — the last two stages of the
//! narrowband tracking radar pipeline (corner turn → row FFTs → scaling →
//! thresholding; Shaw et al., MIT Lincoln Laboratory). The stages
//! themselves are one-liners `fx-apps` applies to its local data.

/// Flops of the scaling stage over `n` samples.
pub fn scale_flops(n: usize) -> f64 {
    2.0 * n as f64
}

/// Flops of the threshold stage over `n` samples.
pub fn threshold_flops(n: usize) -> f64 {
    4.0 * n as f64
}
