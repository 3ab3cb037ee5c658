#![warn(missing_docs)]

//! # fx-kernels — sequential numeric kernels
//!
//! The computation stages of the paper's applications, as plain sequential
//! Rust: FFTs (FFT-Hist, radar), histograms, image window sums and SSD
//! (multibaseline stereo), scaling/thresholding (radar), and the
//! Barnes-Hut tree math of Figure 7. The distributed applications in
//! `fx-apps` call these on locally owned data and charge the documented
//! flop counts to the simulator's virtual clocks.
//!
//! Everything here is independent of the runtime — pure functions with
//! sequential oracles used by the test suites of the layers above.

pub mod complex;
pub mod fft;
pub mod hist;
pub mod image;
pub mod nbody;
pub mod signal;

pub use complex::Complex;
pub use nbody::{BhTree, Body};
