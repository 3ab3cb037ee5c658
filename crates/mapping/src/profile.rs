//! Stage cost profiles: measured execution times of one data-parallel
//! task as a function of processor count.
//!
//! The automatic mapping work the paper builds on (Subhlok & Vondran,
//! PPoPP '95 and SPAA '96) drives its optimizer with per-task cost
//! functions `T_i(p)`. Profiles here are tables of measured samples
//! (typically at powers of two) with log-log interpolation in between —
//! execution time curves of data-parallel kernels are near power laws in
//! `p` until they flatten out.

use serde::{Deserialize, Serialize};

/// Measured cost profile of one pipeline stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageProfile {
    /// Stage name (for printed mappings).
    pub name: String,
    /// `(processors, seconds)` samples, strictly increasing in processors.
    pub samples: Vec<(usize, f64)>,
    /// The stage carries state from one data set to the next, so no
    /// mapping may replicate it (Airshed's hourly concentrations).
    pub carries_state: bool,
}

impl StageProfile {
    /// Build from samples; they are sorted and validated.
    pub fn from_samples(name: impl Into<String>, mut samples: Vec<(usize, f64)>) -> Self {
        assert!(!samples.is_empty(), "a profile needs at least one sample");
        samples.sort_by_key(|&(p, _)| p);
        assert!(
            samples.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate processor counts in profile"
        );
        assert!(
            samples.iter().all(|&(p, t)| p >= 1 && t > 0.0),
            "samples must have p >= 1 and positive times"
        );
        StageProfile { name: name.into(), samples, carries_state: false }
    }

    /// An ideal `T(p) = work / p` profile (useful in tests and as a
    /// stand-in before measurement).
    pub fn ideal(name: impl Into<String>, work: f64, max_p: usize) -> Self {
        let samples = (0..)
            .map(|k| 1usize << k)
            .take_while(|&p| p <= max_p)
            .map(|p| (p, work / p as f64))
            .collect();
        StageProfile::from_samples(name, samples)
    }

    /// Execution time on `p` processors: exact at samples, log-log
    /// interpolated between them, log-log **extrapolated** below the
    /// smallest sample (from the slope of the first segment), clamped to
    /// the last sample above the largest.
    ///
    /// Clamping below used to return the smallest sample's time — a
    /// profile measured at p >= 2 then reported the p=2 cost for a serial
    /// placement, underestimating serial stages and skewing the optimizer
    /// toward giving them too few processors. Extrapolation assumes the
    /// power-law shape continues; measure a p=1 sample when the exact
    /// serial cost matters. Above the largest sample we still clamp:
    /// kernels flatten out past their measured range, and optimistic
    /// extrapolation there would *over*-reward wide mappings.
    pub fn time(&self, p: usize) -> f64 {
        assert!(p >= 1, "need at least one processor");
        let s = &self.samples;
        if p == s[0].0 || (p < s[0].0 && s.len() == 1) {
            return s[0].1;
        }
        if p < s[0].0 {
            return Self::loglog(p, s[0], s[1]);
        }
        if p >= s[s.len() - 1].0 {
            return s[s.len() - 1].1;
        }
        let i = s.partition_point(|&(q, _)| q <= p) - 1;
        if p == s[i].0 {
            return s[i].1;
        }
        Self::loglog(p, s[i], s[i + 1])
    }

    /// Evaluate the log-log line through `(p0, t0)` and `(p1, t1)` at `p`.
    fn loglog(p: usize, (p0, t0): (usize, f64), (p1, t1): (usize, f64)) -> f64 {
        let f = ((p as f64).ln() - (p0 as f64).ln()) / ((p1 as f64).ln() - (p0 as f64).ln());
        (t0.ln() + f * (t1.ln() - t0.ln())).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_at_samples() {
        let p = StageProfile::from_samples("s", vec![(1, 8.0), (2, 5.0), (8, 2.0)]);
        assert_eq!(p.time(1), 8.0);
        assert_eq!(p.time(2), 5.0);
        assert_eq!(p.time(8), 2.0);
    }

    #[test]
    fn extrapolates_below_smallest_sample() {
        // Regression: time(1) on a profile measured at p >= 2 used to
        // return the p=2 cost (5.0), underestimating serial stages.
        let p = StageProfile::from_samples("s", vec![(2, 5.0), (8, 2.0)]);
        // Slope of the first segment: ln(2/5)/ln(8/2); extended to p=1.
        let alpha = (2.0f64 / 5.0).ln() / (8.0f64 / 2.0).ln();
        let expect = 5.0 * (0.5f64).powf(alpha);
        assert!((p.time(1) - expect).abs() < 1e-12, "{} vs {expect}", p.time(1));
        assert!(p.time(1) > 5.0, "serial cost must exceed the p=2 cost");
        // Above the largest sample we still clamp (curves flatten out).
        assert_eq!(p.time(64), 2.0);
        // Sample boundaries stay exact.
        assert_eq!(p.time(2), 5.0);
        assert_eq!(p.time(8), 2.0);
    }

    #[test]
    fn single_sample_profiles_clamp_everywhere() {
        let p = StageProfile::from_samples("s", vec![(4, 3.0)]);
        assert_eq!(p.time(1), 3.0);
        assert_eq!(p.time(4), 3.0);
        assert_eq!(p.time(16), 3.0);
    }

    #[test]
    fn extrapolation_matches_ideal_power_law() {
        // An ideal T(p) = 16/p profile sampled only at {2, 4, 8} must
        // extrapolate to exactly 16 at p=1.
        let p = StageProfile::from_samples("s", vec![(2, 8.0), (4, 4.0), (8, 2.0)]);
        assert!((p.time(1) - 16.0).abs() < 1e-9, "got {}", p.time(1));
    }

    #[test]
    fn interpolation_is_monotone_for_decreasing_profiles() {
        let p = StageProfile::from_samples("s", vec![(1, 8.0), (4, 3.0), (16, 1.5)]);
        let mut last = f64::INFINITY;
        for q in 1..=16 {
            let t = p.time(q);
            assert!(t <= last + 1e-12, "time increased at p={q}: {t} > {last}");
            last = t;
        }
    }

    #[test]
    fn ideal_profile_halves_per_doubling() {
        let p = StageProfile::ideal("s", 16.0, 8);
        assert_eq!(p.time(1), 16.0);
        assert_eq!(p.time(2), 8.0);
        assert_eq!(p.time(8), 2.0);
        // Log-log interpolation of an ideal profile is exact.
        assert!((p.time(3) - 16.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duplicate processor counts")]
    fn duplicate_samples_rejected() {
        StageProfile::from_samples("s", vec![(2, 5.0), (2, 4.0)]);
    }
}
