//! The four chain programs as one value. A [`Stream`] is FFT-Hist, Radar,
//! Stereo or Airshed at one size — each a three-stage chain written once in
//! its own module — run one-shot ([`Stream::run`]) or served
//! ([`Stream::serve`]) under any [`Placement`]: the mapping search and the
//! serving layer hand over the same value.

use fx_core::{request_trace_id, Cx};

use crate::airshed::{airshed_hours, AirshedConfig};
use crate::ffthist::{fft_hist_program, fft_hist_sets, FftHistConfig};
use crate::radar::{radar_program, radar_sets, RadarConfig};
use crate::stereo::{assemble_depth, stereo_program, stereo_sets, StereoConfig};
use crate::util::{run_mapped, Placement, ReqCompletion};

/// One of Table 1's three stream programs, or Figure 6's Airshed, at one
/// problem size.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Fill + `cffts`, `rffts`, `hist`.
    FftHist(FftHistConfig),
    /// Acquisition, Doppler FFT + scaling, thresholding + count.
    Radar(RadarConfig),
    /// Difference image, error image, depth (per disparity).
    Stereo(StereoConfig),
    /// Hourly input, transport + chemistry, output; a data set is an hour,
    /// and the concentrations carry from one to the next.
    Airshed(AirshedConfig),
}

/// What a request answers, or a one-shot run holds: the program's result
/// for a data set.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// FFT-Hist's magnitude histogram.
    Histogram(Vec<u64>),
    /// Radar's detection count.
    Detections(u64),
    /// Stereo's depth image, row-major: the whole image when served, a
    /// processor's own columns from [`Stream::run`].
    Depth(Vec<u16>),
    /// Airshed's final concentration checksum for the whole day.
    Checksum(f64),
}

impl Stream {
    /// Stage names in chain order (what a rendered mapping reads).
    pub fn stages(&self) -> [&'static str; 3] {
        match self {
            Stream::FftHist(_) => ["cffts", "rffts", "hist"],
            Stream::Radar(_) => ["acquire", "doppler", "detect"],
            Stream::Stereo(_) => ["diff", "error", "depth"],
            Stream::Airshed(_) => ["input", "compute", "output"],
        }
    }

    /// The program over data sets `0..sets` under `placement` on the
    /// current group. Returns the answers this processor holds, in data-set
    /// order: FFT-Hist's histograms and Radar's counts where the last stage
    /// produced them, Stereo's depth tile of each set (this processor's
    /// columns), Airshed's checksum.
    pub fn run(&self, cx: &mut Cx, placement: &Placement, sets: usize) -> Vec<Answer> {
        let ids: Vec<usize> = (0..sets).collect();
        run_mapped(cx, placement, &ids, |cx, segs, ids| match self {
            Stream::FftHist(c) => fft_hist_sets(cx, c, segs, ids).into_iter().map(Answer::Histogram).collect(),
            Stream::Radar(c) => radar_sets(cx, c, segs, ids).into_iter().map(|(_, n)| Answer::Detections(n)).collect(),
            Stream::Stereo(c) => stereo_sets(cx, c, segs, ids).into_iter().map(|(_, t)| Answer::Depth(t)).collect(),
            Stream::Airshed(c) => vec![Answer::Checksum(airshed_hours(cx, c, segs, ids.iter().copied()))],
        })
    }

    /// Serve a batch of `(request index, dataset)` pairs under `placement`:
    /// the one-shot program with two hooks. Every processor tags its work
    /// with the request's trace id (a no-op unless the machine traces), and
    /// the leader of the group that produces an answer reports it with its
    /// own virtual time — for Stereo after gathering the depth tiles to it.
    /// An Airshed request is a whole day on one module (the hours carry
    /// state), its checksum broadcast from the compute stage's leader.
    pub fn serve(
        &self,
        cx: &mut Cx,
        placement: &Placement,
        reqs: &[(usize, usize)],
    ) -> Vec<ReqCompletion<Answer>> {
        if let Stream::Airshed(_) = self {
            assert_eq!(placement.modules, 1, "airshed hours carry state: a day runs on one module");
        }
        let dataset = |&(_, d): &(usize, usize)| d;
        let begin = |cx: &mut Cx, &(req, _): &(usize, usize)| cx.set_trace(request_trace_id(req));
        let report = |cx: &mut Cx, req: usize, output: Answer| {
            (cx.id() == 0).then(|| ReqCompletion { req, done: cx.now(), output })
        };
        run_mapped(cx, placement, reqs, |cx, segs, reqs| match *self {
            Stream::FftHist(c) => fft_hist_program(cx, &c, segs, reqs, dataset, begin, |cx, r, h| {
                report(cx, r.0, Answer::Histogram(h))
            }),
            Stream::Radar(c) => radar_program(cx, &c, segs, reqs, dataset, begin, |cx, r, n| {
                report(cx, r.0, Answer::Detections(n))
            }),
            Stream::Stereo(c) => stereo_program(cx, &c, segs, reqs, dataset, begin, |cx, r, tile| {
                let tiles = cx.gather(0, tile)?;
                report(cx, r.0, Answer::Depth(assemble_depth(&tiles, c.rows, c.cols)))
            }),
            Stream::Airshed(c) => {
                let compute_leader = segs.procs[..segs.seg_of_stage[1]].iter().sum();
                let day = |cx: &mut Cx, r: &(usize, usize)| {
                    begin(cx, r);
                    let v = airshed_hours(cx, &c, segs, 0..c.hours);
                    let checksum = if compute_leader == 0 { v } else { cx.bcast(compute_leader, v) };
                    report(cx, r.0, Answer::Checksum(checksum))
                };
                reqs.iter().filter_map(|r| day(cx, r)).collect()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffthist::reference_histogram;
    use crate::util::Segments;
    use fx_core::{spmd, Machine, MachineModel};

    #[test]
    fn served_requests_complete_once_on_their_leader_with_the_oracles_answer() {
        let cfg = FftHistConfig { n: 16, datasets: 3, nbins: 16, max_mag: 64.0 };
        let reqs = [(10, 0), (11, 2), (12, 1)];
        let placements = [
            Placement::data_parallel(6),
            Placement::pipeline([2, 2, 2]),
            Placement::replicated(2, Segments::fused(3)),
            Placement::replicated(2, Segments::pipeline([1, 1, 1])),
        ];
        for placement in placements {
            let rep = spmd(&Machine::simulated(6, MachineModel::paragon()), |cx| {
                Stream::FftHist(cfg).serve(cx, &placement, &reqs)
            });
            let mut completions: Vec<_> = rep.results.iter().flatten().collect();
            completions.sort_by_key(|c| c.req);
            let served: Vec<usize> = completions.iter().map(|c| c.req).collect();
            assert_eq!(served, [10, 11, 12], "{placement:?}: every request completes exactly once");
            for c in completions {
                let d = reqs.iter().find(|r| r.0 == c.req).unwrap().1;
                assert_eq!(c.output, Answer::Histogram(reference_histogram(&cfg, d)), "{placement:?}");
                assert!(c.done > 0.0, "{placement:?}: completion time must advance");
            }
        }
    }

    #[test]
    #[should_panic(expected = "hours carry state")]
    fn airshed_refuses_a_replicated_placement() {
        let cfg = AirshedConfig { gridpoints: 12, hours: 1, ..AirshedConfig::paper() };
        let twice = Placement::replicated(2, Segments::fused(2));
        spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            Stream::Airshed(cfg).serve(cx, &twice, &[(0, 0)])
        });
    }
}
