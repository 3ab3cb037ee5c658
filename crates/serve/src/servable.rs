//! The compiled pipelines a [`Server`](crate::Server) can wrap.
//!
//! A `Servable` is the serving-side view of an Fx program: given a
//! batch of admitted requests, run them through the mapped pipeline
//! and return one completion per request, reported by the canonical
//! completing processor (the lowest-ranked member of the group that
//! produces the result). Implementations must be pure in the serving
//! sense — the output for a request depends only on its dataset, never
//! on batch composition, mapping or timing.

use crate::ServeRequest;
use fx_apps::ffthist::{FftHistConfig, FftHistMapping};
use fx_apps::stream::{Answer, Stream};
use fx_apps::util::{Placement, ReqCompletion};
use fx_core::Cx;

/// A compiled pipeline that can serve batches of requests.
pub trait Servable: Send + Sync {
    /// Per-request output type. `PartialEq + Debug` so bit-identity to
    /// the one-shot run can be asserted.
    type Output: Clone + Send + PartialEq + std::fmt::Debug + 'static;

    /// Run one admitted batch through the pipeline. Called with the
    /// whole machine's `Cx` on every processor (SPMD); returns the
    /// completions this processor is the canonical reporter for —
    /// exactly one processor reports each request.
    fn run_batch(&self, cx: &mut Cx, batch: &[ServeRequest]) -> Vec<ReqCompletion<Self::Output>>;
}

/// Any of the four chain programs as a service, under any placement —
/// what the mapping search picks included: each request runs the one-shot
/// program on its dataset ([`Stream::serve`]; an Airshed request is a
/// whole day on one module).
#[derive(Debug, Clone)]
pub struct StreamServable {
    /// The program and its problem size.
    pub stream: Stream,
    /// Where its stages sit on the machine.
    pub placement: Placement,
}

impl Servable for StreamServable {
    type Output = Answer;

    fn run_batch(&self, cx: &mut Cx, batch: &[ServeRequest]) -> Vec<ReqCompletion<Answer>> {
        let reqs: Vec<(usize, usize)> = batch.iter().map(|r| (r.idx, r.dataset)).collect();
        self.stream.serve(cx, &self.placement, &reqs)
    }
}

/// Served FFT-Hist as `benchmark/`'s serve ladder spells it: a
/// [`StreamServable`] answering the bare histogram.
#[derive(Debug, Clone, Copy)]
pub struct FftHistServable {
    /// Problem shape.
    pub cfg: FftHistConfig,
    /// Processor mapping.
    pub mapping: FftHistMapping,
}

impl Servable for FftHistServable {
    type Output = Vec<u64>;

    fn run_batch(&self, cx: &mut Cx, batch: &[ServeRequest]) -> Vec<ReqCompletion<Vec<u64>>> {
        let placement = self.mapping.placement(cx.nprocs());
        let served = StreamServable { stream: Stream::FftHist(self.cfg), placement };
        let histogram = |c: ReqCompletion<Answer>| match c.output {
            Answer::Histogram(output) => ReqCompletion { req: c.req, done: c.done, output },
            other => unreachable!("FFT-Hist answers a histogram, not {other:?}"),
        };
        served.run_batch(cx, batch).into_iter().map(histogram).collect()
    }
}
