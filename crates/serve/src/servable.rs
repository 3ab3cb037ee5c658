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
use fx_apps::airshed::{airshed_requests, AirshedConfig};
use fx_apps::ffthist::{fft_hist_requests, FftHistConfig, FftHistMapping};
use fx_apps::util::{ReqCompletion, StreamMapping};
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

/// FFT-Hist (Figures 2, 3 and 5) as a service: each request 2D-FFTs one
/// deterministic dataset and histograms the magnitudes, under any of
/// the paper's mappings (data-parallel, pipeline, replicated).
#[derive(Debug, Clone, Copy)]
pub struct FftHistServable {
    /// Problem shape.
    pub cfg: FftHistConfig,
    /// Processor mapping (the axis Table 1 and Figure 5 explore).
    pub mapping: FftHistMapping,
}

impl Servable for FftHistServable {
    type Output = Vec<u64>;

    fn run_batch(&self, cx: &mut Cx, batch: &[ServeRequest]) -> Vec<ReqCompletion<Vec<u64>>> {
        let reqs: Vec<(usize, usize)> = batch.iter().map(|r| (r.idx, r.dataset)).collect();
        fft_hist_requests(cx, &self.cfg, self.mapping, &reqs)
    }
}

/// Airshed (§5) as a service: each request runs one full simulation
/// and answers its concentration checksum. The dataset index is
/// ignored — every Airshed request runs the configured scenario — but
/// requests still differ by id, so completions stay distinguishable.
#[derive(Debug, Clone, Copy)]
pub struct AirshedServable {
    /// Problem shape.
    pub cfg: AirshedConfig,
    /// How input | compute | output sit on the machine: data-parallel,
    /// or a pipeline such as Figure 6's `[1, P − 2, 1]`. Never
    /// replicated — hours carry state — and a batch panics if it is.
    pub mapping: StreamMapping,
}

impl Servable for AirshedServable {
    type Output = f64;

    fn run_batch(&self, cx: &mut Cx, batch: &[ServeRequest]) -> Vec<ReqCompletion<f64>> {
        let reqs: Vec<usize> = batch.iter().map(|r| r.idx).collect();
        airshed_requests(cx, &self.cfg, self.mapping, &reqs)
    }
}
