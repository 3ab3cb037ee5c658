//! The five workloads, and the one table that names them.

mod msg_storm;
mod paper_apps;
mod redist;
mod serve_ladder;

use crate::workload::{Size, Workload};

/// Name and one-line reason of every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "paper_apps",
        "the reproduction itself at P=64 (FFT-Hist, Radar, Stereo, Airshed, qsort, Barnes-Hut): the only workload where kernels do most of the host work",
    ),
    (
        "msg_storm",
        "P=1024, 8-byte ring and allreduce+barrier rounds: runtime mailbox, coroutine switch, spawn and collectives do all the work, kernels and darray none",
    ),
    (
        "redist_steady",
        "repeated assign/transpose statements at P=64: plan replay, pack/unpack and chunk transport dominate (97% plan-cache hits)",
    ),
    (
        "redist_churn",
        "never-repeated extents at P=64: plan build, LRU eviction and array allocation dominate (0 plan-cache hits), the other side of redist_steady",
    ),
    (
        "serve_ladder",
        "open-loop Poisson requests at P=16 under dp and repl-4x, each at a reference and an overload rate: serve admission/batching and telemetry do the host work",
    ),
];

/// Set up workload `name` from `seed`.
pub fn setup(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_apps" => Box::new(paper_apps::PaperApps::setup(seed, size)),
        "msg_storm" => Box::new(msg_storm::MsgStorm::setup(seed, size)),
        "redist_steady" => Box::new(redist::RedistSteady::setup(seed, size)),
        "redist_churn" => Box::new(redist::RedistChurn::setup(seed, size)),
        "serve_ladder" => Box::new(serve_ladder::ServeLadder::setup(seed, size)),
        _ => return None,
    })
}
