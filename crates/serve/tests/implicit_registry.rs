//! A server handed no telemetry registry builds one for its tenant
//! accounting — without the stall sampler, whose reports nobody could
//! read. Thread names are process-wide, so this test is a binary of its
//! own: no other test's registry runs a sampler beside it.
#![cfg(target_os = "linux")]

use fx_apps::ffthist::{fft_hist_requests, FftHistConfig, FftHistMapping};
use fx_apps::util::ReqCompletion;
use fx_core::{Cx, Machine, MachineModel};
use fx_serve::{poisson_trace, Servable, ServeRequest, Server, TenantSpec};

/// Names of the threads of this process, as the kernel reports them
/// (truncated to 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

/// FFT-Hist, looking at the process's threads from inside every batch.
struct Watching(FftHistConfig);

impl Servable for Watching {
    type Output = Vec<u64>;

    fn run_batch(&self, cx: &mut Cx, batch: &[ServeRequest]) -> Vec<ReqCompletion<Vec<u64>>> {
        let names = thread_names();
        assert!(!names.iter().any(|n| n.starts_with("fx-stall")), "sampler running: {names:?}");
        let reqs: Vec<(usize, usize)> = batch.iter().map(|r| (r.idx, r.dataset)).collect();
        fft_hist_requests(cx, &self.0, FftHistMapping::DataParallel, &reqs)
    }
}

#[test]
fn implicit_registry_spawns_no_stall_sampler() {
    let spawned = std::thread::Builder::new().name("fx-stall-detector".into()).spawn(thread_names);
    let seen = spawned.expect("spawn").join().expect("join");
    assert!(seen.iter().any(|n| n.starts_with("fx-stall")), "the probe sees a thread of that name: {seen:?}");

    let trace = poisson_trace(&[TenantSpec::new("gold", 60.0, 6)], 3);
    let machine = Machine::simulated(4, MachineModel::paragon());
    assert!(machine.telemetry.is_none());
    let rep = Server::new(machine, Watching(FftHistConfig::new(16, 1))).serve(&trace, &["gold"]);
    assert_eq!(rep.completed(), 6);
    assert!(rep.telemetry.is_some(), "tenant accounting still has its registry");
}
