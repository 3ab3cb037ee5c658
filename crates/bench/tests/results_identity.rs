//! The bit-identity contract as a test: every paper bin's stdout is, byte
//! for byte, the committed `results/<name>.txt`. A change that is meant to
//! move a virtual number updates `results/` and EXPERIMENTS.md with it.

use std::process::Command;

macro_rules! paper_bins {
    ($($name:literal),*) => { [$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*] };
}

#[test]
#[ignore = "runs the seven paper bins; CI runs it in release with --ignored"]
fn paper_bins_print_the_committed_results_byte_for_byte() {
    let bins = paper_bins!("table1", "fig5_mappings", "fig6_airshed", "ablations", "tradeoff", "scaling", "machines");
    for (name, exe) in bins {
        let out = Command::new(exe).output().expect("bin starts");
        assert!(out.status.success(), "{name} failed:\n{}", String::from_utf8_lossy(&out.stderr));
        let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let want = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(out.stdout == want, "{name}: stdout differs from results/{name}.txt:\n{}", String::from_utf8_lossy(&out.stdout));
    }
}
