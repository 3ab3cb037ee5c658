//! The paper's Table 1 and Figure 5 claims, as named predicates over the
//! committed `results/table1.txt` and `results/fig5_mappings.txt`
//! (`results_identity.rs` holds the bins to those bytes). Each
//! predicate's tolerance is written beside it. A change that moves these
//! files either keeps the shape the paper reports or turns a predicate
//! red, whatever the numbers themselves do.

const TABLE1: &str = include_str!("../../../results/table1.txt");
const FIG5: &str = include_str!("../../../results/fig5_mappings.txt");

/// Figure 5's data-parallel throughput in the paper, the unit of its
/// constraints (`fig5_mappings.rs` scales them by ours).
const PAPER_FIG5_DP_THR: f64 = 1.99;

/// One measured row of Table 1.
struct Row {
    /// The throughput the search had to meet: the printed constraint, or
    /// the relaxed one the mapping label names.
    constraint: f64,
    thr: f64,
    thr_x: f64,
    lat_x: f64,
    mapping: String,
}

fn table1(program: &str, size: &str) -> Row {
    let num = |w: &str| w.parse::<f64>().unwrap_or_else(|e| panic!("{w:?} in results/table1.txt: {e}"));
    let line = TABLE1
        .lines()
        .find(|l| l.split_whitespace().take(2).eq([program, size]))
        .unwrap_or_else(|| panic!("results/table1.txt has no {program} {size} row"));
    let w: Vec<&str> = line.split_whitespace().collect();
    let mapping = w[9..].join(" ");
    let relaxed = mapping.split_once("(relaxed to ").map(|(_, r)| num(r.trim_end_matches("/s)")));
    Row { constraint: relaxed.unwrap_or(num(w[4])), thr: num(w[5]), thr_x: num(w[7]), lat_x: num(w[8]), mapping }
}

/// One requirement block of Figure 5: its heading, the mapping, and the
/// measured throughput.
struct Pick {
    heading: String,
    modules: usize,
    segments: usize,
    measured_thr: f64,
}

fn fig5() -> (f64, Vec<Pick>) {
    let rate = |text: &str| -> f64 {
        let w = text.split_whitespace().next().unwrap();
        w.parse().unwrap_or_else(|e| panic!("{w:?} in results/fig5_mappings.txt: {e}"))
    };
    let mut blocks = FIG5.split("\n\n").map(str::trim).filter(|b| !b.is_empty());
    blocks.next(); // the title
    let dp = blocks.next().unwrap();
    let dp_thr = rate(dp.strip_prefix("predicted data-parallel throughput:").expect("the data-parallel line"));
    let picks = blocks
        .map(|b| {
            let field = |name: &str| {
                b.lines()
                    .find_map(|l| l.trim().strip_prefix(name)?.trim_start().strip_prefix(':'))
                    .unwrap_or_else(|| panic!("no {name} in block {b:?}"))
                    .trim()
            };
            let mapping = field("mapping");
            let (modules, rest) = mapping.split_once("x [").expect("`<modules>x [...]`");
            Pick {
                heading: b.lines().next().unwrap().to_string(),
                modules: modules.parse().unwrap(),
                segments: rest.matches('|').count() + 1,
                measured_thr: rate(field("measured")),
            }
        })
        .collect();
    (dp_thr, picks)
}

#[test]
fn fft_hist_throughput_gain_falls_with_data_set_size() {
    // Paper: 3.41× at 256², 1.25× at 512². Tolerance: the 512² gain is at
    // most 0.9 of the 256² gain (reads 1.01 against 2.39).
    let (small, large) = (table1("FFT-Hist", "256x256"), table1("FFT-Hist", "512x512"));
    assert!(large.thr_x <= 0.9 * small.thr_x, "thr× {} at 256², {} at 512²", small.thr_x, large.thr_x);
}

#[test]
fn fft_hist_256_pays_less_latency_than_512() {
    // Paper: lat× 1.14 at 256², 1.61 at 512². Tolerance: none beyond the
    // printed two digits, strictly less (reads 0.83 against 1.22).
    let (small, large) = (table1("FFT-Hist", "256x256"), table1("FFT-Hist", "512x512"));
    assert!(small.lat_x < large.lat_x, "lat× {} at 256², {} at 512²", small.lat_x, large.lat_x);
}

#[test]
fn radar_gains_throughput_at_no_latency_cost() {
    // Paper: 3.00× throughput at lat× 1.00. Tolerance: thr× at least 1.5
    // (reads 2.25), lat× within 0.9–1.1 (reads 1.00).
    let radar = table1("Radar", "512x10x4");
    assert!(radar.thr_x >= 1.5, "Radar thr× {} ({})", radar.thr_x, radar.mapping);
    assert!((0.9..=1.1).contains(&radar.lat_x), "Radar lat× {} ({})", radar.lat_x, radar.mapping);
}

#[test]
fn stereo_pays_latency_for_throughput() {
    // Paper: lat× 1.87. Tolerance: anything above 1 (reads 7.50; the
    // replicated modules are 16× narrower than the data-parallel one).
    let stereo = table1("Stereo", "256x240");
    assert!(stereo.lat_x > 1.0, "Stereo lat× {} ({})", stereo.lat_x, stereo.mapping);
}

#[test]
fn fig5_goes_data_parallel_then_pipeline_then_replication() {
    // Paper: no requirement → data parallel; 2 sets/s → one module of
    // pipelined stages; 4 sets/s → replicated modules. Tolerance: shape
    // only, not the processor counts.
    let (_, picks) = fig5();
    let shape: Vec<(usize, usize)> = picks.iter().map(|p| (p.modules, p.segments)).collect();
    assert_eq!(picks.len(), 3, "one block a requirement");
    assert_eq!(shape[0], (1, 1), "{}", picks[0].heading);
    assert!(shape[1].0 == 1 && shape[1].1 >= 2, "{}: {:?}", picks[1].heading, shape[1]);
    assert!(shape[2].0 > 1, "{}: {:?}", picks[2].heading, shape[2]);
}

#[test]
fn every_feasible_pick_meets_its_constraint() {
    // A pick's measured throughput is at least the constraint it was
    // picked for, as printed. Tolerance: none. FFT-Hist 512² meets it by
    // 0.4 % (10.64/s against 10.60/s), so a prediction that drifts that
    // far above the simulator turns this red.
    for (program, size) in [("FFT-Hist", "256x256"), ("FFT-Hist", "512x512"), ("Radar", "512x10x4"), ("Stereo", "256x240")] {
        let row = table1(program, size);
        assert!(row.thr >= row.constraint, "{program} {size}: {}/s against {}/s ({})", row.thr, row.constraint, row.mapping);
    }
    // Figure 5's constraints are the paper's, scaled by the printed
    // data-parallel prediction; an infeasible block runs the ceiling and
    // makes no claim.
    let (dp_thr, picks) = fig5();
    for pick in picks.iter().filter(|p| !p.heading.contains("infeasible")) {
        let Some(units) = pick.heading.split_once("min throughput = ").map(|(_, r)| r) else { continue };
        let paper: f64 = units.split_whitespace().next().unwrap().parse().unwrap();
        let constraint = paper / PAPER_FIG5_DP_THR * dp_thr;
        assert!(pick.measured_thr >= constraint, "{}: {}/s against {constraint:.2}/s", pick.heading, pick.measured_thr);
    }
}
