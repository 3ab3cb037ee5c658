fn main() {
    // Taken first: `setup_s` runs from here to a child's first timed pass.
    let process_start = std::time::Instant::now();
    std::process::exit(fx_benchmark::cli::main(process_start));
}
