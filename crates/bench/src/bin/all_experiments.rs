//! Runs the complete evaluation suite (every table and figure of §6) and
//! writes `results/all_experiments.json`.
fn main() {
    let start = std::time::Instant::now();
    let records = tasti_bench::experiments::run_all();
    let path = tasti_bench::write_json("all_experiments", &records).expect("write results");
    println!(
        "\n{} records from the full suite written to {path}",
        records.len()
    );
    println!("total wall-clock: {:.1}s", start.elapsed().as_secs_f64());
}
