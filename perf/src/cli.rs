//! Command line: the driver's single-workload mode, `run`, `trace`, `compare`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::e2e::{self, RunConfig};
use crate::fixture::Profile;
use crate::metrics::{RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use crate::server::Backend;
use crate::{compare, trace};

const USAGE: &str = "\
usage:
  tasti-perf --workload W --seed N --seconds S --trace 0|1 [--profile full|smoke]
      one run of one workload; the last stdout line is the result JSON
      (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
  tasti-perf run --seed N [--seconds S] [--profile P] [--out FILE]
      every workload end to end, then traced; writes one result file
  tasti-perf trace --workload W --seed N [--seconds S] [--profile P]
      the traced run alone, with the per-layer self-time table
  tasti-perf compare A.json B.json
      per workload x end-to-end metric: both values, relative change, bound;
      exits non-zero when B is worse than A beyond a bound
  tasti-perf manifest
      prints BENCHMARK.json as the metric dictionary in this binary defines it
workloads: serve_warm serve_cold ingest_mixed";

fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value '{v}' for --{name}")),
        None => default.ok_or_else(|| format!("missing --{name}")),
    }
}

fn config(flags: &BTreeMap<String, String>) -> Result<RunConfig, String> {
    let profile = Profile::parse(&get(flags, "profile", Some("full".to_string()))?)?;
    let seconds: f64 = get(flags, "seconds", Some(profile.seconds))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    Ok(RunConfig {
        profile,
        seed: get(flags, "seed", None)?,
        seconds,
        backend: Backend::child()?,
        open_loop: false,
    })
}

fn known_workload(name: &str) -> Result<(), String> {
    if WORKLOADS.iter().any(|(w, _)| *w == name) {
        Ok(())
    } else {
        Err(format!("unknown workload '{name}'"))
    }
}

fn driver(args: &[String]) -> Result<bool, String> {
    let flags = flags(args)?;
    let workload: String = get(&flags, "workload", None)?;
    known_workload(&workload)?;
    let traced = match get::<u8>(&flags, "trace", Some(0))? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    let cfg = config(&flags)?;
    let (result, defs) = if traced {
        (trace::run(&workload, &cfg)?.result, PER_LAYER)
    } else {
        (e2e::run(&workload, &cfg)?, END_TO_END)
    };
    for note in &result.notes {
        eprintln!("note: {note}");
    }
    println!("{}", result.result_line(defs));
    // The line carries `correct`; the exit code stays 0 for a completed run.
    Ok(true)
}

/// Self time per span name (span − children), largest first, as a
/// markdown table.
fn self_time_table(tracer: &trace::Tracer) -> String {
    let by_name = tracer.self_time_us();
    let total: f64 = by_name.values().sum::<f64>().max(f64::MIN_POSITIVE);
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = String::from("| span | self time (ms) | share |\n|---|---:|---:|\n");
    for (name, us) in rows {
        out.push_str(&format!(
            "| `{name}` | {:.2} | {:.1} % |\n",
            us / 1e3,
            us / total * 100.0
        ));
    }
    out
}

fn print_metrics(result: &RunResult, defs: &[crate::metrics::MetricDef]) {
    for def in defs {
        println!(
            "  {:<34} {:>16.4} {}",
            def.name,
            result.get(def.name),
            def.unit
        );
    }
    for note in &result.notes {
        println!("  note: {note}");
    }
}

/// `trace`: the traced run of one workload, its self-time table, and the
/// span file.
fn trace_cmd(args: &[String]) -> Result<bool, String> {
    let flags = flags(args)?;
    let workload: String = get(&flags, "workload", None)?;
    known_workload(&workload)?;
    let cfg = config(&flags)?;
    let traced = trace::run(&workload, &cfg)?;
    println!("per-layer metrics, {workload}, seed {}:", cfg.seed);
    print_metrics(&traced.result, PER_LAYER);
    println!(
        "\nself time per span (span − children), {workload}:\n{}",
        self_time_table(&traced.tracer)
    );
    let out: String = get(
        &flags,
        "out",
        Some(format!("perf/results/trace-{workload}.json")),
    )?;
    std::fs::write(&out, traced.tracer.to_json(&workload, cfg.seed))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("spans written to {out}");
    Ok(traced.result.correct)
}

/// `run`: every workload end to end, then traced; one result file.
fn run_cmd(args: &[String]) -> Result<bool, String> {
    let flags = flags(args)?;
    let cfg = config(&flags)?;
    let scratch_fs = crate::server::Scratch::create()?.fs_type();
    let mut file = format!(
        "{{\n\"schema\":1,\n\"machine\":{},\n\"profile\":\"{}\",\"seed\":{},\"seconds\":{},\n\"workloads\":{{",
        compare::machine_json(&scratch_fs),
        cfg.profile.name,
        cfg.seed,
        cfg.seconds
    );
    let mut correct = true;
    for (i, (workload, why)) in WORKLOADS.iter().enumerate() {
        println!("== {workload}: {why}");
        let e2e = e2e::run(workload, &cfg)?;
        println!(
            "end to end ({} ops attempted, {} failed, correct: {}):",
            e2e.attempted, e2e.failed, e2e.correct
        );
        print_metrics(&e2e, END_TO_END);
        let traced = trace::run(workload, &cfg)?;
        println!("per layer (correct: {}):", traced.result.correct);
        print_metrics(&traced.result, PER_LAYER);
        println!("\nself time per span:\n{}", self_time_table(&traced.tracer));
        correct &= e2e.correct && traced.result.correct;
        if i > 0 {
            file.push(',');
        }
        file.push_str(&format!(
            "\n  \"{workload}\":{}",
            compare::workload_json(&e2e, &traced.result)
        ));
    }
    file.push_str("\n}\n}\n");
    let out: String = get(&flags, "out", Some("perf/results/latest.json".to_string()))?;
    std::fs::write(&out, file).map_err(|e| format!("write {out}: {e}"))?;
    println!("results written to {out}");
    Ok(correct)
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        Some("manifest") => {
            print!("{}", crate::metrics::manifest());
            Ok(true)
        }
        Some("run") => run_cmd(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("compare needs two result files".to_string()),
        },
        Some(_) => driver(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("tasti-perf: {message}");
            ExitCode::from(2)
        }
    }
}
