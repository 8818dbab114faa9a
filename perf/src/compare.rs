//! Result files (`tasti-perf run` writes one) and `tasti-perf compare`.
//!
//! `compare A.json B.json` is the A/A tool for the change that defined the
//! benchmark and the parent-vs-change tool for every later one: per workload
//! and end-to-end metric it prints both values, the relative change with its
//! base, and the bound, and fails when B is worse than A beyond a bound or
//! B's failed share rose.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tasti_obs::json::push_escaped;
use tasti_obs::JsonValue;

use crate::metrics::{find, MetricDef, RunResult, END_TO_END, INGEST_GATES, PER_LAYER};

/// Shape of the recording machine; every result file carries one.
pub fn machine_json(fs_type: &str) -> String {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let mut out = format!("{{\"nproc\":{nproc}");
    for (key, value) in [
        ("rustc", run("rustc", &["-V"])),
        ("kernel", kernel),
        ("commit", run("git", &["rev-parse", "HEAD"])),
        ("scratch_fs", fs_type.to_string()),
    ] {
        write!(out, ",\"{key}\":\"").expect("String write");
        push_escaped(&mut out, &value);
        out.push('"');
    }
    out.push('}');
    out
}

fn metrics_json(out: &mut String, result: &RunResult, defs: &[MetricDef]) {
    let entries = result.metric_entries(defs);
    write!(out, "{{\n      {}\n    }}", entries.join(",\n      ")).expect("String write");
}

/// One workload's section of a result file: the untraced run's end-to-end
/// metrics and the traced run's per-layer metrics.
pub fn workload_json(e2e: &RunResult, traced: &RunResult) -> String {
    let mut out = format!(
        "{{\n    \"correct\":{},\"attempted\":{},\"failed\":{},\n    \"end_to_end\":",
        e2e.correct && traced.correct,
        e2e.attempted,
        e2e.failed
    );
    metrics_json(&mut out, e2e, END_TO_END);
    out.push_str(",\n    \"per_layer\":");
    metrics_json(&mut out, traced, PER_LAYER);
    out.push_str(",\n    \"notes\":[");
    for (i, note) in e2e.notes.iter().chain(&traced.notes).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        push_escaped(&mut out, note);
        out.push('"');
    }
    out.push_str("]\n  }");
    out
}

struct Loaded {
    /// workload → (failed share, metric name → value)
    workloads: BTreeMap<String, (f64, BTreeMap<String, f64>)>,
}

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(JsonValue::Object(sections)) = doc.get("workloads") else {
        return Err(format!("{path}: no \"workloads\" object"));
    };
    let mut workloads = BTreeMap::new();
    for (name, section) in sections {
        let count = |key: &str| section.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let mut values = BTreeMap::new();
        for group in ["end_to_end", "per_layer"] {
            if let Some(JsonValue::Object(metrics)) = section.get(group) {
                for (metric, entry) in metrics {
                    if let Some(v) = entry.get("value").and_then(JsonValue::as_f64) {
                        values.insert(metric.clone(), v);
                    }
                }
            }
        }
        let failed_share = count("failed") / count("attempted").max(1.0);
        workloads.insert(name.clone(), (failed_share, values));
    }
    Ok(Loaded { workloads })
}

/// Prints the comparison; `Ok(false)` when B regressed beyond a bound.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!("A = {a_path}\nB = {b_path}\n(change is (B − A) / A; worse-by is in the metric's bad direction)");
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "worse-by", "bound"
    );
    for (workload, (a_failed, a_values)) in &a.workloads {
        let Some((b_failed, b_values)) = b.workloads.get(workload) else {
            println!("{workload:<14} missing from B");
            ok = false;
            continue;
        };
        let gates = END_TO_END
            .iter()
            .map(|d| (d, d.bound.expect("e2e bound")))
            .chain(
                INGEST_GATES
                    .iter()
                    .filter(|_| workload == "ingest_mixed")
                    .map(|(name, bound)| (find(PER_LAYER, name).expect("declared"), *bound)),
            );
        for (def, bound) in gates {
            let (Some(&va), Some(&vb)) = (a_values.get(def.name), b_values.get(def.name)) else {
                println!("{workload:<14} {:<26} missing", def.name);
                ok = false;
                continue;
            };
            let worse = def.better.worsening(va, vb);
            let verdict = if worse > bound { "WORSE" } else { "ok" };
            ok &= worse <= bound;
            println!(
                "{workload:<14} {:<26} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>+8.2}% {:>6.1}%  {verdict} ({})",
                def.name,
                (vb - va) / va.abs().max(f64::MIN_POSITIVE) * 100.0,
                worse * 100.0,
                bound * 100.0,
                def.unit
            );
        }
        let verdict = if b_failed > a_failed { "WORSE" } else { "ok" };
        ok &= b_failed <= a_failed;
        println!(
            "{workload:<14} {:<26} {a_failed:>14.6} {b_failed:>14.6} {:>9} {:>9} {:>6.1}%  {verdict}",
            "failed_share", "", "", 0.0
        );
    }
    println!(
        "{}",
        if ok {
            "no regression beyond a bound"
        } else {
            "REGRESSION"
        }
    );
    Ok(ok)
}
