//! The smoke profile through every workload, in-process (no pre-built
//! `tasti_cli` needed): every metric `BENCHMARK.json` declares must be
//! emitted by name, finite, with its unit.

use tasti_perf::e2e::{self, RunConfig};
use tasti_perf::fixture::SMOKE;
use tasti_perf::metrics::{manifest, MetricDef, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use tasti_perf::server::Backend;
use tasti_perf::trace;

use tasti_obs::JsonValue;

fn declared(manifest: &JsonValue, group: &str) -> Vec<(String, String)> {
    manifest
        .get(group)
        .and_then(JsonValue::as_array)
        .expect("metric group")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_emits(result: &RunResult, defs: &[MetricDef], declared: &[(String, String)], what: &str) {
    let line = result.result_line(defs);
    let parsed = JsonValue::parse(&line).expect("result line is JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(
            parsed.get(key).is_some(),
            "{what}: result line lacks `{key}`"
        );
    }
    for (name, unit) in declared {
        let m = parsed
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{what}: metric {name} not emitted"));
        let value = m.get("value").and_then(JsonValue::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} is not a finite number"
        );
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{what}: unit of {name}"
        );
    }
}

#[test]
fn benchmark_json_matches_the_metric_dictionary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        file,
        manifest(),
        "regenerate with `tasti-perf manifest > BENCHMARK.json`"
    );
}

#[test]
fn smoke_profile_emits_every_declared_metric() {
    let manifest = JsonValue::parse(&manifest()).expect("manifest is JSON");
    let e2e_declared = declared(&manifest, "end_to_end");
    let layer_declared = declared(&manifest, "per_layer");
    let cfg = RunConfig {
        profile: SMOKE,
        seed: 42,
        seconds: 1.0,
        backend: Backend::InProcess,
        open_loop: false,
    };
    for (workload, _) in WORKLOADS {
        let result = e2e::run(workload, &cfg).expect("end-to-end run");
        assert!(result.correct, "{workload}: {:?}", result.notes);
        assert_eq!(result.failed, 0, "{workload}: {:?}", result.notes);
        assert_emits(&result, END_TO_END, &e2e_declared, workload);
        for def in END_TO_END {
            assert!(result.get(def.name) > 0.0, "{workload}: {} is 0", def.name);
        }

        let traced = trace::run(workload, &cfg).expect("traced run");
        assert!(
            traced.result.correct,
            "{workload} traced: {:?}",
            traced.result.notes
        );
        assert_emits(&traced.result, PER_LAYER, &layer_declared, workload);
        let own = traced.tracer.self_time_us();
        assert!(
            own.contains_key("service.handle"),
            "{workload}: no handle span"
        );
        // The workloads separate the layers.
        let ingest = *workload == "ingest_mixed";
        assert_eq!(
            traced.result.get("segment.fsyncs") > 0.0,
            ingest,
            "{workload}"
        );
        assert_eq!(
            traced.result.get("crack.passes") > 0.0,
            *workload == "serve_cold",
            "{workload}"
        );
    }
}
