//! Telemetry audit: every query algorithm's reported `invocations` must
//! equal the `MeteredLabeler` delta across the call — **exactly**.
//!
//! This is the invariant the unified accounting layer exists to enforce
//! (DESIGN.md §6): the paper's cost metric is distinct target-labeler
//! invocations, so an algorithm that over- or under-reports by even one
//! call corrupts every cost figure downstream. Each test routes the oracle
//! closure through a real `MeteredLabeler` (cache + distinct-record meter)
//! and compares the meter's before/after delta against the telemetry.

use tasti_labeler::{
    BatchTargetLabeler, LabelCost, LabelerError, LabelerFault, LabelerOutput, MeteredLabeler,
    RecordId, Schema, SqlAnnotation, SqlOp, TargetLabeler,
};
use tasti_query::{
    ebs_aggregate, ebs_aggregate_batch, limit_query, limit_query_batch, predicate_aggregate,
    predicate_aggregate_batch, supg_precision_target, supg_precision_target_batch,
    supg_recall_target, supg_recall_target_batch, try_ebs_aggregate_batch, try_limit_query_batch,
    try_predicate_aggregate_batch, try_supg_precision_target_batch, try_supg_recall_target_batch,
    tune_threshold, tune_threshold_batch, AggregationConfig, PredicateAggConfig, SupgConfig,
    SupgPrecisionConfig,
};

/// Deterministic stand-in oracle: record `r` gets `r % 4` predicates.
struct FakeLabeler;

impl TargetLabeler for FakeLabeler {
    fn label(&self, record: RecordId) -> LabelerOutput {
        LabelerOutput::Sql(SqlAnnotation {
            op: SqlOp::Select,
            num_predicates: (record % 4) as u8,
        })
    }
    fn invocation_cost(&self) -> LabelCost {
        LabelCost {
            seconds: 1.0,
            dollars: 0.01,
        }
    }
    fn schema(&self) -> Schema {
        Schema::wikisql()
    }
    fn name(&self) -> &str {
        "fake"
    }
}

// Opt in to the (default, loop-based) batch interface so the batched audit
// below can route each algorithm's batch closure through
// `MeteredLabeler::label_batch`.
impl BatchTargetLabeler for FakeLabeler {}

fn value_of(out: &LabelerOutput) -> f64 {
    match out {
        LabelerOutput::Sql(a) => a.num_predicates as f64,
        _ => unreachable!("FakeLabeler only emits Sql"),
    }
}

/// Proxy scores loosely correlated with the oracle, with a few non-finite
/// entries so the audit also covers the sanitized path.
fn proxy(n: usize) -> Vec<f64> {
    let mut p: Vec<f64> = (0..n)
        .map(|r| (r % 4) as f64 + ((r * 2654435761) % 97) as f64 / 97.0)
        .collect();
    p[1] = f64::NAN;
    p[5] = f64::INFINITY;
    p
}

#[test]
fn ebs_aggregate_matches_the_meter() {
    let m = MeteredLabeler::new(FakeLabeler);
    let p = proxy(400);
    let before = m.invocations();
    let res = ebs_aggregate(
        &p,
        &mut |r| value_of(&m.label(r)),
        &AggregationConfig {
            error_target: 0.3,
            seed: 7,
            ..Default::default()
        },
    );
    assert_eq!(res.telemetry.invocations, m.invocations() - before);
    assert_eq!(res.samples, res.telemetry.invocations);
}

#[test]
fn supg_recall_matches_the_meter() {
    let m = MeteredLabeler::new(FakeLabeler);
    let p = proxy(400);
    let before = m.invocations();
    let res = supg_recall_target(
        &p,
        &mut |r| value_of(&m.label(r)) >= 2.0,
        &SupgConfig {
            budget: 120,
            seed: 7,
            ..Default::default()
        },
    );
    assert_eq!(res.telemetry.invocations, m.invocations() - before);
    assert_eq!(res.oracle_calls, res.telemetry.invocations);
}

#[test]
fn supg_precision_matches_the_meter() {
    let m = MeteredLabeler::new(FakeLabeler);
    let p = proxy(400);
    let before = m.invocations();
    let res = supg_precision_target(
        &p,
        &mut |r| value_of(&m.label(r)) >= 2.0,
        &SupgPrecisionConfig {
            budget: 120,
            seed: 7,
            ..Default::default()
        },
    );
    assert_eq!(res.telemetry.invocations, m.invocations() - before);
    assert_eq!(res.oracle_calls, res.telemetry.invocations);
}

#[test]
fn limit_query_matches_the_meter() {
    let m = MeteredLabeler::new(FakeLabeler);
    let p = proxy(400);
    let mut ranking: Vec<usize> = (0..p.len()).collect();
    ranking.sort_by(|&a, &b| tasti_query::desc_nan_last(p[a], p[b]));
    let before = m.invocations();
    let res = limit_query(&ranking, &mut |r| value_of(&m.label(r)) == 3.0, 10, 400);
    assert_eq!(res.telemetry.invocations, m.invocations() - before);
    assert!(res.satisfied);
}

#[test]
fn tune_threshold_matches_the_meter() {
    let m = MeteredLabeler::new(FakeLabeler);
    let p = proxy(400);
    let before = m.invocations();
    let res = tune_threshold(&p, &mut |r| value_of(&m.label(r)) >= 2.0, 100, 7);
    assert_eq!(res.telemetry.invocations, m.invocations() - before);
    assert_eq!(res.oracle_calls, res.telemetry.invocations);
}

#[test]
fn predicate_aggregate_matches_the_meter() {
    let m = MeteredLabeler::new(FakeLabeler);
    let p = proxy(400);
    let before = m.invocations();
    let res = predicate_aggregate(
        &p,
        &mut |r| {
            let v = value_of(&m.label(r));
            (v >= 2.0).then_some(v)
        },
        &PredicateAggConfig {
            budget: 150,
            seed: 7,
            ..Default::default()
        },
    );
    assert_eq!(res.telemetry.invocations, m.invocations() - before);
    assert_eq!(res.oracle_calls, res.telemetry.invocations);
}

// ---------------------------------------------------------------------------
// Batched vs sequential meter identity (acceptance criterion of the batched
// labeler front door): for every query algorithm, routing the oracle through
// `MeteredLabeler::label_batch` on a cold cache must produce an invocation
// count **bit-identical** to the sequential single-record loop — same
// records, same order, same bill. Each test runs the sequential and batched
// entry points against two fresh metered labelers with identical configs and
// compares both the meters and the results.
// ---------------------------------------------------------------------------

#[test]
fn batched_ebs_aggregate_is_meter_identical_to_sequential() {
    let p = proxy(400);
    let cfg = AggregationConfig {
        error_target: 0.3,
        seed: 7,
        ..Default::default()
    };
    let seq = MeteredLabeler::new(FakeLabeler);
    let seq_res = ebs_aggregate(&p, &mut |r| value_of(&seq.label(r)), &cfg);
    let bat = MeteredLabeler::new(FakeLabeler);
    let bat_res = ebs_aggregate_batch(
        &p,
        &mut |recs| bat.label_batch(recs).iter().map(value_of).collect(),
        &cfg,
    );
    assert_eq!(bat.invocations(), seq.invocations());
    assert_eq!(bat.cache_hits(), seq.cache_hits());
    assert_eq!(bat_res.samples, seq_res.samples);
    assert_eq!(bat_res.estimate, seq_res.estimate);
    assert_eq!(bat_res.telemetry.invocations, seq_res.telemetry.invocations);
}

#[test]
fn batched_supg_recall_is_meter_identical_to_sequential() {
    let p = proxy(400);
    let cfg = SupgConfig {
        budget: 120,
        seed: 7,
        ..Default::default()
    };
    let seq = MeteredLabeler::new(FakeLabeler);
    let seq_res = supg_recall_target(&p, &mut |r| value_of(&seq.label(r)) >= 2.0, &cfg);
    let bat = MeteredLabeler::new(FakeLabeler);
    let bat_res = supg_recall_target_batch(
        &p,
        &mut |recs| {
            bat.label_batch(recs)
                .iter()
                .map(|o| value_of(o) >= 2.0)
                .collect()
        },
        &cfg,
    );
    assert_eq!(bat.invocations(), seq.invocations());
    assert_eq!(bat_res.oracle_calls, seq_res.oracle_calls);
    assert_eq!(bat_res.returned, seq_res.returned);
    assert_eq!(bat_res.threshold, seq_res.threshold);
    assert_eq!(bat_res.telemetry.invocations, seq_res.telemetry.invocations);
}

#[test]
fn batched_supg_precision_is_meter_identical_to_sequential() {
    let p = proxy(400);
    let cfg = SupgPrecisionConfig {
        budget: 120,
        seed: 7,
        ..Default::default()
    };
    let seq = MeteredLabeler::new(FakeLabeler);
    let seq_res = supg_precision_target(&p, &mut |r| value_of(&seq.label(r)) >= 2.0, &cfg);
    let bat = MeteredLabeler::new(FakeLabeler);
    let bat_res = supg_precision_target_batch(
        &p,
        &mut |recs| {
            bat.label_batch(recs)
                .iter()
                .map(|o| value_of(o) >= 2.0)
                .collect()
        },
        &cfg,
    );
    assert_eq!(bat.invocations(), seq.invocations());
    assert_eq!(bat_res.oracle_calls, seq_res.oracle_calls);
    assert_eq!(bat_res.returned, seq_res.returned);
    assert_eq!(bat_res.telemetry.invocations, seq_res.telemetry.invocations);
}

#[test]
fn batched_limit_query_with_unit_probe_is_meter_identical_to_sequential() {
    let p = proxy(400);
    let mut ranking: Vec<usize> = (0..p.len()).collect();
    ranking.sort_by(|&a, &b| tasti_query::desc_nan_last(p[a], p[b]));
    let seq = MeteredLabeler::new(FakeLabeler);
    let seq_res = limit_query(&ranking, &mut |r| value_of(&seq.label(r)) == 3.0, 10, 400);
    let bat = MeteredLabeler::new(FakeLabeler);
    let bat_res = limit_query_batch(
        &ranking,
        &mut |recs| {
            bat.label_batch(recs)
                .iter()
                .map(|o| value_of(o) == 3.0)
                .collect()
        },
        10,
        400,
        1,
    );
    assert_eq!(bat.invocations(), seq.invocations());
    assert_eq!(bat_res.invocations, seq_res.invocations);
    assert_eq!(bat_res.found, seq_res.found);
    assert_eq!(bat_res.telemetry.invocations, seq_res.telemetry.invocations);
}

#[test]
fn batched_limit_query_overshoot_is_bounded_by_probe_batch() {
    // Larger probe batches may overshoot — but by strictly less than one
    // batch, and the answer itself must not change.
    let p = proxy(400);
    let mut ranking: Vec<usize> = (0..p.len()).collect();
    ranking.sort_by(|&a, &b| tasti_query::desc_nan_last(p[a], p[b]));
    let seq = MeteredLabeler::new(FakeLabeler);
    let seq_res = limit_query(&ranking, &mut |r| value_of(&seq.label(r)) == 3.0, 10, 400);
    for probe_batch in [4u64, 16, 64] {
        let bat = MeteredLabeler::new(FakeLabeler);
        let bat_res = limit_query_batch(
            &ranking,
            &mut |recs| {
                bat.label_batch(recs)
                    .iter()
                    .map(|o| value_of(o) == 3.0)
                    .collect()
            },
            10,
            400,
            probe_batch as usize,
        );
        assert_eq!(bat_res.found, seq_res.found);
        assert!(bat.invocations() >= seq.invocations());
        assert!(bat.invocations() < seq.invocations() + probe_batch);
    }
}

#[test]
fn batched_tune_threshold_is_meter_identical_to_sequential() {
    let p = proxy(400);
    let seq = MeteredLabeler::new(FakeLabeler);
    let seq_res = tune_threshold(&p, &mut |r| value_of(&seq.label(r)) >= 2.0, 100, 7);
    let bat = MeteredLabeler::new(FakeLabeler);
    let bat_res = tune_threshold_batch(
        &p,
        &mut |recs| {
            bat.label_batch(recs)
                .iter()
                .map(|o| value_of(o) >= 2.0)
                .collect()
        },
        100,
        7,
    );
    assert_eq!(bat.invocations(), seq.invocations());
    assert_eq!(bat_res.oracle_calls, seq_res.oracle_calls);
    assert_eq!(bat_res.selected, seq_res.selected);
    assert_eq!(bat_res.threshold, seq_res.threshold);
    assert_eq!(bat_res.telemetry.invocations, seq_res.telemetry.invocations);
}

#[test]
fn batched_predicate_aggregate_is_meter_identical_to_sequential() {
    let p = proxy(400);
    let cfg = PredicateAggConfig {
        budget: 150,
        seed: 7,
        ..Default::default()
    };
    let seq = MeteredLabeler::new(FakeLabeler);
    let seq_res = predicate_aggregate(
        &p,
        &mut |r| {
            let v = value_of(&seq.label(r));
            (v >= 2.0).then_some(v)
        },
        &cfg,
    );
    let bat = MeteredLabeler::new(FakeLabeler);
    let bat_res = predicate_aggregate_batch(
        &p,
        &mut |recs| {
            bat.label_batch(recs)
                .iter()
                .map(|o| {
                    let v = value_of(o);
                    (v >= 2.0).then_some(v)
                })
                .collect()
        },
        &cfg,
    );
    assert_eq!(bat.invocations(), seq.invocations());
    assert_eq!(bat_res.oracle_calls, seq_res.oracle_calls);
    assert_eq!(bat_res.estimate, seq_res.estimate);
    assert_eq!(bat_res.telemetry.invocations, seq_res.telemetry.invocations);
}

#[test]
fn importance_sampled_algorithms_share_one_sampler() {
    // SUPG recall and precision draw from the same √p distribution: for the
    // same proxy, seed, budget and uniform mix they must ask their oracle
    // for the same records in the same order. Predicate aggregation weights
    // by p instead, but keeps the sampler's request contract: one call,
    // distinct records, at most `budget.min(n)` of them.
    let n = 400;
    let p = proxy(n);
    let matches = |r: usize| r % 4 >= 2;
    for (budget, uniform_mix, seed) in [(150, 0.1, 7), (40, 0.5, 11), (1_000, 0.0, 3)] {
        let mut recall_requests: Vec<Vec<usize>> = Vec::new();
        supg_recall_target_batch(
            &p,
            &mut |recs| {
                recall_requests.push(recs.to_vec());
                recs.iter().map(|&r| matches(r)).collect()
            },
            &SupgConfig {
                budget,
                uniform_mix,
                seed,
                ..Default::default()
            },
        );
        let mut precision_requests: Vec<Vec<usize>> = Vec::new();
        supg_precision_target_batch(
            &p,
            &mut |recs| {
                precision_requests.push(recs.to_vec());
                recs.iter().map(|&r| matches(r)).collect()
            },
            &SupgPrecisionConfig {
                budget,
                uniform_mix,
                seed,
                ..Default::default()
            },
        );
        assert_eq!(recall_requests.len(), 1);
        assert_eq!(recall_requests, precision_requests);

        let mut agg_requests: Vec<Vec<usize>> = Vec::new();
        predicate_aggregate_batch(
            &p,
            &mut |recs| {
                agg_requests.push(recs.to_vec());
                recs.iter()
                    .map(|&r| matches(r).then_some(r as f64))
                    .collect()
            },
            &PredicateAggConfig {
                budget,
                uniform_mix,
                seed,
                ..Default::default()
            },
        );
        assert_eq!(agg_requests.len(), 1);
        let asked = &agg_requests[0];
        assert!(!asked.is_empty() && asked.len() <= budget.min(n));
        let distinct: std::collections::HashSet<usize> = asked.iter().copied().collect();
        assert_eq!(distinct.len(), asked.len(), "duplicate record requested");
    }
}

// ---------------------------------------------------------------------------
// Fault-aware vs classic identity (acceptance criterion of the fault-tolerant
// oracle path): with fault injection disabled, every `try_*` entry point must
// be bit-identical in its result and meter-identical on a cold cache to the
// classic infallible entry point. The fallible closures route through
// `MeteredLabeler::try_label_batch_fallible`, the exact wiring the serving
// layer uses.
// ---------------------------------------------------------------------------

/// Batch closure body shared by the fault-path audits: label through the
/// fallible metered front door, surfacing faults (a budget error cannot
/// occur — these meters are unbudgeted).
fn fallible_outputs(
    m: &MeteredLabeler<FakeLabeler>,
    recs: &[usize],
) -> Result<Vec<LabelerOutput>, LabelerFault> {
    m.try_label_batch_fallible(recs).map_err(|e| match e {
        LabelerError::Fault(f) => f,
        LabelerError::Budget(b) => panic!("unbudgeted meter reported {b}"),
    })
}

/// Wire form with the (run-dependent) wall-clock zeroed, so two executions
/// of the same deterministic algorithm serialize byte-identically.
fn json_sans_walltime(t: &tasti_query::QueryTelemetry) -> String {
    let mut t = t.clone();
    t.wall_seconds = 0.0;
    t.to_json()
}

#[test]
fn fault_aware_ebs_is_identical_to_classic_without_faults() {
    let p = proxy(400);
    let cfg = AggregationConfig {
        error_target: 0.3,
        seed: 7,
        ..Default::default()
    };
    let plain = MeteredLabeler::new(FakeLabeler);
    let plain_res = ebs_aggregate_batch(
        &p,
        &mut |recs| plain.label_batch(recs).iter().map(value_of).collect(),
        &cfg,
    );
    let faultable = MeteredLabeler::new(FakeLabeler);
    let outcome = try_ebs_aggregate_batch(
        &p,
        &mut |recs| {
            Ok(fallible_outputs(&faultable, recs)?
                .iter()
                .map(value_of)
                .collect())
        },
        &cfg,
    );
    assert!(!outcome.is_degraded());
    let res = outcome.into_result();
    assert_eq!(faultable.invocations(), plain.invocations());
    assert_eq!(faultable.cache_hits(), plain.cache_hits());
    assert_eq!(res.estimate.to_bits(), plain_res.estimate.to_bits());
    assert_eq!(res.samples, plain_res.samples);
    assert_eq!(res.telemetry.invocations, plain_res.telemetry.invocations);
    assert_eq!(res.telemetry.oracle_faults, 0);
    assert!(!res.telemetry.degraded);
    // The wire form is also byte-identical: fault fields are elided.
    assert_eq!(
        json_sans_walltime(&res.telemetry),
        json_sans_walltime(&plain_res.telemetry)
    );
}

#[test]
fn fault_aware_supg_recall_is_identical_to_classic_without_faults() {
    let p = proxy(400);
    let cfg = SupgConfig {
        budget: 120,
        seed: 7,
        ..Default::default()
    };
    let plain = MeteredLabeler::new(FakeLabeler);
    let plain_res = supg_recall_target_batch(
        &p,
        &mut |recs| {
            plain
                .label_batch(recs)
                .iter()
                .map(|o| value_of(o) >= 2.0)
                .collect()
        },
        &cfg,
    );
    let faultable = MeteredLabeler::new(FakeLabeler);
    let outcome = try_supg_recall_target_batch(
        &p,
        &mut |recs| {
            Ok(fallible_outputs(&faultable, recs)?
                .iter()
                .map(|o| value_of(o) >= 2.0)
                .collect())
        },
        &cfg,
    );
    assert!(!outcome.is_degraded());
    let res = outcome.into_result();
    assert_eq!(faultable.invocations(), plain.invocations());
    assert_eq!(res.returned, plain_res.returned);
    assert_eq!(res.threshold.to_bits(), plain_res.threshold.to_bits());
    assert_eq!(res.oracle_calls, plain_res.oracle_calls);
    assert_eq!(
        json_sans_walltime(&res.telemetry),
        json_sans_walltime(&plain_res.telemetry)
    );
}

#[test]
fn fault_aware_supg_precision_is_identical_to_classic_without_faults() {
    let p = proxy(400);
    let cfg = SupgPrecisionConfig {
        budget: 120,
        seed: 7,
        ..Default::default()
    };
    let plain = MeteredLabeler::new(FakeLabeler);
    let plain_res = supg_precision_target_batch(
        &p,
        &mut |recs| {
            plain
                .label_batch(recs)
                .iter()
                .map(|o| value_of(o) >= 2.0)
                .collect()
        },
        &cfg,
    );
    let faultable = MeteredLabeler::new(FakeLabeler);
    let outcome = try_supg_precision_target_batch(
        &p,
        &mut |recs| {
            Ok(fallible_outputs(&faultable, recs)?
                .iter()
                .map(|o| value_of(o) >= 2.0)
                .collect())
        },
        &cfg,
    );
    assert!(!outcome.is_degraded());
    let res = outcome.into_result();
    assert_eq!(faultable.invocations(), plain.invocations());
    assert_eq!(res.returned, plain_res.returned);
    assert_eq!(res.threshold.to_bits(), plain_res.threshold.to_bits());
    assert_eq!(
        json_sans_walltime(&res.telemetry),
        json_sans_walltime(&plain_res.telemetry)
    );
}

#[test]
fn fault_aware_limit_query_is_identical_to_classic_without_faults() {
    let p = proxy(400);
    let mut ranking: Vec<usize> = (0..p.len()).collect();
    ranking.sort_by(|&a, &b| tasti_query::desc_nan_last(p[a], p[b]));
    let plain = MeteredLabeler::new(FakeLabeler);
    let plain_res = limit_query_batch(
        &ranking,
        &mut |recs| {
            plain
                .label_batch(recs)
                .iter()
                .map(|o| value_of(o) == 3.0)
                .collect()
        },
        10,
        400,
        16,
    );
    let faultable = MeteredLabeler::new(FakeLabeler);
    let outcome = try_limit_query_batch(
        &ranking,
        &mut |recs| {
            Ok(fallible_outputs(&faultable, recs)?
                .iter()
                .map(|o| value_of(o) == 3.0)
                .collect())
        },
        10,
        400,
        16,
    );
    assert!(!outcome.is_degraded());
    let res = outcome.into_result();
    assert_eq!(faultable.invocations(), plain.invocations());
    assert_eq!(res.found, plain_res.found);
    assert_eq!(res.satisfied, plain_res.satisfied);
    assert_eq!(
        json_sans_walltime(&res.telemetry),
        json_sans_walltime(&plain_res.telemetry)
    );
}

#[test]
fn fault_aware_predicate_aggregate_is_identical_to_classic_without_faults() {
    let p = proxy(400);
    let cfg = PredicateAggConfig {
        budget: 150,
        seed: 7,
        ..Default::default()
    };
    let plain = MeteredLabeler::new(FakeLabeler);
    let plain_res = predicate_aggregate_batch(
        &p,
        &mut |recs| {
            plain
                .label_batch(recs)
                .iter()
                .map(|o| {
                    let v = value_of(o);
                    (v >= 2.0).then_some(v)
                })
                .collect()
        },
        &cfg,
    );
    let faultable = MeteredLabeler::new(FakeLabeler);
    let outcome = try_predicate_aggregate_batch(
        &p,
        &mut |recs| {
            Ok(fallible_outputs(&faultable, recs)?
                .iter()
                .map(|o| {
                    let v = value_of(o);
                    (v >= 2.0).then_some(v)
                })
                .collect())
        },
        &cfg,
    );
    assert!(!outcome.is_degraded());
    let res = outcome.into_result();
    assert_eq!(faultable.invocations(), plain.invocations());
    assert_eq!(res.estimate.to_bits(), plain_res.estimate.to_bits());
    assert_eq!(res.oracle_calls, plain_res.oracle_calls);
    assert_eq!(
        json_sans_walltime(&res.telemetry),
        json_sans_walltime(&plain_res.telemetry)
    );
}

#[test]
fn batched_paths_bill_distinct_records_once_through_the_meter() {
    // The batch front door's own accounting: duplicates inside one request
    // are cache hits, not extra invocations — matching what the sequential
    // loop would have billed.
    let m = MeteredLabeler::new(FakeLabeler);
    let outputs = m.label_batch(&[3, 1, 3, 2, 1, 3]);
    assert_eq!(outputs.len(), 6);
    assert_eq!(m.invocations(), 3);
    assert_eq!(m.cache_hits(), 3);
    assert_eq!(outputs[0], outputs[2]);
    assert_eq!(outputs[1], outputs[4]);
}

#[test]
fn warm_cache_makes_the_meter_the_authoritative_ledger() {
    // The algorithms see only an oracle closure, so their telemetry counts
    // distinct records *consulted* — on a cold cache (every test above)
    // that equals the meter delta exactly. On a warm cache the records are
    // already paid for: the meter delta drops to zero while the telemetry
    // still reports the consultation count. Cost accounting must therefore
    // read the meter, never sum telemetry across queries — the amortized
    // convention of Table 1.
    let m = MeteredLabeler::new(FakeLabeler);
    let p = proxy(200);
    let mut run = || tune_threshold(&p, &mut |r| value_of(&m.label(r)) >= 2.0, 80, 3);
    let first = run();
    assert_eq!(first.telemetry.invocations, 80);
    assert_eq!(m.invocations(), 80); // cold cache: ledgers agree
    let second = run();
    assert_eq!(second.telemetry.invocations, 80);
    assert_eq!(m.invocations(), 80); // warm cache: the meter did not move
}
