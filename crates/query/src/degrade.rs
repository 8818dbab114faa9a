//! Graceful degradation: fault-aware `try_*` entry points for every query
//! algorithm.
//!
//! The classic entry points take infallible oracle closures — appropriate
//! when the oracle is a replayed ground-truth cache, but a live target
//! labeler can fail mid-query. The `try_*` variants here accept a *fallible*
//! batch oracle (`FnMut(&[usize]) -> Result<Vec<T>, LabelerFault>`) and, on
//! the first unrecoverable fault, abandon the oracle-backed plan and return
//! a typed **degraded** answer instead of panicking:
//!
//! * the best proxy-only (or partial) result the algorithm can still
//!   construct,
//! * `certified: false` and `degraded: true` in the telemetry,
//! * the causing [`LabelerFault`], and
//! * how many labels completed before the fault.
//!
//! Implementation: each `try_*` wraps the fallible oracle in a gate that
//! feeds the *unmodified* infallible core. While the oracle succeeds the
//! gate is transparent — with fault injection disabled, `try_*` is
//! bit-identical and meter-identical to the classic entry point (asserted
//! in `tests/telemetry_audit.rs`). After the first fault the gate stops
//! calling the oracle and answers neutral values, letting the core run to
//! completion cheaply; the wrapper then rewrites the result into its
//! documented degraded form.

use crate::agg::{direct_aggregate, ebs_aggregate_batch, AggregationConfig, AggregationResult};
use crate::agg_pred::{predicate_aggregate_batch, PredicateAggConfig, PredicateAggResult};
use crate::limit::{limit_query_batch, LimitResult};
use crate::sanitize::sanitize_proxies;
use crate::supg::{
    supg_precision_target_batch, supg_recall_target_batch, SupgConfig, SupgPrecisionConfig,
    SupgPrecisionResult, SupgResult,
};
use tasti_labeler::LabelerFault;
use tasti_obs::QueryTelemetry;

/// How a fault-aware query ended.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome<R> {
    /// The oracle answered every request: `0` is exactly what the classic
    /// infallible entry point would have returned.
    Complete(R),
    /// The oracle faulted mid-query and the algorithm degraded.
    Degraded(DegradedResult<R>),
}

impl<R> QueryOutcome<R> {
    /// The result, complete or degraded.
    pub fn result(&self) -> &R {
        match self {
            QueryOutcome::Complete(r) => r,
            QueryOutcome::Degraded(d) => &d.result,
        }
    }

    /// Consumes the outcome, returning the result either way.
    pub fn into_result(self) -> R {
        match self {
            QueryOutcome::Complete(r) => r,
            QueryOutcome::Degraded(d) => d.result,
        }
    }

    /// True when the oracle faulted and the result is degraded.
    pub fn is_degraded(&self) -> bool {
        matches!(self, QueryOutcome::Degraded(_))
    }

    /// The causing fault, when degraded.
    pub fn fault(&self) -> Option<&LabelerFault> {
        match self {
            QueryOutcome::Complete(_) => None,
            QueryOutcome::Degraded(d) => Some(&d.fault),
        }
    }
}

/// A typed partial answer: the algorithm's degraded result plus the fault
/// that caused the degradation.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedResult<R> {
    /// The degraded result. Its telemetry carries `certified: false`,
    /// `degraded: true`, `oracle_faults ≥ 1`, and `invocations` equal to
    /// [`labels_completed`](Self::labels_completed).
    pub result: R,
    /// The unrecoverable fault that stopped oracle-backed execution.
    pub fault: LabelerFault,
    /// Labels the oracle successfully returned before the fault (counting
    /// cache hits a metered front door may have served).
    pub labels_completed: u64,
}

/// Gates a fallible batch oracle for an infallible core: transparent until
/// the first fault, then answers `neutral` without touching the oracle.
struct FaultGate<'a, T> {
    oracle: &'a mut dyn FnMut(&[usize]) -> Result<Vec<T>, LabelerFault>,
    neutral: T,
    fault: Option<LabelerFault>,
    labels_completed: u64,
}

impl<'a, T: Clone> FaultGate<'a, T> {
    fn new(
        oracle: &'a mut dyn FnMut(&[usize]) -> Result<Vec<T>, LabelerFault>,
        neutral: T,
    ) -> Self {
        Self {
            oracle,
            neutral,
            fault: None,
            labels_completed: 0,
        }
    }

    fn call(&mut self, records: &[usize]) -> Vec<T> {
        if self.fault.is_none() {
            match (self.oracle)(records) {
                Ok(outs) => {
                    self.labels_completed += outs.len() as u64;
                    return outs;
                }
                Err(fault) => self.fault = Some(fault),
            }
        }
        vec![self.neutral.clone(); records.len()]
    }
}

/// Applies the shared degraded-telemetry contract.
fn mark_degraded(telemetry: &mut QueryTelemetry, labels_completed: u64) {
    telemetry.certified = false;
    telemetry.degraded = true;
    telemetry.oracle_faults = 1;
    // Post-fault neutral fills never reached the oracle; report what the
    // oracle actually answered.
    telemetry.invocations = labels_completed;
}

/// Fault-aware [`ebs_aggregate_batch`]: on an unrecoverable oracle fault,
/// degrades to the proxy-only mean ([`direct_aggregate`] over the sanitized
/// scores) with an infinite confidence interval.
pub fn try_ebs_aggregate_batch(
    proxy: &[f64],
    batch_oracle: &mut dyn FnMut(&[usize]) -> Result<Vec<f64>, LabelerFault>,
    config: &AggregationConfig,
) -> QueryOutcome<AggregationResult> {
    let mut gate = FaultGate::new(batch_oracle, 0.0);
    let mut result = ebs_aggregate_batch(proxy, &mut |records| gate.call(records), config);
    match gate.fault {
        None => QueryOutcome::Complete(result),
        Some(fault) => {
            result.estimate = direct_aggregate(&sanitize_proxies(proxy).scores);
            result.ci_half_width = f64::INFINITY;
            result.exhausted = false;
            mark_degraded(&mut result.telemetry, gate.labels_completed);
            result.samples = result.telemetry.invocations;
            QueryOutcome::Degraded(DegradedResult {
                result,
                fault,
                labels_completed: gate.labels_completed,
            })
        }
    }
}

/// Fault-aware [`supg_recall_target_batch`]: on an unrecoverable oracle
/// fault, degrades to the conservative return-everything answer (τ = 0) —
/// trivially meeting any recall target, at the worst possible precision.
pub fn try_supg_recall_target_batch(
    proxy: &[f64],
    batch_oracle: &mut dyn FnMut(&[usize]) -> Result<Vec<bool>, LabelerFault>,
    config: &SupgConfig,
) -> QueryOutcome<SupgResult> {
    let mut gate = FaultGate::new(batch_oracle, false);
    let mut result = supg_recall_target_batch(proxy, &mut |records| gate.call(records), config);
    match gate.fault {
        None => QueryOutcome::Complete(result),
        Some(fault) => {
            result.returned = (0..proxy.len()).collect();
            result.threshold = 0.0;
            // Returning everything has true recall 1 by construction; no
            // statistical estimate is implied (the answer is uncertified).
            result.estimated_recall = 1.0;
            mark_degraded(&mut result.telemetry, gate.labels_completed);
            result.oracle_calls = result.telemetry.invocations;
            QueryOutcome::Degraded(DegradedResult {
                result,
                fault,
                labels_completed: gate.labels_completed,
            })
        }
    }
}

/// Fault-aware [`supg_precision_target_batch`]: on an unrecoverable oracle
/// fault, degrades to the conservative empty returned set — trivially
/// meeting any precision target, at recall 0.
pub fn try_supg_precision_target_batch(
    proxy: &[f64],
    batch_oracle: &mut dyn FnMut(&[usize]) -> Result<Vec<bool>, LabelerFault>,
    config: &SupgPrecisionConfig,
) -> QueryOutcome<SupgPrecisionResult> {
    let mut gate = FaultGate::new(batch_oracle, false);
    let mut result = supg_precision_target_batch(proxy, &mut |records| gate.call(records), config);
    match gate.fault {
        None => QueryOutcome::Complete(result),
        Some(fault) => {
            result.returned = Vec::new();
            // Mirrors the core's no-threshold fallback: a threshold just
            // above the maximal proxy score returns nothing.
            result.threshold = 1.0 + 1e-9;
            // An empty set has no precision to estimate.
            result.estimated_precision = f64::NAN;
            mark_degraded(&mut result.telemetry, gate.labels_completed);
            result.oracle_calls = result.telemetry.invocations;
            QueryOutcome::Degraded(DegradedResult {
                result,
                fault,
                labels_completed: gate.labels_completed,
            })
        }
    }
}

/// Fault-aware [`limit_query_batch`]: on an unrecoverable oracle fault, the
/// partial answer keeps every match the oracle *confirmed* before the fault
/// (records probed after it are not classified, so matches among them may be
/// missing) and is reported unsatisfied and uncertified.
pub fn try_limit_query_batch(
    ranking: &[usize],
    batch_oracle: &mut dyn FnMut(&[usize]) -> Result<Vec<bool>, LabelerFault>,
    k_matches: usize,
    max_scan: usize,
    probe_batch: usize,
) -> QueryOutcome<LimitResult> {
    let mut gate = FaultGate::new(batch_oracle, false);
    let mut result = limit_query_batch(
        ranking,
        &mut |records| gate.call(records),
        k_matches,
        max_scan,
        probe_batch,
    );
    match gate.fault {
        None => QueryOutcome::Complete(result),
        Some(fault) => {
            // Even if k matches were confirmed before the fault, records in
            // the faulted batch went unclassified, so the scan-order
            // contract is broken: never report the limit as satisfied.
            result.satisfied = false;
            mark_degraded(&mut result.telemetry, gate.labels_completed);
            result.invocations = result.telemetry.invocations;
            QueryOutcome::Degraded(DegradedResult {
                result,
                fault,
                labels_completed: gate.labels_completed,
            })
        }
    }
}

/// Fault-aware [`predicate_aggregate_batch`]: on an unrecoverable oracle
/// fault, the estimate is recomputed from only the samples labeled before
/// the fault (post-fault draws are discarded, not counted as non-matches)
/// and reported uncertified.
pub fn try_predicate_aggregate_batch(
    pred_proxy: &[f64],
    batch_oracle: &mut dyn FnMut(&[usize]) -> Result<Vec<Option<f64>>, LabelerFault>,
    config: &PredicateAggConfig,
) -> QueryOutcome<PredicateAggResult> {
    let mut gate = FaultGate::new(batch_oracle, None);
    let mut result =
        predicate_aggregate_batch(pred_proxy, &mut |records| gate.call(records), config);
    match gate.fault {
        None => QueryOutcome::Complete(result),
        Some(fault) => {
            // The core already treats `None` draws as non-matches, so its
            // estimate over the pre-fault matches is the best partial
            // answer; only the certainty claims must be withdrawn.
            result.ci_half_width = f64::INFINITY;
            mark_degraded(&mut result.telemetry, gate.labels_completed);
            result.oracle_calls = result.telemetry.invocations;
            QueryOutcome::Degraded(DegradedResult {
                result,
                fault,
                labels_completed: gate.labels_completed,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::ebs_aggregate_batch as ebs_plain;
    use crate::limit::limit_query_batch as limit_plain;
    use crate::supg::supg_recall_target_batch as supg_plain;

    fn proxies(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i % 10) as f64 / 10.0).collect()
    }

    /// Fails every oracle call once `labeled >= fail_after`.
    fn failing_oracle<T: Clone>(
        truth: impl Fn(usize) -> T + 'static,
        fail_after: u64,
    ) -> impl FnMut(&[usize]) -> Result<Vec<T>, LabelerFault> {
        let mut labeled = 0u64;
        move |records: &[usize]| {
            if labeled >= fail_after {
                return Err(LabelerFault::Fatal("oracle down".into()));
            }
            labeled += records.len() as u64;
            Ok(records.iter().map(|&r| truth(r)).collect())
        }
    }

    #[test]
    fn fault_free_try_ebs_matches_the_classic_entry_point() {
        let proxy = proxies(400);
        let cfg = AggregationConfig::default();
        let plain = ebs_plain(
            &proxy,
            &mut |rs| rs.iter().map(|&r| (r % 7) as f64).collect(),
            &cfg,
        );
        let outcome = try_ebs_aggregate_batch(
            &proxy,
            &mut |rs| Ok(rs.iter().map(|&r| (r % 7) as f64).collect()),
            &cfg,
        );
        assert!(!outcome.is_degraded());
        let tried = outcome.into_result();
        assert_eq!(tried.estimate.to_bits(), plain.estimate.to_bits());
        assert_eq!(tried.samples, plain.samples);
        assert_eq!(tried.telemetry.invocations, plain.telemetry.invocations);
        assert!(!tried.telemetry.degraded);
        assert_eq!(tried.telemetry.oracle_faults, 0);
    }

    #[test]
    fn faulted_ebs_degrades_to_the_proxy_mean() {
        let proxy = proxies(400);
        let cfg = AggregationConfig::default();
        let outcome =
            try_ebs_aggregate_batch(&proxy, &mut failing_oracle(|r| (r % 7) as f64, 32), &cfg);
        let QueryOutcome::Degraded(d) = outcome else {
            panic!("expected degraded outcome");
        };
        assert_eq!(d.fault, LabelerFault::Fatal("oracle down".into()));
        assert!(d.labels_completed >= 32);
        assert_eq!(
            d.result.estimate.to_bits(),
            direct_aggregate(&proxy).to_bits()
        );
        assert!(d.result.ci_half_width.is_infinite());
        assert!(!d.result.telemetry.certified);
        assert!(d.result.telemetry.degraded);
        assert_eq!(d.result.telemetry.oracle_faults, 1);
        assert_eq!(d.result.telemetry.invocations, d.labels_completed);
        assert_eq!(d.result.samples, d.labels_completed);
    }

    #[test]
    fn fault_free_try_supg_matches_the_classic_entry_point() {
        let proxy = proxies(300);
        let cfg = SupgConfig {
            budget: 80,
            ..SupgConfig::default()
        };
        let plain = supg_plain(
            &proxy,
            &mut |rs| rs.iter().map(|&r| r % 3 == 0).collect(),
            &cfg,
        );
        let outcome = try_supg_recall_target_batch(
            &proxy,
            &mut |rs| Ok(rs.iter().map(|&r| r % 3 == 0).collect()),
            &cfg,
        );
        assert!(!outcome.is_degraded());
        let tried = outcome.into_result();
        assert_eq!(tried.returned, plain.returned);
        assert_eq!(tried.threshold.to_bits(), plain.threshold.to_bits());
        assert_eq!(tried.oracle_calls, plain.oracle_calls);
    }

    #[test]
    fn faulted_supg_recall_returns_everything() {
        let proxy = proxies(300);
        let cfg = SupgConfig {
            budget: 80,
            ..SupgConfig::default()
        };
        // SUPG labels its whole sample in one oracle call, so the fault
        // must hit the first call.
        let outcome =
            try_supg_recall_target_batch(&proxy, &mut failing_oracle(|r| r % 3 == 0, 0), &cfg);
        let QueryOutcome::Degraded(d) = outcome else {
            panic!("expected degraded outcome");
        };
        assert_eq!(d.labels_completed, 0);
        assert_eq!(d.result.returned.len(), proxy.len());
        assert_eq!(d.result.threshold, 0.0);
        assert_eq!(d.result.estimated_recall, 1.0);
        assert!(!d.result.telemetry.certified);
        assert!(d.result.telemetry.degraded);
    }

    #[test]
    fn faulted_supg_precision_returns_nothing() {
        let proxy = proxies(300);
        let cfg = SupgPrecisionConfig {
            budget: 80,
            ..SupgPrecisionConfig::default()
        };
        let outcome =
            try_supg_precision_target_batch(&proxy, &mut failing_oracle(|r| r % 3 == 0, 0), &cfg);
        let QueryOutcome::Degraded(d) = outcome else {
            panic!("expected degraded outcome");
        };
        assert!(d.result.returned.is_empty());
        assert!(d.result.estimated_precision.is_nan());
        assert!(!d.result.telemetry.certified);
    }

    #[test]
    fn faulted_limit_keeps_confirmed_matches_and_is_never_satisfied() {
        let ranking: Vec<usize> = (0..100).collect();
        // Every record matches; fault after 10 labels — well before the 50
        // requested matches.
        let outcome =
            try_limit_query_batch(&ranking, &mut failing_oracle(|_| true, 10), 50, 100, 5);
        let QueryOutcome::Degraded(d) = outcome else {
            panic!("expected degraded outcome");
        };
        assert_eq!(d.labels_completed, 10);
        assert_eq!(d.result.found, (0..10).collect::<Vec<_>>());
        assert!(!d.result.satisfied);
        assert!(!d.result.telemetry.certified);
        assert_eq!(d.result.invocations, 10);
    }

    #[test]
    fn fault_free_try_limit_matches_the_classic_entry_point() {
        let ranking: Vec<usize> = (0..60).collect();
        let plain = limit_plain(
            &ranking,
            &mut |rs| rs.iter().map(|&r| r % 4 == 1).collect(),
            5,
            60,
            8,
        );
        let outcome = try_limit_query_batch(
            &ranking,
            &mut |rs| Ok(rs.iter().map(|&r| r % 4 == 1).collect()),
            5,
            60,
            8,
        );
        assert!(!outcome.is_degraded());
        let tried = outcome.into_result();
        assert_eq!(tried.found, plain.found);
        assert_eq!(tried.satisfied, plain.satisfied);
        assert_eq!(tried.invocations, plain.invocations);
    }

    #[test]
    fn faulted_predicate_aggregate_is_uncertified_with_partial_estimate() {
        let proxy = proxies(300);
        let cfg = PredicateAggConfig {
            budget: 60,
            ..PredicateAggConfig::default()
        };
        // Predicate aggregation labels its whole sample in one oracle call,
        // so the fault must hit the first call: nothing was labeled.
        let outcome = try_predicate_aggregate_batch(
            &proxy,
            &mut failing_oracle(|r| Some((r % 5) as f64), 0),
            &cfg,
        );
        let QueryOutcome::Degraded(d) = outcome else {
            panic!("expected degraded outcome");
        };
        assert_eq!(d.labels_completed, 0);
        assert!(d.result.ci_half_width.is_infinite());
        assert!(!d.result.telemetry.certified);
        assert!(d.result.telemetry.degraded);
        assert_eq!(d.result.oracle_calls, 0);
        assert_eq!(d.result.matches_sampled, 0);
        assert!(d.result.estimate.is_nan());
    }

    #[test]
    fn a_record_faulting_mid_batch_degrades_too() {
        let proxy = proxies(200);
        let mut labeled = 0u64;
        let mut label_one = |r: usize| {
            if labeled >= 5 {
                return Err(LabelerFault::Transient("blip".into()));
            }
            labeled += 1;
            Ok((r % 7) as f64)
        };
        let outcome = try_ebs_aggregate_batch(
            &proxy,
            &mut |records| records.iter().map(|&r| label_one(r)).collect(),
            &AggregationConfig::default(),
        );
        assert!(outcome.is_degraded());
        assert_eq!(
            outcome.fault(),
            Some(&LabelerFault::Transient("blip".into()))
        );
    }

    #[test]
    fn outcome_accessors_work() {
        let c: QueryOutcome<u32> = QueryOutcome::Complete(7);
        assert_eq!(*c.result(), 7);
        assert!(!c.is_degraded());
        assert!(c.fault().is_none());
        let d = QueryOutcome::Degraded(DegradedResult {
            result: 9u32,
            fault: LabelerFault::Timeout("slow".into()),
            labels_completed: 3,
        });
        assert_eq!(*d.result(), 9);
        assert!(d.is_degraded());
        assert_eq!(d.into_result(), 9);
    }
}
