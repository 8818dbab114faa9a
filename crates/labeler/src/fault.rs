//! The fault model for the oracle path.
//!
//! The paper's target labelers (Mask R-CNN on a V100, crowd workers) are
//! remote, expensive services — in production they time out, return
//! transient errors, or emit garbage. This module makes oracle failure a
//! typed, injectable condition:
//!
//! * [`LabelerFault`] — the fault taxonomy every layer above speaks:
//!   `Transient` and `Timeout` are retryable, `Corrupt` (a structurally
//!   invalid output caught at the labeler boundary) and `Fatal` are not.
//! * [`FallibleTargetLabeler`] — the fallible front door. A blanket impl
//!   makes every infallible [`BatchTargetLabeler`] fallible-for-free, with
//!   [`validate_output`] guarding the boundary: NaN/∞ box coordinates and
//!   out-of-range values surface as `Corrupt` instead of flowing into
//!   scoring functions.
//! * [`FaultInjectingLabeler`] — deterministic chaos: seeded per-kind fault
//!   probabilities and scripted fault schedules, so failure-path tests are
//!   reproducible.
//! * [`OracleHealth`] — the health snapshot a resilient labeler (see
//!   [`crate::resilient`]) reports: circuit-breaker state, per-kind fault
//!   counters, retry totals, and the backoff-delay histogram.

use crate::cost::LabelCost;
use crate::labeler::{BatchTargetLabeler, TargetLabeler};
use crate::output::LabelerOutput;
use crate::schema::Schema;
use crate::RecordId;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;
use tasti_obs::HistogramSummary;

/// A typed oracle failure.
///
/// The variant is the recovery contract: `Transient` and `Timeout` are worth
/// retrying (the next attempt may succeed), `Corrupt` is not (labelers are
/// pure, so a structurally invalid output recurs deterministically), and
/// `Fatal` means the oracle is gone for good.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelerFault {
    /// A transient error (connection reset, 5xx, worker restart). Retryable.
    Transient(String),
    /// The call exceeded its deadline. Retryable.
    Timeout(String),
    /// The oracle answered with a structurally invalid output (non-finite or
    /// out-of-range fields). Not retryable: labelers are pure, so the same
    /// record yields the same garbage.
    Corrupt(String),
    /// An unrecoverable failure (auth revoked, model unloaded). Not
    /// retryable.
    Fatal(String),
}

impl LabelerFault {
    /// The fault's kind, for counters and scripted injection.
    pub fn kind(&self) -> FaultKind {
        match self {
            LabelerFault::Transient(_) => FaultKind::Transient,
            LabelerFault::Timeout(_) => FaultKind::Timeout,
            LabelerFault::Corrupt(_) => FaultKind::Corrupt,
            LabelerFault::Fatal(_) => FaultKind::Fatal,
        }
    }

    /// Stable wire/report name of the fault kind.
    pub fn kind_name(&self) -> &'static str {
        self.kind().name()
    }

    /// Whether a retry can plausibly succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, LabelerFault::Transient(_) | LabelerFault::Timeout(_))
    }

    /// The human-readable detail message.
    pub fn message(&self) -> &str {
        match self {
            LabelerFault::Transient(m)
            | LabelerFault::Timeout(m)
            | LabelerFault::Corrupt(m)
            | LabelerFault::Fatal(m) => m,
        }
    }
}

impl fmt::Display for LabelerFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} oracle fault: {}", self.kind_name(), self.message())
    }
}

impl std::error::Error for LabelerFault {}

/// The four fault kinds, as a plain enum for counters and scripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// See [`LabelerFault::Transient`].
    Transient,
    /// See [`LabelerFault::Timeout`].
    Timeout,
    /// See [`LabelerFault::Corrupt`].
    Corrupt,
    /// See [`LabelerFault::Fatal`].
    Fatal,
}

impl FaultKind {
    /// All kinds, in counter-index order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Transient,
        FaultKind::Timeout,
        FaultKind::Corrupt,
        FaultKind::Fatal,
    ];

    /// Stable wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Timeout => "timeout",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Fatal => "fatal",
        }
    }

    /// Index into per-kind counter arrays ([`FaultKind::ALL`] order).
    pub fn index(self) -> usize {
        match self {
            FaultKind::Transient => 0,
            FaultKind::Timeout => 1,
            FaultKind::Corrupt => 2,
            FaultKind::Fatal => 3,
        }
    }

    /// Builds the corresponding [`LabelerFault`] with `message`.
    pub fn fault(self, message: impl Into<String>) -> LabelerFault {
        let message = message.into();
        match self {
            FaultKind::Transient => LabelerFault::Transient(message),
            FaultKind::Timeout => LabelerFault::Timeout(message),
            FaultKind::Corrupt => LabelerFault::Corrupt(message),
            FaultKind::Fatal => LabelerFault::Fatal(message),
        }
    }
}

/// Circuit-breaker state, as reported by [`OracleHealth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally.
    Closed,
    /// Calls fail fast; [`OracleHealth::retry_after_micros`] says when the
    /// next probe is allowed.
    Open,
    /// One probe call is allowed through; its outcome closes or re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Stable wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Health snapshot of a resilient oracle path (see
/// [`FallibleTargetLabeler::health`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OracleHealth {
    /// Current circuit-breaker state.
    pub breaker: BreakerState,
    /// Microseconds until an open breaker admits its half-open probe
    /// (`None` unless the breaker is open).
    pub retry_after_micros: Option<u64>,
    /// Consecutive faults since the last success.
    pub consecutive_faults: u32,
    /// Faults observed, by kind ([`FaultKind::ALL`] order). Counts every
    /// failed attempt, including ones a later retry recovered.
    pub faults_by_kind: [u64; 4],
    /// Retry attempts performed (each preceded by a backoff sleep).
    pub retries: u64,
    /// Times the breaker tripped open.
    pub breaker_opens: u64,
    /// Total breaker state transitions (open, half-open, close).
    pub breaker_transitions: u64,
    /// Distribution of backoff delays slept, in microseconds.
    pub backoff: HistogramSummary,
}

impl OracleHealth {
    /// Total faults across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.faults_by_kind.iter().sum()
    }

    /// Faults of one kind.
    pub fn faults(&self, kind: FaultKind) -> u64 {
        self.faults_by_kind[kind.index()]
    }
}

/// An oracle whose calls can fail with a typed [`LabelerFault`].
///
/// This is the trait the metered front door
/// ([`crate::MeteredLabeler::try_label_batch_fallible`]) and the serving
/// stack are generic over. Every infallible [`BatchTargetLabeler`] gets a
/// blanket impl (validated by [`validate_output`], so corrupt outputs
/// surface as [`LabelerFault::Corrupt`] at the boundary); middleware like
/// [`FaultInjectingLabeler`] and [`crate::ResilientLabeler`] implement it
/// directly.
pub trait FallibleTargetLabeler: Send + Sync {
    /// Produces the structured output for `record`, or a typed fault.
    fn try_label(&self, record: RecordId) -> Result<LabelerOutput, LabelerFault>;

    /// Produces the structured outputs for `records` in one inner
    /// invocation, or a typed fault for the whole batch.
    fn try_label_batch(&self, records: &[RecordId]) -> Result<Vec<LabelerOutput>, LabelerFault> {
        records.iter().map(|&r| self.try_label(r)).collect()
    }

    /// Cost of one invocation.
    fn invocation_cost(&self) -> LabelCost;

    /// The induced schema (§2.1).
    fn schema(&self) -> Schema;

    /// Human-readable name for reports.
    fn name(&self) -> &str;

    /// Health of the oracle path, when this labeler tracks it (resilience
    /// middleware does; plain labelers report `None`).
    fn health(&self) -> Option<OracleHealth> {
        None
    }

    /// Offers a replacement backoff timer to resilience middleware in the
    /// stack (see [`crate::RetryTimer`]): an evented serving core calls
    /// this to turn `thread::sleep` backoff into a wait its drain can cut
    /// short. Returns whether any layer installed it; plain labelers
    /// ignore the offer.
    fn install_retry_timer(&self, timer: &std::sync::Arc<dyn crate::RetryTimer>) -> bool {
        let _ = timer;
        false
    }
}

/// Validates a labeler output at the boundary: detection boxes must have
/// finite, in-range (`[0, 1]` normalized) coordinates and extents. Returns
/// [`LabelerFault::Corrupt`] naming the offending field otherwise.
///
/// SQL and speech outputs are closed enums plus small integers — every
/// representable value is valid, so they always pass.
pub fn validate_output(out: &LabelerOutput) -> Result<(), LabelerFault> {
    if let LabelerOutput::Detections(boxes) = out {
        for (i, b) in boxes.iter().enumerate() {
            for (field, v) in [("x", b.x), ("y", b.y), ("w", b.w), ("h", b.h)] {
                if !v.is_finite() {
                    return Err(LabelerFault::Corrupt(format!(
                        "detection {i}: non-finite box {field} = {v}"
                    )));
                }
                if !(0.0..=1.0).contains(&v) {
                    return Err(LabelerFault::Corrupt(format!(
                        "detection {i}: box {field} = {v} outside normalized [0, 1]"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Every infallible batch labeler is fallible-for-free: the only fault the
/// blanket impl can produce is [`LabelerFault::Corrupt`], from
/// [`validate_output`] rejecting a structurally invalid output at the
/// boundary.
impl<L: BatchTargetLabeler> FallibleTargetLabeler for L {
    fn try_label(&self, record: RecordId) -> Result<LabelerOutput, LabelerFault> {
        let out = TargetLabeler::label(self, record);
        validate_output(&out)?;
        Ok(out)
    }

    fn try_label_batch(&self, records: &[RecordId]) -> Result<Vec<LabelerOutput>, LabelerFault> {
        let outs = BatchTargetLabeler::label_batch(self, records);
        for out in &outs {
            validate_output(out)?;
        }
        Ok(outs)
    }

    fn invocation_cost(&self) -> LabelCost {
        TargetLabeler::invocation_cost(self)
    }

    fn schema(&self) -> Schema {
        TargetLabeler::schema(self)
    }

    fn name(&self) -> &str {
        TargetLabeler::name(self)
    }
}

/// SplitMix64: a tiny, high-quality, dependency-free PRNG (the labeler crate
/// deliberately has no `rand` dependency). Used for fault sampling and
/// backoff jitter — never for anything statistical.
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi)`; `lo` when the range is empty.
    pub(crate) fn uniform(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo)
    }
}

/// Per-kind fault probabilities for [`FaultInjectingLabeler`]. All rates
/// are per *inner call* (a whole batch is one call) and are evaluated in
/// [`FaultKind::ALL`] order against a single uniform draw, so their sum
/// must stay ≤ 1.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// RNG seed; the injected fault sequence is a pure function of the seed
    /// and the inner-call index.
    pub seed: u64,
    /// Probability of a transient fault.
    pub transient_rate: f64,
    /// Probability of a timeout fault.
    pub timeout_rate: f64,
    /// Probability of a corrupt-output fault.
    pub corrupt_rate: f64,
    /// Probability of a fatal fault.
    pub fatal_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            transient_rate: 0.0,
            timeout_rate: 0.0,
            corrupt_rate: 0.0,
            fatal_rate: 0.0,
        }
    }
}

impl FaultPlan {
    /// A plan injecting only transient faults at `rate`.
    pub fn transient(rate: f64, seed: u64) -> Self {
        Self {
            seed,
            transient_rate: rate,
            ..Self::default()
        }
    }
}

struct InjectorState {
    rng: SplitMix64,
    /// Scripted outcomes consumed before probabilistic sampling kicks in:
    /// `Some(kind)` injects that fault, `None` passes the call through.
    script: VecDeque<Option<FaultKind>>,
    inner_calls: u64,
    injected: [u64; 4],
}

/// Deterministic chaos middleware: wraps an infallible labeler and injects
/// typed faults per [`FaultPlan`] probabilities and/or a scripted schedule.
///
/// Implements [`FallibleTargetLabeler`] (not [`BatchTargetLabeler`] — a
/// fault-injecting oracle is fallible by construction). Injection decisions
/// are made per inner call: a batch either faults as a whole or passes
/// through untouched, which is how a remote batch DNN fails.
pub struct FaultInjectingLabeler<L> {
    inner: L,
    plan: FaultPlan,
    name: String,
    state: Mutex<InjectorState>,
}

impl<L: BatchTargetLabeler> FaultInjectingLabeler<L> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: L, plan: FaultPlan) -> Self {
        let name = format!("faulty({})", TargetLabeler::name(&inner));
        let rate_sum =
            plan.transient_rate + plan.timeout_rate + plan.corrupt_rate + plan.fatal_rate;
        assert!(
            (0.0..=1.0).contains(&rate_sum),
            "fault rates must sum to at most 1, got {rate_sum}"
        );
        Self {
            inner,
            state: Mutex::new(InjectorState {
                rng: SplitMix64::new(plan.seed),
                script: VecDeque::new(),
                inner_calls: 0,
                injected: [0; 4],
            }),
            plan,
            name,
        }
    }

    /// Wraps `inner` with a scripted fault schedule (consumed one entry per
    /// inner call; after the script runs dry, `plan` rates apply).
    pub fn with_script(
        inner: L,
        plan: FaultPlan,
        script: impl IntoIterator<Item = Option<FaultKind>>,
    ) -> Self {
        let this = Self::new(inner, plan);
        this.lock().script.extend(script);
        this
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InjectorState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends entries to the scripted schedule at runtime.
    pub fn push_script(&self, entries: impl IntoIterator<Item = Option<FaultKind>>) {
        self.lock().script.extend(entries);
    }

    /// Inner calls attempted so far (faulted or not).
    pub fn inner_calls(&self) -> u64 {
        self.lock().inner_calls
    }

    /// Faults injected so far, by kind ([`FaultKind::ALL`] order).
    pub fn injected_by_kind(&self) -> [u64; 4] {
        self.lock().injected
    }

    /// Total faults injected so far.
    pub fn injected_faults(&self) -> u64 {
        self.lock().injected.iter().sum()
    }

    /// Access to the wrapped labeler.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Decides the outcome of one inner call: a fault to inject, or `None`
    /// to pass it through.
    fn decide(&self) -> Option<LabelerFault> {
        let mut st = self.lock();
        st.inner_calls += 1;
        let call = st.inner_calls;
        if let Some(entry) = st.script.pop_front() {
            let kind = entry?;
            st.injected[kind.index()] += 1;
            return Some(kind.fault(format!(
                "scripted {} fault at inner call {call}",
                kind.name()
            )));
        }
        let x = st.rng.next_f64();
        let mut edge = 0.0;
        for (kind, rate) in [
            (FaultKind::Transient, self.plan.transient_rate),
            (FaultKind::Timeout, self.plan.timeout_rate),
            (FaultKind::Corrupt, self.plan.corrupt_rate),
            (FaultKind::Fatal, self.plan.fatal_rate),
        ] {
            edge += rate;
            if rate > 0.0 && x < edge {
                st.injected[kind.index()] += 1;
                return Some(kind.fault(format!(
                    "injected {} fault at inner call {call}",
                    kind.name()
                )));
            }
        }
        None
    }
}

impl<L: BatchTargetLabeler> FallibleTargetLabeler for FaultInjectingLabeler<L> {
    fn try_label(&self, record: RecordId) -> Result<LabelerOutput, LabelerFault> {
        if let Some(fault) = self.decide() {
            return Err(fault);
        }
        FallibleTargetLabeler::try_label(&self.inner, record)
    }

    fn try_label_batch(&self, records: &[RecordId]) -> Result<Vec<LabelerOutput>, LabelerFault> {
        if let Some(fault) = self.decide() {
            return Err(fault);
        }
        FallibleTargetLabeler::try_label_batch(&self.inner, records)
    }

    fn invocation_cost(&self) -> LabelCost {
        TargetLabeler::invocation_cost(&self.inner)
    }

    fn schema(&self) -> Schema {
        TargetLabeler::schema(&self.inner)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{Detection, ObjectClass, SqlAnnotation, SqlOp};

    struct Fake;
    impl TargetLabeler for Fake {
        fn label(&self, record: RecordId) -> LabelerOutput {
            LabelerOutput::Sql(SqlAnnotation {
                op: SqlOp::Select,
                num_predicates: (record % 4) as u8,
            })
        }
        fn invocation_cost(&self) -> LabelCost {
            LabelCost {
                seconds: 1.0,
                dollars: 0.07,
            }
        }
        fn schema(&self) -> Schema {
            Schema::wikisql()
        }
        fn name(&self) -> &str {
            "fake"
        }
    }
    impl BatchTargetLabeler for Fake {}

    fn det(x: f32, y: f32, w: f32, h: f32) -> Detection {
        Detection {
            class: ObjectClass::Car,
            x,
            y,
            w,
            h,
        }
    }

    #[test]
    fn retryability_follows_the_taxonomy() {
        assert!(LabelerFault::Transient("x".into()).is_retryable());
        assert!(LabelerFault::Timeout("x".into()).is_retryable());
        assert!(!LabelerFault::Corrupt("x".into()).is_retryable());
        assert!(!LabelerFault::Fatal("x".into()).is_retryable());
    }

    #[test]
    fn kind_names_and_indices_are_stable() {
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(kind.fault("m").kind(), *kind);
            assert_eq!(kind.fault("m").kind_name(), kind.name());
        }
        assert_eq!(
            LabelerFault::Timeout("deadline".into()).to_string(),
            "timeout oracle fault: deadline"
        );
    }

    #[test]
    fn blanket_impl_makes_infallible_labelers_fallible_for_free() {
        let out = FallibleTargetLabeler::try_label(&Fake, 6).unwrap();
        assert_eq!(out, TargetLabeler::label(&Fake, 6));
        let outs = FallibleTargetLabeler::try_label_batch(&Fake, &[1, 2, 3]).unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(FallibleTargetLabeler::name(&Fake), "fake");
        assert!(FallibleTargetLabeler::health(&Fake).is_none());
    }

    #[test]
    fn validate_output_accepts_well_formed_outputs() {
        assert!(validate_output(&Fake.label(3)).is_ok());
        assert!(validate_output(&LabelerOutput::Detections(vec![det(0.5, 0.5, 0.1, 0.1)])).is_ok());
        assert!(validate_output(&LabelerOutput::Detections(vec![])).is_ok());
        // Boundary values are legal.
        assert!(validate_output(&LabelerOutput::Detections(vec![det(0.0, 1.0, 0.0, 1.0)])).is_ok());
    }

    #[test]
    fn validate_output_rejects_non_finite_and_out_of_range_boxes() {
        for bad in [
            det(f32::NAN, 0.5, 0.1, 0.1),
            det(0.5, f32::INFINITY, 0.1, 0.1),
            det(0.5, 0.5, f32::NEG_INFINITY, 0.1),
            det(1.5, 0.5, 0.1, 0.1),
            det(0.5, -0.1, 0.1, 0.1),
            det(0.5, 0.5, 0.1, 2.0),
        ] {
            let err = validate_output(&LabelerOutput::Detections(vec![bad])).unwrap_err();
            assert_eq!(err.kind(), FaultKind::Corrupt, "{err}");
        }
    }

    #[test]
    fn scripted_faults_fire_in_order_then_pass_through() {
        let inj = FaultInjectingLabeler::with_script(
            Fake,
            FaultPlan::default(),
            [Some(FaultKind::Transient), None, Some(FaultKind::Fatal)],
        );
        assert_eq!(inj.try_label(0).unwrap_err().kind(), FaultKind::Transient);
        assert!(inj.try_label(0).is_ok());
        assert_eq!(
            FallibleTargetLabeler::try_label_batch(&inj, &[1, 2])
                .unwrap_err()
                .kind(),
            FaultKind::Fatal
        );
        // Script exhausted, zero rates: everything passes.
        assert!(inj.try_label(3).is_ok());
        assert_eq!(inj.injected_faults(), 2);
        assert_eq!(inj.inner_calls(), 4);
        assert_eq!(inj.injected_by_kind(), [1, 0, 0, 1]);
    }

    #[test]
    fn fault_rates_are_deterministic_given_seed() {
        let run = || {
            let inj = FaultInjectingLabeler::new(Fake, FaultPlan::transient(0.5, 42));
            (0..64)
                .map(|r| inj.try_label(r).is_ok())
                .collect::<Vec<bool>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must inject the same fault sequence");
        let faults = a.iter().filter(|ok| !**ok).count();
        assert!(
            (10..=54).contains(&faults),
            "rate 0.5 over 64 calls injected {faults}"
        );
    }

    #[test]
    fn zero_rate_plan_never_faults_and_matches_inner_outputs() {
        let inj = FaultInjectingLabeler::new(Fake, FaultPlan::default());
        for r in 0..32 {
            assert_eq!(inj.try_label(r).unwrap(), Fake.label(r));
        }
        assert_eq!(inj.injected_faults(), 0);
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn overfull_fault_rates_panic() {
        let _ = FaultInjectingLabeler::new(
            Fake,
            FaultPlan {
                transient_rate: 0.7,
                fatal_rate: 0.7,
                ..FaultPlan::default()
            },
        );
    }
}
