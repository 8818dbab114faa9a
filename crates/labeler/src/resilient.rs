//! Retry/backoff and circuit-breaking middleware over a fallible oracle.
//!
//! [`ResilientLabeler`] sits between the metered front door and a fallible
//! oracle (typically `MeteredLabeler<ResilientLabeler<FaultInjecting­Labeler<…>>>`
//! in tests, or a real remote labeler in production):
//!
//! * **Bounded retries with decorrelated-jitter backoff** — each retryable
//!   fault sleeps `min(cap, uniform(base, 3·prev))` before the next attempt,
//!   the schedule AWS recommends for avoiding synchronized retry storms.
//! * **Per-call deadlines** — a retry loop gives up with
//!   [`LabelerFault::Timeout`] instead of sleeping past the deadline.
//! * **Circuit breaker** — after `failure_threshold` consecutive faults the
//!   breaker opens and calls fail fast (no oracle traffic, no sleeps); after
//!   `open_micros` one half-open probe is admitted, and its outcome closes
//!   or re-opens the breaker.
//!
//! Time is injected through the [`Clock`] trait so unit tests run instantly
//! on a [`TestClock`] — no wall-clock sleeps anywhere in the test suite.
//!
//! Retries happen *inside* one `MeteredLabeler` reservation, so the meter
//! never double-bills: a record is billed exactly once, when an attempt
//! finally commits; faulted attempts release their reservation through the
//! existing drop guard.

use crate::cost::LabelCost;
use crate::fault::{BreakerState, FallibleTargetLabeler, LabelerFault, OracleHealth, SplitMix64};
use crate::output::LabelerOutput;
use crate::schema::Schema;
use crate::RecordId;
use std::sync::{Arc, Mutex, MutexGuard};
use tasti_obs::Histogram;

/// Injected time source: lets retry/backoff logic run on virtual time in
/// tests (see [`TestClock`]) and on the wall clock in production
/// ([`SystemClock`]).
pub trait Clock: Send + Sync {
    /// Monotonic microseconds since an arbitrary origin.
    fn now_micros(&self) -> u64;

    /// Sleeps for `micros` (virtual clocks advance instead).
    fn sleep_micros(&self, micros: u64);

    /// Whether time only moves when someone calls [`Clock::sleep_micros`]
    /// (or an equivalent virtual advance). A [`RetryTimer`] that would
    /// otherwise park a real thread for the delay — e.g. a serving core's
    /// drain signal — uses this to fall back to a virtual sleep so tests
    /// stay instant.
    fn is_virtual(&self) -> bool {
        false
    }
}

/// Wall-clock [`Clock`] backed by [`std::time::Instant`].
pub struct SystemClock {
    origin: std::time::Instant,
}

impl SystemClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn sleep_micros(&self, micros: u64) {
        if micros > 0 {
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }
    }
}

/// Virtual [`Clock`] for tests: `sleep_micros` advances `now` instantly, so
/// backoff schedules are observable without real waiting.
#[derive(Default)]
pub struct TestClock {
    now: std::sync::atomic::AtomicU64,
}

impl TestClock {
    /// A virtual clock starting at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances virtual time by `micros` (e.g. to elapse a breaker's open
    /// window without any call sleeping).
    pub fn advance(&self, micros: u64) {
        self.now
            .fetch_add(micros, std::sync::atomic::Ordering::SeqCst);
    }
}

impl Clock for TestClock {
    fn now_micros(&self) -> u64 {
        self.now.load(std::sync::atomic::Ordering::SeqCst)
    }

    fn sleep_micros(&self, micros: u64) {
        self.advance(micros);
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

/// How a [`ResilientLabeler`] waits out one backoff delay — the seam that
/// gives the retry path an async face.
///
/// The default [`SleepTimer`] parks the calling thread on the injected
/// [`Clock`], which is the classic blocking behavior. An evented serving
/// core installs its own implementation (via
/// [`FallibleTargetLabeler::install_retry_timer`]) that parks each delay
/// on a condvar its drain notifies, so a graceful drain can cut a
/// multi-second backoff short instead of waiting it out.
///
/// Contract: `wait` returns no *later* than `micros` after it was called
/// (by `clock`'s reckoning), and may return early only when the process is
/// draining — an early retry attempt is always safe, a late one only slows
/// the caller.
pub trait RetryTimer: Send + Sync {
    /// Waits out one backoff delay of `micros`, measured on `clock`.
    fn wait(&self, clock: &dyn Clock, micros: u64);
}

/// The default [`RetryTimer`]: parks the thread via [`Clock::sleep_micros`]
/// (virtual clocks advance instantly).
#[derive(Debug, Default)]
pub struct SleepTimer;

impl RetryTimer for SleepTimer {
    fn wait(&self, clock: &dyn Clock, micros: u64) {
        clock.sleep_micros(micros);
    }
}

/// Retry schedule for [`ResilientLabeler`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Lower bound of every backoff delay, in microseconds.
    pub base_backoff_micros: u64,
    /// Upper cap on any single backoff delay, in microseconds.
    pub max_backoff_micros: u64,
    /// Per-call deadline: the retry loop gives up with
    /// [`LabelerFault::Timeout`] rather than sleep past it. `None` = no
    /// deadline.
    pub deadline_micros: Option<u64>,
    /// Jitter seed (the delay sequence is deterministic given the seed and
    /// fault sequence).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_micros: 10_000,
            max_backoff_micros: 2_000_000,
            deadline_micros: None,
            seed: 0xB0FF,
        }
    }
}

/// Circuit-breaker thresholds for [`ResilientLabeler`].
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive faults (across calls) that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker fails fast before admitting a half-open
    /// probe, in microseconds.
    pub open_micros: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            open_micros: 1_000_000,
        }
    }
}

enum Breaker {
    Closed,
    Open { since: u64 },
    HalfOpen,
}

struct ResilientState {
    breaker: Breaker,
    consecutive_faults: u32,
    rng: SplitMix64,
    prev_delay: u64,
    faults_by_kind: [u64; 4],
    retries: u64,
    breaker_opens: u64,
    breaker_transitions: u64,
    backoff_micros: Histogram,
}

/// Retry/backoff + circuit-breaker middleware around any
/// [`FallibleTargetLabeler`]. See the [module docs](self) for the contract.
pub struct ResilientLabeler<F> {
    inner: F,
    policy: RetryPolicy,
    breaker_cfg: BreakerConfig,
    clock: Arc<dyn Clock>,
    /// Behind a mutex (not a builder-only field) so a serving core can
    /// install its own timer through shared references after the
    /// middleware stack is assembled — see
    /// [`FallibleTargetLabeler::install_retry_timer`].
    timer: Mutex<Arc<dyn RetryTimer>>,
    name: String,
    state: Mutex<ResilientState>,
}

impl<F: FallibleTargetLabeler> ResilientLabeler<F> {
    /// Wraps `inner` with the default policy, breaker, and wall clock.
    pub fn new(inner: F) -> Self {
        Self::with_clock(inner, Arc::new(SystemClock::new()))
    }

    /// Wraps `inner` with an explicit clock (tests pass a [`TestClock`]).
    pub fn with_clock(inner: F, clock: Arc<dyn Clock>) -> Self {
        let policy = RetryPolicy::default();
        let name = format!("resilient({})", inner.name());
        Self {
            state: Mutex::new(ResilientState {
                breaker: Breaker::Closed,
                consecutive_faults: 0,
                rng: SplitMix64::new(policy.seed),
                prev_delay: policy.base_backoff_micros,
                faults_by_kind: [0; 4],
                retries: 0,
                breaker_opens: 0,
                breaker_transitions: 0,
                backoff_micros: Histogram::new(),
            }),
            inner,
            policy,
            breaker_cfg: BreakerConfig::default(),
            clock,
            timer: Mutex::new(Arc::new(SleepTimer)),
            name,
        }
    }

    /// Replaces the retry policy (builder-style).
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        {
            let mut st = self.lock();
            st.rng = SplitMix64::new(policy.seed);
            st.prev_delay = policy.base_backoff_micros;
        }
        self.policy = policy;
        self
    }

    /// Replaces the breaker configuration (builder-style).
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker_cfg = breaker;
        self
    }

    fn timer(&self) -> Arc<dyn RetryTimer> {
        Arc::clone(&self.timer.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Access to the wrapped labeler.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    fn lock(&self) -> MutexGuard<'_, ResilientState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Breaker gate: fail fast while open, admit a half-open probe once the
    /// open window has elapsed.
    fn admit(&self) -> Result<(), LabelerFault> {
        let now = self.clock.now_micros();
        let mut st = self.lock();
        match st.breaker {
            Breaker::Closed | Breaker::HalfOpen => Ok(()),
            Breaker::Open { since } => {
                if now.saturating_sub(since) >= self.breaker_cfg.open_micros {
                    st.breaker = Breaker::HalfOpen;
                    st.breaker_transitions += 1;
                    Ok(())
                } else {
                    let retry_after = (since + self.breaker_cfg.open_micros).saturating_sub(now);
                    Err(LabelerFault::Transient(format!(
                        "circuit breaker open; retry in {retry_after}µs"
                    )))
                }
            }
        }
    }

    /// Records one successful attempt: resets the fault streak and closes a
    /// half-open breaker.
    fn on_success(&self) {
        let mut st = self.lock();
        st.consecutive_faults = 0;
        if !matches!(st.breaker, Breaker::Closed) {
            st.breaker = Breaker::Closed;
            st.breaker_transitions += 1;
        }
    }

    /// Records one faulted attempt; returns whether the breaker is now open
    /// (a half-open probe failing re-opens immediately).
    fn on_fault(&self, fault: &LabelerFault) -> bool {
        let now = self.clock.now_micros();
        let mut st = self.lock();
        st.faults_by_kind[fault.kind().index()] += 1;
        st.consecutive_faults = st.consecutive_faults.saturating_add(1);
        let should_open = match st.breaker {
            Breaker::Open { .. } => return true,
            Breaker::HalfOpen => true,
            Breaker::Closed => st.consecutive_faults >= self.breaker_cfg.failure_threshold.max(1),
        };
        if should_open {
            st.breaker = Breaker::Open { since: now };
            st.breaker_opens += 1;
            st.breaker_transitions += 1;
        }
        should_open
    }

    /// Draws the next decorrelated-jitter delay and records it.
    fn next_delay(&self) -> u64 {
        let base = self.policy.base_backoff_micros;
        let mut st = self.lock();
        let hi = st.prev_delay.saturating_mul(3).max(base.saturating_add(1));
        let delay = st
            .rng
            .uniform(base, hi)
            .min(self.policy.max_backoff_micros.max(base));
        st.prev_delay = delay;
        st.retries += 1;
        st.backoff_micros.record(delay);
        delay
    }

    /// The retry/breaker loop shared by both labeling entry points.
    fn call<T>(&self, f: impl Fn() -> Result<T, LabelerFault>) -> Result<T, LabelerFault> {
        let start = self.clock.now_micros();
        self.admit()?;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match f() {
                Ok(v) => {
                    self.on_success();
                    return Ok(v);
                }
                Err(fault) => {
                    let breaker_open = self.on_fault(&fault);
                    if breaker_open
                        || !fault.is_retryable()
                        || attempt >= self.policy.max_attempts.max(1)
                    {
                        return Err(fault);
                    }
                    let delay = self.next_delay();
                    if let Some(deadline) = self.policy.deadline_micros {
                        let elapsed = self.clock.now_micros().saturating_sub(start);
                        if elapsed.saturating_add(delay) > deadline {
                            return Err(LabelerFault::Timeout(format!(
                                "per-call deadline of {deadline}µs exceeded \
                                 after {attempt} attempts: {fault}"
                            )));
                        }
                    }
                    // Through the timer seam instead of a raw sleep: the
                    // default parks on the clock, an evented serving core
                    // parks on a signal its drain cuts short.
                    self.timer().wait(&*self.clock, delay);
                }
            }
        }
    }
}

impl<F: FallibleTargetLabeler> FallibleTargetLabeler for ResilientLabeler<F> {
    fn try_label(&self, record: RecordId) -> Result<LabelerOutput, LabelerFault> {
        self.call(|| self.inner.try_label(record))
    }

    fn try_label_batch(&self, records: &[RecordId]) -> Result<Vec<LabelerOutput>, LabelerFault> {
        self.call(|| self.inner.try_label_batch(records))
    }

    fn invocation_cost(&self) -> LabelCost {
        self.inner.invocation_cost()
    }

    fn schema(&self) -> Schema {
        self.inner.schema()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn install_retry_timer(&self, timer: &Arc<dyn RetryTimer>) -> bool {
        *self.timer.lock().unwrap_or_else(|e| e.into_inner()) = Arc::clone(timer);
        // Deeper resilience layers (stacked middleware) get it too.
        self.inner.install_retry_timer(timer);
        true
    }

    fn health(&self) -> Option<OracleHealth> {
        let now = self.clock.now_micros();
        let st = self.lock();
        let (breaker, retry_after) = match st.breaker {
            Breaker::Closed => (BreakerState::Closed, None),
            Breaker::HalfOpen => (BreakerState::HalfOpen, None),
            Breaker::Open { since } => (
                BreakerState::Open,
                Some((since + self.breaker_cfg.open_micros).saturating_sub(now)),
            ),
        };
        Some(OracleHealth {
            breaker,
            retry_after_micros: retry_after,
            consecutive_faults: st.consecutive_faults,
            faults_by_kind: st.faults_by_kind,
            retries: st.retries,
            breaker_opens: st.breaker_opens,
            breaker_transitions: st.breaker_transitions,
            backoff: st.backoff_micros.summary(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjectingLabeler, FaultKind, FaultPlan};
    use crate::labeler::{BatchTargetLabeler, TargetLabeler};
    use crate::output::{SqlAnnotation, SqlOp};

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

    fn scripted(
        script: impl IntoIterator<Item = Option<FaultKind>>,
    ) -> FaultInjectingLabeler<Fake> {
        FaultInjectingLabeler::with_script(Fake, FaultPlan::default(), script)
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let clock = Arc::new(TestClock::new());
        let r = ResilientLabeler::with_clock(
            scripted([Some(FaultKind::Transient), Some(FaultKind::Timeout), None]),
            clock.clone(),
        );
        let out = r.try_label(5).expect("third attempt succeeds");
        assert_eq!(out, Fake.label(5));
        assert_eq!(r.inner().inner_calls(), 3);
        let h = r.health().unwrap();
        assert_eq!(h.retries, 2);
        assert_eq!(h.total_faults(), 2);
        assert_eq!(h.consecutive_faults, 0);
        assert_eq!(h.breaker, BreakerState::Closed);
        assert_eq!(h.backoff.count, 2);
        // The backoff slept on the virtual clock, not the wall clock.
        assert!(clock.now_micros() >= 2 * RetryPolicy::default().base_backoff_micros);
    }

    #[test]
    fn fatal_and_corrupt_faults_are_not_retried() {
        for kind in [FaultKind::Fatal, FaultKind::Corrupt] {
            let r = ResilientLabeler::with_clock(
                scripted([Some(kind), None]),
                Arc::new(TestClock::new()),
            );
            assert_eq!(r.try_label(0).unwrap_err().kind(), kind);
            assert_eq!(r.inner().inner_calls(), 1, "no retry after {kind:?}");
            assert_eq!(r.health().unwrap().retries, 0);
        }
    }

    #[test]
    fn retries_are_bounded_by_max_attempts() {
        let r = ResilientLabeler::with_clock(
            scripted(std::iter::repeat_n(Some(FaultKind::Transient), 10)),
            Arc::new(TestClock::new()),
        )
        .with_policy(RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        })
        .with_breaker(BreakerConfig {
            failure_threshold: 100,
            ..BreakerConfig::default()
        });
        assert!(r.try_label(0).is_err());
        assert_eq!(r.inner().inner_calls(), 3);
        assert_eq!(r.health().unwrap().retries, 2);
    }

    #[test]
    fn backoff_delays_are_jittered_within_decorrelated_bounds() {
        let clock = Arc::new(TestClock::new());
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff_micros: 100,
            max_backoff_micros: 1_000,
            ..RetryPolicy::default()
        };
        let r = ResilientLabeler::with_clock(
            scripted(std::iter::repeat_n(Some(FaultKind::Transient), 6)),
            clock.clone(),
        )
        .with_policy(policy.clone())
        .with_breaker(BreakerConfig {
            failure_threshold: 100,
            ..BreakerConfig::default()
        });
        let _ = r.try_label(0);
        let h = r.health().unwrap();
        assert_eq!(h.backoff.count, 5);
        assert!(h.backoff.min >= policy.base_backoff_micros);
        assert!(h.backoff.max <= policy.max_backoff_micros);
        // Total virtual sleep equals the histogram's mass.
        assert!(clock.now_micros() >= h.backoff.min * 5);
        assert!(clock.now_micros() <= h.backoff.max * 5);
    }

    #[test]
    fn deadline_bounds_the_retry_loop() {
        let clock = Arc::new(TestClock::new());
        let r = ResilientLabeler::with_clock(
            scripted(std::iter::repeat_n(Some(FaultKind::Transient), 100)),
            clock.clone(),
        )
        .with_policy(RetryPolicy {
            max_attempts: 100,
            base_backoff_micros: 1_000,
            max_backoff_micros: 1_000,
            deadline_micros: Some(3_500),
            ..RetryPolicy::default()
        })
        .with_breaker(BreakerConfig {
            failure_threshold: 1_000,
            ..BreakerConfig::default()
        });
        let err = r.try_label(0).unwrap_err();
        assert_eq!(err.kind(), FaultKind::Timeout, "{err}");
        assert!(err.message().contains("deadline"));
        // Never slept past the deadline.
        assert!(clock.now_micros() <= 3_500);
    }

    #[test]
    fn breaker_opens_half_opens_and_closes() {
        let clock = Arc::new(TestClock::new());
        let breaker = BreakerConfig {
            failure_threshold: 2,
            open_micros: 1_000,
        };
        let r = ResilientLabeler::with_clock(
            scripted([
                Some(FaultKind::Fatal),
                Some(FaultKind::Fatal),
                // Half-open probe succeeds after the window.
                None,
            ]),
            clock.clone(),
        )
        .with_breaker(breaker);
        // Two fatal faults trip the breaker.
        assert!(r.try_label(0).is_err());
        assert!(r.try_label(1).is_err());
        let h = r.health().unwrap();
        assert_eq!(h.breaker, BreakerState::Open);
        assert_eq!(h.breaker_opens, 1);
        let retry_after = h.retry_after_micros.unwrap();
        assert!(retry_after > 0 && retry_after <= 1_000);
        // While open: fail fast without touching the oracle.
        let calls_before = r.inner().inner_calls();
        let err = r.try_label(2).unwrap_err();
        assert!(err.message().contains("circuit breaker open"), "{err}");
        assert_eq!(r.inner().inner_calls(), calls_before);
        // After the open window, the half-open probe is admitted and closes
        // the breaker on success.
        clock.advance(1_000);
        assert!(r.try_label(3).is_ok());
        let h = r.health().unwrap();
        assert_eq!(h.breaker, BreakerState::Closed);
        assert_eq!(h.consecutive_faults, 0);
        // Transitions: closed→open, open→half-open, half-open→closed.
        assert_eq!(h.breaker_transitions, 3);
    }

    #[test]
    fn failed_half_open_probe_reopens_the_breaker() {
        let clock = Arc::new(TestClock::new());
        let r = ResilientLabeler::with_clock(
            scripted([
                Some(FaultKind::Fatal),
                // The half-open probe faults again.
                Some(FaultKind::Fatal),
            ]),
            clock.clone(),
        )
        .with_breaker(BreakerConfig {
            failure_threshold: 1,
            open_micros: 500,
        });
        assert!(r.try_label(0).is_err());
        assert_eq!(r.health().unwrap().breaker, BreakerState::Open);
        clock.advance(500);
        assert!(r.try_label(1).is_err());
        let h = r.health().unwrap();
        assert_eq!(h.breaker, BreakerState::Open, "failed probe must re-open");
        assert_eq!(h.breaker_opens, 2);
    }

    #[test]
    fn open_breaker_stops_retry_loops_early() {
        // A retryable fault that trips the breaker mid-loop must not keep
        // hammering the oracle with the remaining attempts.
        let r = ResilientLabeler::with_clock(
            scripted(std::iter::repeat_n(Some(FaultKind::Transient), 10)),
            Arc::new(TestClock::new()),
        )
        .with_policy(RetryPolicy {
            max_attempts: 10,
            ..RetryPolicy::default()
        })
        .with_breaker(BreakerConfig {
            failure_threshold: 2,
            open_micros: 1_000,
        });
        assert!(r.try_label(0).is_err());
        assert_eq!(
            r.inner().inner_calls(),
            2,
            "loop must stop when the breaker opens"
        );
    }

    #[test]
    fn batch_path_retries_whole_batches() {
        let r = ResilientLabeler::with_clock(
            scripted([Some(FaultKind::Transient), None]),
            Arc::new(TestClock::new()),
        );
        let outs = r.try_label_batch(&[1, 2, 3]).unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(r.inner().inner_calls(), 2);
    }

    #[test]
    fn metadata_passes_through() {
        let r = ResilientLabeler::new(scripted([]));
        assert_eq!(r.name(), "resilient(faulty(fake))");
        assert_eq!(r.invocation_cost().dollars, 0.07);
        assert_eq!(r.schema(), TargetLabeler::schema(&Fake));
    }
}
