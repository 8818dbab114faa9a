//! Streaming-ingest observability: drift gauges and the ingest telemetry
//! record.
//!
//! TASTI's propagation quality rests on the cluster structure the FPF
//! pass froze at build time: every record's proxy score is interpolated
//! from its nearest representatives. Streamed records erode that
//! structure when the data distribution moves — new points land ever
//! farther from their assigned representatives, and the distance spread
//! widens. [`DriftGauge`] quantifies both effects against a baseline
//! captured from the index itself, and the serving layer escalates from
//! cheap incremental appends to a full assignment refresh when
//! [`DriftGauge::drift`] crosses the configured threshold.
//!
//! Like the rest of this crate, everything here is dependency-free and
//! mirrors index-side types by value (the bridge lives in `tasti-serve`).

use crate::json::fmt_f64;
use crate::telemetry::AssignTelemetry;

/// Floor for relative comparisons against degenerate baselines.
const EPS: f64 = 1e-12;

/// Per-cluster radius / score-variance drift gauge.
///
/// Anchored on a baseline taken from the live index: the mean
/// nearest-representative distance of each cluster (its *radius* proxy)
/// and the global variance of nearest distances. Every ingested record
/// reports its assigned cluster and nearest distance via
/// [`DriftGauge::observe`]; [`DriftGauge::drift`] is then the larger of
///
/// * **radius drift** — the observation-weighted average, over clusters
///   that received new records, of how far each cluster's observed mean
///   distance exceeds its baseline radius, in units of the global
///   baseline mean radius (so a degenerate zero-radius cluster cannot
///   blow the ratio up);
/// * **variance drift** — the relative change of the observed
///   nearest-distance variance against the baseline variance.
///
/// 0.0 means "new records look exactly like the indexed distribution";
/// 1.0 means clusters have grown by (or variance has shifted by) about
/// one baseline radius — well past the point where propagation quality
/// is suspect. After an escalation the gauge is re-anchored with
/// [`DriftGauge::reset`].
#[derive(Debug, Clone)]
pub struct DriftGauge {
    baseline_radius: Vec<f64>,
    baseline_mean_radius: f64,
    baseline_variance: f64,
    obs_count: Vec<u64>,
    obs_sum: Vec<f64>,
    global_count: u64,
    global_sum: f64,
    global_sumsq: f64,
}

impl DriftGauge {
    /// Anchors a gauge: `baseline_radius[c]` is cluster `c`'s mean
    /// nearest-rep distance, `baseline_variance` the global variance of
    /// nearest distances at anchor time.
    pub fn new(baseline_radius: Vec<f64>, baseline_variance: f64) -> Self {
        let n = baseline_radius.len();
        let mean = if n == 0 {
            0.0
        } else {
            baseline_radius.iter().sum::<f64>() / n as f64
        };
        Self {
            baseline_radius,
            baseline_mean_radius: mean,
            baseline_variance,
            obs_count: vec![0; n],
            obs_sum: vec![0.0; n],
            global_count: 0,
            global_sum: 0.0,
            global_sumsq: 0.0,
        }
    }

    /// Records one ingested record: its assigned cluster and the distance
    /// to that cluster's representative. Non-finite distances and unknown
    /// cluster ids still feed the global spread statistics but no
    /// per-cluster radius (the caller may have cracked a rep the gauge
    /// has not seen yet).
    pub fn observe(&mut self, cluster: usize, dist: f64) {
        if !dist.is_finite() {
            return;
        }
        self.global_count += 1;
        self.global_sum += dist;
        self.global_sumsq += dist * dist;
        if cluster < self.obs_count.len() {
            self.obs_count[cluster] += 1;
            self.obs_sum[cluster] += dist;
        }
    }

    /// Total observations folded in since the last anchor.
    pub fn observations(&self) -> u64 {
        self.global_count
    }

    /// The current drift score (see the type docs). 0.0 with no
    /// observations.
    pub fn drift(&self) -> f64 {
        if self.global_count == 0 {
            return 0.0;
        }
        let unit = self.baseline_mean_radius.max(EPS);
        let mut weighted_excess = 0.0;
        let mut weighted_obs = 0u64;
        for c in 0..self.obs_count.len() {
            let n = self.obs_count[c];
            if n == 0 {
                continue;
            }
            let mean = self.obs_sum[c] / n as f64;
            let excess = (mean - self.baseline_radius[c]).max(0.0) / unit;
            weighted_excess += excess * n as f64;
            weighted_obs += n;
        }
        let radius_drift = if weighted_obs == 0 {
            0.0
        } else {
            weighted_excess / weighted_obs as f64
        };
        let mean = self.global_sum / self.global_count as f64;
        let var = (self.global_sumsq / self.global_count as f64 - mean * mean).max(0.0);
        let variance_drift = (var - self.baseline_variance).abs() / self.baseline_variance.max(EPS);
        radius_drift.max(variance_drift)
    }

    /// Re-anchors the gauge on a fresh baseline (after an escalation
    /// rebuilt the assignment) and clears all observations.
    pub fn reset(&mut self, baseline_radius: Vec<f64>, baseline_variance: f64) {
        *self = DriftGauge::new(baseline_radius, baseline_variance);
    }
}

/// Serving-side accounting of one index's streaming-ingest lifecycle:
/// what arrived, what replay did, what the drift gauge says, and how
/// maintenance split between incremental cracks and full rebuilds.
/// Serialized into the `metrics` reply only when ingest actually
/// happened, so ingest-free output stays byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct IngestTelemetry {
    /// Records durably ingested (acknowledged batches, summed).
    pub records_ingested: u64,
    /// Acknowledged ingest batches.
    pub batches: u64,
    /// Log frames re-applied at startup (base + segment-delta replay).
    pub replayed_frames: u64,
    /// Current drift-gauge reading.
    pub drift: f64,
    /// Threshold at which ingest escalates to a full assignment refresh.
    pub drift_threshold: f64,
    /// Drift-triggered full-refresh escalations.
    pub escalations: u64,
    /// Escalated refreshes completed off the request path by the serving
    /// layer's background maintenance thread. Elided from JSON while zero
    /// so pre-background-refresh output stays byte-identical.
    #[cfg_attr(feature = "serde", serde(skip_serializing_if = "u64_is_zero"))]
    pub background_refreshes: u64,
    /// Maintenance cracks that stayed on the incremental append path.
    pub crack_incremental: u64,
    /// Maintenance cracks that escalated to a full assignment rebuild
    /// (the previously silent reps-grown-by-⅛ heuristic, now audited).
    pub crack_rebuilds: u64,
    /// Telemetry of the most recent assignment rebuild, when one ran.
    #[cfg_attr(feature = "serde", serde(skip_serializing_if = "Option::is_none"))]
    pub last_assign: Option<AssignTelemetry>,
}

/// serde `skip_serializing_if` helper: elide zero-valued counters that
/// post-date the wire format (keeps old output byte-identical).
#[cfg(feature = "serde")]
fn u64_is_zero(v: &u64) -> bool {
    *v == 0
}

impl IngestTelemetry {
    /// True when nothing ingest-related has happened — callers elide the
    /// whole record from their output to preserve byte-compatibility.
    pub fn is_idle(&self) -> bool {
        self.records_ingested == 0
            && self.batches == 0
            && self.replayed_frames == 0
            && self.escalations == 0
            && self.crack_rebuilds == 0
    }

    /// Writes the record as a JSON object into `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"records_ingested\":");
        out.push_str(&self.records_ingested.to_string());
        out.push_str(",\"batches\":");
        out.push_str(&self.batches.to_string());
        out.push_str(",\"replayed_frames\":");
        out.push_str(&self.replayed_frames.to_string());
        out.push_str(",\"drift\":");
        out.push_str(&fmt_f64(self.drift));
        out.push_str(",\"drift_threshold\":");
        out.push_str(&fmt_f64(self.drift_threshold));
        out.push_str(",\"escalations\":");
        out.push_str(&self.escalations.to_string());
        if self.background_refreshes > 0 {
            out.push_str(",\"background_refreshes\":");
            out.push_str(&self.background_refreshes.to_string());
        }
        out.push_str(",\"crack_incremental\":");
        out.push_str(&self.crack_incremental.to_string());
        out.push_str(",\"crack_rebuilds\":");
        out.push_str(&self.crack_rebuilds.to_string());
        if let Some(a) = &self.last_assign {
            out.push_str(",\"last_assign\":");
            a.write_json(out);
        }
        out.push('}');
    }

    /// Serializes to a JSON object (no external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_observations_is_zero_drift() {
        let g = DriftGauge::new(vec![1.0, 2.0], 0.5);
        assert_eq!(g.drift(), 0.0);
        assert_eq!(g.observations(), 0);
    }

    #[test]
    fn in_distribution_records_stay_near_zero() {
        // Observations matching the baseline radii and spread: no drift.
        let mut g = DriftGauge::new(vec![1.0, 1.0], 0.0);
        for _ in 0..50 {
            g.observe(0, 1.0);
            g.observe(1, 1.0);
        }
        assert!(g.drift() < 1e-9, "drift = {}", g.drift());
    }

    #[test]
    fn growing_cluster_radius_raises_drift() {
        let mut g = DriftGauge::new(vec![1.0, 1.0], 0.0);
        // New records land twice as far out as the baseline radius.
        for _ in 0..50 {
            g.observe(0, 2.0);
        }
        let d = g.drift();
        // Excess = (2 - 1) / mean_radius(1) = 1.0.
        assert!((d - 1.0).abs() < 1e-9, "drift = {d}");
    }

    #[test]
    fn drift_is_observation_weighted() {
        let mut g = DriftGauge::new(vec![1.0, 1.0], 0.3);
        // 90 in-distribution, 10 far out: radius drift is diluted to 0.2
        // (an unweighted per-cluster mean would read 1.0). The observed
        // global variance (0.36) sits near the 0.3 baseline, so the
        // variance arm stays below the radius arm.
        for _ in 0..90 {
            g.observe(0, 1.0);
        }
        for _ in 0..10 {
            g.observe(1, 3.0);
        }
        let d = g.drift();
        assert!(d > 0.1 && d < 0.5, "drift = {d}");
    }

    #[test]
    fn variance_shift_raises_drift_even_with_stable_radii() {
        // Mean distance stays 1.0 but the spread explodes: the variance
        // arm must catch it.
        let mut g = DriftGauge::new(vec![1.0], 0.01);
        for i in 0..100 {
            g.observe(0, if i % 2 == 0 { 0.0 } else { 2.0 });
        }
        assert!(g.drift() > 10.0, "drift = {}", g.drift());
    }

    #[test]
    fn shrinking_clusters_do_not_count_as_radius_drift() {
        // Records landing closer than baseline are good news; only the
        // variance arm may react.
        let mut g = DriftGauge::new(vec![2.0, 2.0], 0.0);
        for _ in 0..20 {
            g.observe(0, 0.5);
            g.observe(1, 0.5);
        }
        // Radius excess clamps at 0; variance of constant 0.5 is 0 = base.
        assert!(g.drift() < 1e-9, "drift = {}", g.drift());
    }

    #[test]
    fn unknown_clusters_and_nonfinite_distances_are_safe() {
        let mut g = DriftGauge::new(vec![1.0], 0.0);
        g.observe(99, 5.0); // cracked rep the gauge has not seen
        g.observe(0, f64::NAN);
        g.observe(0, f64::INFINITY);
        assert_eq!(g.observations(), 1);
        let d = g.drift();
        assert!(d.is_finite(), "drift = {d}");
    }

    #[test]
    fn reset_reanchors_and_clears() {
        let mut g = DriftGauge::new(vec![1.0], 0.0);
        for _ in 0..10 {
            g.observe(0, 4.0);
        }
        assert!(g.drift() > 1.0);
        g.reset(vec![4.0], 0.0);
        assert_eq!(g.observations(), 0);
        assert_eq!(g.drift(), 0.0);
        g.observe(0, 4.0);
        assert!(g.drift() < 1e-9, "re-anchored baseline absorbs the shift");
    }

    #[test]
    fn degenerate_zero_radius_baseline_stays_finite() {
        let mut g = DriftGauge::new(vec![0.0, 0.0], 0.0);
        g.observe(0, 1.0);
        let d = g.drift();
        assert!(d.is_finite(), "drift = {d}");
    }

    #[test]
    fn telemetry_json_shape_and_elision() {
        let t = IngestTelemetry {
            records_ingested: 40,
            batches: 2,
            replayed_frames: 1,
            drift: 0.125,
            drift_threshold: 0.5,
            escalations: 0,
            background_refreshes: 0,
            crack_incremental: 3,
            crack_rebuilds: 1,
            last_assign: None,
        };
        let j = t.to_json();
        assert!(j.contains("\"records_ingested\":40"));
        assert!(j.contains("\"batches\":2"));
        assert!(j.contains("\"drift\":0.125"));
        assert!(j.contains("\"drift_threshold\":0.5"));
        assert!(j.contains("\"crack_incremental\":3"));
        assert!(j.contains("\"crack_rebuilds\":1"));
        assert!(!j.contains("last_assign"), "elided when absent: {j}");
        assert!(
            !j.contains("background_refreshes"),
            "elided while zero: {j}"
        );
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn background_refreshes_appear_once_one_completes() {
        let t = IngestTelemetry {
            background_refreshes: 2,
            ..IngestTelemetry::default()
        };
        assert!(t.to_json().contains("\"background_refreshes\":2"));
    }

    #[test]
    fn idle_telemetry_is_detectable() {
        assert!(IngestTelemetry::default().is_idle());
        let mut t = IngestTelemetry {
            drift_threshold: 0.5, // config alone does not make it active
            ..IngestTelemetry::default()
        };
        assert!(t.is_idle());
        t.batches = 1;
        assert!(!t.is_idle());
    }

    #[test]
    fn last_assign_is_attached_when_present() {
        let mut t = IngestTelemetry::default();
        t.last_assign = Some(AssignTelemetry {
            strategy: "ivf".into(),
            n_records: 100,
            n_reps: 16,
            n_cells: 4,
            nprobe: 2,
            candidate_mean: 8.0,
            candidate_min: 4,
            candidate_max: 16,
            probe_widenings: 0,
            exact_fallback: false,
            audited_records: 32,
            audited_recall: 1.0,
            seconds: 0.01,
        });
        let j = t.to_json();
        assert!(j.contains("\"last_assign\":{\"strategy\":\"ivf\""));
    }
}
