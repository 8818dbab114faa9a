//! The unified telemetry records: one per query execution, one per index
//! build.
//!
//! # The invocation-accounting convention
//!
//! Exactly one number is the cost of an operation: **distinct target-labeler
//! invocations**, as metered by `MeteredLabeler` (cache hits are free,
//! repeated draws of the same record are free). Every query algorithm
//! reports that number in [`QueryTelemetry::invocations`], every build
//! stage in [`StageTelemetry::labeler_invocations`], and the test suites
//! assert the reported values equal the meter's before/after delta — no
//! algorithm keeps a private convention.

use crate::json::{fmt_f64, push_escaped};

/// One timed pipeline stage (build-side accounting).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct StageTelemetry {
    /// Stage name (`mining`, `annotate-train`, `triplet-train`, `embed`,
    /// `cluster`, `annotate-reps`, `distances`).
    pub name: String,
    /// Wall-clock seconds spent in the stage (of *our* pipeline; labeler
    /// execution is accounted separately through the cost model).
    pub seconds: f64,
    /// Target-labeler invocations incurred by the stage.
    pub labeler_invocations: u64,
}

impl StageTelemetry {
    /// Writes the stage as a JSON object into `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":\"");
        push_escaped(out, &self.name);
        out.push_str("\",\"seconds\":");
        out.push_str(&fmt_f64(self.seconds));
        out.push_str(",\"labeler_invocations\":");
        out.push_str(&self.labeler_invocations.to_string());
        out.push('}');
    }
}

/// Accounting for the rep-assignment (`distances`) stage: which strategy
/// ran, how big the candidate pools were, and what the recall audit saw.
/// Mirrors the cluster crate's `AssignStats` without depending on it —
/// obs stays dependency-free and the bridge lives in the core crate.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct AssignTelemetry {
    /// Resolved strategy label (`exact`, `ivf`, `ivf-full-probe`,
    /// `ivf-exact-fallback`).
    pub strategy: String,
    /// Records assigned.
    pub n_records: u64,
    /// Representatives assigned against.
    pub n_reps: u64,
    /// Coarse cells in the router (0 on the exact path).
    pub n_cells: u64,
    /// Effective base probe count (0 on the exact path).
    pub nprobe: u64,
    /// Mean per-record candidate-pool size (equals `n_reps` on exact).
    pub candidate_mean: f64,
    /// Smallest per-record candidate pool.
    pub candidate_min: u64,
    /// Largest per-record candidate pool.
    pub candidate_max: u64,
    /// Probe-widening events across all records.
    pub probe_widenings: u64,
    /// True when the recall audit failed and the build fell back to exact.
    pub exact_fallback: bool,
    /// Records in the recall-audit sample (0 on the exact path).
    pub audited_records: u64,
    /// Measured recall@k over the audit sample before any fallback.
    pub audited_recall: f64,
    /// Wall-clock seconds in the assignment stage.
    pub seconds: f64,
}

impl AssignTelemetry {
    /// Writes the record as a JSON object into `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"strategy\":\"");
        push_escaped(out, &self.strategy);
        out.push_str("\",\"n_records\":");
        out.push_str(&self.n_records.to_string());
        out.push_str(",\"n_reps\":");
        out.push_str(&self.n_reps.to_string());
        out.push_str(",\"n_cells\":");
        out.push_str(&self.n_cells.to_string());
        out.push_str(",\"nprobe\":");
        out.push_str(&self.nprobe.to_string());
        out.push_str(",\"candidate_mean\":");
        out.push_str(&fmt_f64(self.candidate_mean));
        out.push_str(",\"candidate_min\":");
        out.push_str(&self.candidate_min.to_string());
        out.push_str(",\"candidate_max\":");
        out.push_str(&self.candidate_max.to_string());
        out.push_str(",\"probe_widenings\":");
        out.push_str(&self.probe_widenings.to_string());
        out.push_str(",\"exact_fallback\":");
        out.push_str(if self.exact_fallback { "true" } else { "false" });
        out.push_str(",\"audited_records\":");
        out.push_str(&self.audited_records.to_string());
        out.push_str(",\"audited_recall\":");
        out.push_str(&fmt_f64(self.audited_recall));
        out.push_str(",\"seconds\":");
        out.push_str(&fmt_f64(self.seconds));
        out.push('}');
    }
}

/// Per-stage wall-clock and invocation accounting for one index build.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct BuildTelemetry {
    /// The stages in execution order.
    pub stages: Vec<StageTelemetry>,
    /// Sum of stage wall-clock seconds.
    pub total_seconds: f64,
    /// Sum of stage labeler invocations.
    pub total_invocations: u64,
    /// Rep-assignment accounting, when the build recorded it. Elided from
    /// JSON when absent so pre-ANN output is byte-identical.
    #[cfg_attr(feature = "serde", serde(skip_serializing_if = "Option::is_none"))]
    pub assign: Option<AssignTelemetry>,
}

impl BuildTelemetry {
    /// Builds totals from a stage list.
    pub fn from_stages(stages: Vec<StageTelemetry>) -> Self {
        let total_seconds = stages.iter().map(|s| s.seconds).sum();
        let total_invocations = stages.iter().map(|s| s.labeler_invocations).sum();
        Self {
            stages,
            total_seconds,
            total_invocations,
            assign: None,
        }
    }

    /// Attaches rep-assignment accounting.
    pub fn with_assign(mut self, assign: AssignTelemetry) -> Self {
        self.assign = Some(assign);
        self
    }

    /// Invocations of a named stage (0 if absent).
    pub fn stage_invocations(&self, name: &str) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.labeler_invocations)
            .sum()
    }

    /// Serializes to a JSON object (no external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            s.write_json(&mut out);
        }
        out.push_str("],\"total_seconds\":");
        out.push_str(&fmt_f64(self.total_seconds));
        out.push_str(",\"total_invocations\":");
        out.push_str(&self.total_invocations.to_string());
        if let Some(a) = &self.assign {
            out.push_str(",\"assign\":");
            a.write_json(&mut out);
        }
        out.push('}');
        out
    }
}

/// The uniform record emitted by every query algorithm and baseline.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct QueryTelemetry {
    /// Algorithm name (`ebs_aggregate`, `supg_recall_target`, …).
    pub algorithm: String,
    /// Distinct target-labeler invocations consumed — the paper's cost
    /// metric, by definition equal to the `MeteredLabeler` delta across the
    /// call (asserted in the telemetry-audit test suites).
    pub invocations: u64,
    /// Wall-clock seconds inside the algorithm (excludes the caller's
    /// proxy-score materialization).
    pub wall_seconds: f64,
    /// Whether the returned answer carries its statistical guarantee. False
    /// means the algorithm fell back to a conservative default (e.g. SUPG
    /// certifying no threshold, a limit query exhausting its scan budget)
    /// and diagnostic estimates describe that fallback, not a certified
    /// result.
    pub certified: bool,
    /// Non-finite proxy scores sanitized on entry (see the query crate's
    /// documented NaN policy). Zero on clean inputs.
    pub sanitized_inputs: u64,
    /// Unrecoverable oracle faults observed during the query (after any
    /// retrying below the algorithm). Zero on the fault-free path.
    pub oracle_faults: u64,
    /// True when the algorithm abandoned its oracle-backed plan because of
    /// an oracle fault and returned a proxy-only (degraded) answer. A
    /// degraded answer is never certified.
    pub degraded: bool,
}

impl QueryTelemetry {
    /// A record with the given algorithm name and all counters zeroed;
    /// callers fill the rest at return time.
    pub fn new(algorithm: &str) -> Self {
        Self {
            algorithm: algorithm.to_string(),
            invocations: 0,
            wall_seconds: 0.0,
            certified: true,
            sanitized_inputs: 0,
            oracle_faults: 0,
            degraded: false,
        }
    }

    /// Serializes to a JSON object (no external dependencies). Non-finite
    /// floats become `null`, matching serde_json's behaviour. The fault
    /// fields are emitted only when set, so fault-free output is
    /// byte-identical to what pre-fault-model versions produced.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"algorithm\":\"");
        push_escaped(&mut out, &self.algorithm);
        out.push_str("\",\"invocations\":");
        out.push_str(&self.invocations.to_string());
        out.push_str(",\"wall_seconds\":");
        out.push_str(&fmt_f64(self.wall_seconds));
        out.push_str(",\"certified\":");
        out.push_str(if self.certified { "true" } else { "false" });
        out.push_str(",\"sanitized_inputs\":");
        out.push_str(&self.sanitized_inputs.to_string());
        if self.oracle_faults > 0 {
            out.push_str(",\"oracle_faults\":");
            out.push_str(&self.oracle_faults.to_string());
        }
        if self.degraded {
            out.push_str(",\"degraded\":true");
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_totals_and_stage_lookup() {
        let b = BuildTelemetry::from_stages(vec![
            StageTelemetry {
                name: "mining".into(),
                seconds: 0.5,
                labeler_invocations: 0,
            },
            StageTelemetry {
                name: "annotate-reps".into(),
                seconds: 1.5,
                labeler_invocations: 120,
            },
        ]);
        assert_eq!(b.total_invocations, 120);
        assert!((b.total_seconds - 2.0).abs() < 1e-12);
        assert_eq!(b.stage_invocations("annotate-reps"), 120);
        assert_eq!(b.stage_invocations("absent"), 0);
    }

    #[test]
    fn query_telemetry_json_shape() {
        let t = QueryTelemetry {
            algorithm: "supg_recall_target".into(),
            invocations: 500,
            wall_seconds: 0.25,
            certified: false,
            sanitized_inputs: 3,
            oracle_faults: 0,
            degraded: false,
        };
        let j = t.to_json();
        assert!(j.contains("\"algorithm\":\"supg_recall_target\""));
        assert!(j.contains("\"invocations\":500"));
        assert!(j.contains("\"certified\":false"));
        assert!(j.contains("\"sanitized_inputs\":3"));
        assert!(j.starts_with('{') && j.ends_with('}'));
        // Fault fields are elided on the fault-free path so the wire shape
        // is unchanged from pre-fault-model output.
        assert!(!j.contains("oracle_faults"));
        assert!(!j.contains("degraded"));
    }

    #[test]
    fn fault_fields_are_emitted_only_when_set() {
        let mut t = QueryTelemetry::new("ebs_aggregate");
        t.oracle_faults = 2;
        t.degraded = true;
        let j = t.to_json();
        assert!(j.contains("\"oracle_faults\":2"));
        assert!(j.contains("\"degraded\":true"));
    }

    #[test]
    fn build_telemetry_json_contains_stages() {
        let b = BuildTelemetry::from_stages(vec![StageTelemetry {
            name: "embed".into(),
            seconds: 0.125,
            labeler_invocations: 0,
        }]);
        let j = b.to_json();
        assert!(j.contains("\"stages\":[{\"name\":\"embed\""));
        assert!(j.contains("\"total_invocations\":0"));
    }

    #[test]
    fn assign_telemetry_is_elided_when_absent() {
        let b = BuildTelemetry::from_stages(vec![]);
        assert!(!b.to_json().contains("assign"));

        let j = b
            .with_assign(AssignTelemetry {
                strategy: "ivf".into(),
                n_records: 1000,
                n_reps: 64,
                n_cells: 8,
                nprobe: 2,
                candidate_mean: 17.5,
                candidate_min: 12,
                candidate_max: 40,
                probe_widenings: 3,
                exact_fallback: false,
                audited_records: 128,
                audited_recall: 0.9975,
                seconds: 0.02,
            })
            .to_json();
        assert!(j.contains("\"assign\":{\"strategy\":\"ivf\""));
        assert!(j.contains("\"nprobe\":2,\"candidate_mean\":17.5"));
        assert!(j.contains("\"probe_widenings\":3"));
        assert!(j.contains("\"exact_fallback\":false"));
        assert!(j.contains("\"audited_recall\":0.9975"));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut t = QueryTelemetry::new("x");
        t.wall_seconds = f64::NAN;
        assert!(t.to_json().contains("\"wall_seconds\":null"));
    }

    #[test]
    fn algorithm_names_are_escaped() {
        let t = QueryTelemetry::new("we\"ird\\name");
        let j = t.to_json();
        assert!(j.contains("we\\\"ird\\\\name"));
    }
}
