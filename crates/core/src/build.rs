//! Index construction — Algorithm 1 of the paper.
//!
//! ```text
//! function Make TASTI index(X, N₁, N₂, k)
//!     PretrainedEmbeddings[i] ← PretrainedModel(X[i])
//!     TrainingPoints        ← FPF(PretrainedEmbeddings, N₁)
//!     TripletModel          ← Finetune(TrainingPoints, PretrainedModel)
//!     Embeddings[i]         ← TripletModel(X[i])
//!     ClusterRepresentatives ← FPF(Embeddings, N₂)
//!     MinKDistances[i]      ← ClosestKDistances(X[i], ClusterRepresentatives, k)
//!     return ClusterRepresentatives, MinKDistances
//! ```
//!
//! Every stage is timed and its target-labeler invocations are recorded,
//! which is what Figure 2's construction-cost breakdown plots. The
//! `mining` / `clustering` / `train_embedding` switches in
//! [`TastiConfig`](crate::TastiConfig) turn individual stages off or replace
//! FPF with random selection for the factor analysis and lesion study
//! (Figures 9–10).

use crate::config::TastiConfig;
use crate::index::TastiIndex;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use tasti_cluster::{kernels, select_threaded, AssignStats, MinKTable};
use tasti_labeler::{
    BatchTargetLabeler, BudgetExhausted, ClosenessFn, FallibleTargetLabeler, LabelerError,
    LabelerFault, MeteredLabeler,
};
use tasti_nn::train::fit_triplet;
use tasti_nn::{Adam, Matrix, Mlp, MlpConfig};
use tasti_obs::{AssignTelemetry, BuildTelemetry, StageRecorder, StageTelemetry};

/// Bridges the cluster crate's assignment stats into the dependency-free
/// telemetry record the bench runner and the serve `metrics` op serialize.
pub fn assign_telemetry(stats: &AssignStats) -> AssignTelemetry {
    AssignTelemetry {
        strategy: stats.strategy.to_string(),
        n_records: stats.n_records as u64,
        n_reps: stats.n_reps as u64,
        n_cells: stats.n_cells as u64,
        nprobe: stats.nprobe as u64,
        candidate_mean: stats.candidate_mean(),
        candidate_min: stats.candidate_min as u64,
        candidate_max: stats.candidate_max as u64,
        probe_widenings: stats.probe_widenings,
        exact_fallback: stats.exact_fallback,
        audited_records: stats.audited_records as u64,
        audited_recall: stats.audited_recall,
        seconds: stats.seconds,
    }
}

/// One timed construction stage — an alias of the shared telemetry record;
/// the per-stage accounting convention lives in `tasti-obs`.
pub type BuildStage = StageTelemetry;

/// Why a build could not complete: the labeler's hard budget ran out, or a
/// live oracle faulted unrecoverably mid-annotation. Index construction has
/// no meaningful partial answer (a half-annotated representative set is not
/// an index), so faults abort the build rather than degrade it — callers
/// retry once the oracle recovers, and the meter's cache makes the retry
/// resume where the failed build stopped paying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The configured annotation budget cannot cover `N₁ + N₂` labels.
    Budget(BudgetExhausted),
    /// The oracle faulted after retries (or fatally) during an annotation
    /// stage. The named stage had completed `labels_completed` labels —
    /// all of which remain cached and billed exactly once.
    Fault {
        /// The construction stage that was annotating when the fault hit.
        stage: &'static str,
        /// The unrecoverable fault, as surfaced below the meter.
        fault: LabelerFault,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Budget(b) => write!(f, "index build aborted: {b}"),
            BuildError::Fault { stage, fault } => {
                write!(f, "index build aborted during `{stage}`: {fault}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<BudgetExhausted> for BuildError {
    fn from(b: BudgetExhausted) -> Self {
        BuildError::Budget(b)
    }
}

/// Construction report: the data behind Figure 2 and Figure 3's x-axis.
#[derive(Debug, Clone, Serialize)]
pub struct BuildReport {
    /// Per-stage timings and invocation counts.
    pub stages: Vec<BuildStage>,
    /// Final mean triplet loss (NaN when training was skipped).
    pub triplet_loss: f32,
    /// Total distinct target-labeler invocations for construction.
    pub total_invocations: u64,
    /// Number of records indexed.
    pub n_records: usize,
    /// Number of embedding-model forward rows during training
    /// (`L` in the §3.4 cost model).
    pub training_forward_rows: u64,
    /// Record-to-representative distance computations (`N·C` term of §3.4).
    /// With an IVF assignment this is the realized candidate total, not the
    /// brute-force product.
    pub distance_computations: u64,
    /// Rep-assignment accounting for the `distances` stage (strategy,
    /// candidate-pool sizes, audited recall).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub assign: Option<AssignTelemetry>,
}

impl BuildReport {
    /// Total wall-clock seconds across stages.
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.seconds).sum()
    }

    /// Invocations of a named stage (0 if absent).
    pub fn stage_invocations(&self, name: &str) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.labeler_invocations)
            .sum()
    }

    /// The build's stage accounting as a shared [`BuildTelemetry`] record
    /// (what the bench runner serializes into `results/*.json`).
    pub fn telemetry(&self) -> BuildTelemetry {
        let t = BuildTelemetry::from_stages(self.stages.clone());
        match &self.assign {
            Some(a) => t.with_assign(a.clone()),
            None => t,
        }
    }
}

/// Embeds all rows of `features` through `net`, splitting the batch across
/// threads via the shared kernel fan-out (`threads = 0` = available
/// parallelism). Deterministic: rows are processed independently and
/// written back in order.
fn parallel_embed(net: &Mlp, features: &Matrix, threads: usize) -> Matrix {
    let n = features.rows();
    let threads = kernels::resolve_threads(threads);
    if threads <= 1 || n < 2 * threads {
        return net.forward_ref(features);
    }
    let mut out = Matrix::zeros(n, net.output_dim());
    let out_cols = out.cols();
    let feat_cols = features.cols();
    kernels::par_map_row_chunks(out.as_mut_slice(), out_cols, threads, |start, block| {
        let rows = block.len() / out_cols;
        let rows_idx: Vec<usize> = (start..start + rows).collect();
        let chunk = features.select_rows(&rows_idx);
        debug_assert_eq!(chunk.cols(), feat_cols);
        let emb = net.forward_ref(&chunk);
        block.copy_from_slice(emb.as_slice());
    });
    out
}

/// Builds a [`TastiIndex`] over a dataset (Algorithm 1).
///
/// * `features` — raw record features (the embedding model's input).
/// * `pretrained` — pre-computed pre-trained embeddings (Algorithm 1 line 1;
///   also the final embeddings for TASTI-PT).
/// * `labeler` — the metered target labeler; training points and cluster
///   representatives are annotated through it (each annotation stage is one
///   batched inner call), so its meter reflects construction cost
///   afterwards.
/// * `closeness` — the user's closeness function, used to bucket training
///   annotations for triplet construction (§3.1).
///
/// # Errors
/// Propagates [`BudgetExhausted`] if the labeler's hard budget cannot cover
/// the configured `N₁ + N₂` annotations.
pub fn build_index<L: BatchTargetLabeler>(
    features: &Matrix,
    pretrained: &Matrix,
    labeler: &MeteredLabeler<L>,
    closeness: &dyn ClosenessFn,
    config: &TastiConfig,
) -> Result<(TastiIndex, BuildReport), BudgetExhausted> {
    match try_build_index(features, pretrained, labeler, closeness, config) {
        Ok(built) => Ok(built),
        Err(BuildError::Budget(b)) => Err(b),
        // The blanket fallible impl over infallible labelers never faults.
        Err(BuildError::Fault { stage, fault }) => {
            panic!("infallible labeler faulted during `{stage}`: {fault}")
        }
    }
}

/// Fault-aware [`build_index`]: accepts any [`FallibleTargetLabeler`]
/// (a [`tasti_labeler::ResilientLabeler`] over a live oracle, a
/// [`tasti_labeler::FaultInjectingLabeler`] in chaos tests) and surfaces
/// unrecoverable faults as a typed [`BuildError`] instead of panicking.
///
/// Labels completed before the fault stay cached and billed exactly once
/// (the meter releases the faulted call's reservation), so retrying the
/// build after recovery pays only for what is still missing.
pub fn try_build_index<L: FallibleTargetLabeler>(
    features: &Matrix,
    pretrained: &Matrix,
    labeler: &MeteredLabeler<L>,
    closeness: &dyn ClosenessFn,
    config: &TastiConfig,
) -> Result<(TastiIndex, BuildReport), BuildError> {
    assert_eq!(
        features.rows(),
        pretrained.rows(),
        "features/pretrained row mismatch"
    );
    assert!(features.rows() > 0, "cannot index an empty dataset");
    let n = features.rows();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    // Per-stage wall-clock + labeler-invocation deltas; the recorder's
    // stage list sums exactly to the meter's total by construction.
    let mut rec = StageRecorder::new();
    let mut triplet_loss = f32::NAN;
    let mut training_forward_rows = 0u64;

    // ── Stage 1+2: mine training points on pre-trained embeddings and
    //    annotate them (skipped entirely for TASTI-PT: no training → no
    //    training labels).
    let (embeddings, trained_model) = if config.train_embedding {
        rec.start("mining", labeler.invocations());
        let mining = select_threaded(
            pretrained.as_slice(),
            pretrained.cols(),
            config.n_train.min(n),
            config.metric,
            config.mining,
            0,
            &mut rng,
            config.threads,
        );
        rec.finish(labeler.invocations());

        // Annotate and bucket the training points (§3.1). FPF-selected
        // records are distinct, so the whole stage is one batched inner
        // call — meter-identical to labeling them one by one.
        rec.start("annotate-train", labeler.invocations());
        let outputs = labeler
            .try_label_batch_fallible(&mining.selected)
            .map_err(|e| match e {
                LabelerError::Budget(b) => BuildError::Budget(b),
                LabelerError::Fault(fault) => BuildError::Fault {
                    stage: "annotate-train",
                    fault,
                },
            })?;
        let mut buckets = Vec::with_capacity(mining.selected.len());
        let mut bucket_ids: std::collections::HashMap<u64, usize> = Default::default();
        for out in &outputs {
            let key = closeness.bucket(out);
            let next = bucket_ids.len();
            buckets.push(*bucket_ids.entry(key).or_insert(next));
        }
        rec.finish(labeler.invocations());

        // ── Stage 3: triplet fine-tuning (§3.1) over the raw features of
        //    the mined records.
        rec.start("triplet-train", labeler.invocations());
        let train_features = features.select_rows(&mining.selected);
        let mlp_config = MlpConfig::embedding(features.cols(), config.embedding_dim);
        let mut net = Mlp::new(&mlp_config, &mut rng);
        let mut opt = Adam::new(3e-3);
        let report = fit_triplet(
            &mut net,
            &train_features,
            &buckets,
            &config.triplet,
            &mut opt,
            &mut rng,
        );
        triplet_loss = report.final_loss;
        training_forward_rows = (report.steps * config.triplet.batch_size * 3) as u64;
        rec.finish(labeler.invocations());

        // ── Stage 4: embed every record with the fine-tuned model
        //    (fanned out across threads; §3.4 notes embedding all records is
        //    a first-order construction cost).
        rec.start("embed", labeler.invocations());
        let emb = parallel_embed(&net, features, config.threads);
        rec.finish(labeler.invocations());
        (emb, Some(net))
    } else {
        // TASTI-PT: the pre-trained embeddings are the index embeddings.
        (pretrained.clone(), None)
    };

    // ── Stage 5: select cluster representatives (§3.2).
    rec.start("cluster", labeler.invocations());
    let clustering = select_threaded(
        embeddings.as_slice(),
        embeddings.cols(),
        config.n_reps.min(n),
        config.metric,
        config.clustering,
        0,
        &mut rng,
        config.threads,
    );
    rec.finish(labeler.invocations());

    // ── Stage 6: annotate the representatives — one batched inner call
    //    (training-point overlap is served from the labeler's cache).
    rec.start("annotate-reps", labeler.invocations());
    let rep_outputs = labeler
        .try_label_batch_fallible(&clustering.selected)
        .map_err(|e| match e {
            LabelerError::Budget(b) => BuildError::Budget(b),
            LabelerError::Fault(fault) => BuildError::Fault {
                stage: "annotate-reps",
                fault,
            },
        })?;
    rec.finish(labeler.invocations());

    // ── Stage 7: min-k distance table.
    rec.start("distances", labeler.invocations());
    let rep_embeddings: Vec<f32> = clustering
        .selected
        .iter()
        .flat_map(|&r| embeddings.row(r).iter().copied())
        .collect();
    let (mink, assign_stats) = MinKTable::build_with_strategy(
        embeddings.as_slice(),
        &rep_embeddings,
        embeddings.cols(),
        config.k,
        config.metric,
        config.threads, // 0 = auto; per-record work is independent and deterministic
        &config.assign_strategy,
    );
    rec.finish(labeler.invocations());

    let stages = rec.into_stages();
    let distance_computations = assign_stats.candidate_total;
    let total_invocations = stages.iter().map(|s| s.labeler_invocations).sum();
    let report = BuildReport {
        stages,
        triplet_loss,
        total_invocations,
        n_records: n,
        training_forward_rows,
        distance_computations,
        assign: Some(assign_telemetry(&assign_stats)),
    };
    let mut index = TastiIndex::new(
        embeddings,
        config.metric,
        config.k,
        clustering.selected,
        rep_outputs,
        mink,
    )
    .with_assign_strategy(config.assign_strategy);
    if let Some(net) = trained_model {
        // Carrying the trained model enables streaming ingest of new
        // records (TastiIndex::append_records).
        index = index.with_model(net);
    }
    Ok((index, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::{CountClass, ScoringFunction};
    use tasti_cluster::SelectionStrategy;
    use tasti_data::video::night_street;
    use tasti_data::{OracleLabeler, PretrainedEmbedder};
    use tasti_labeler::{FaultInjectingLabeler, FaultKind, FaultPlan, ObjectClass, VideoCloseness};
    use tasti_nn::metrics::rho_squared;
    use tasti_nn::TripletConfig;

    fn small_config() -> TastiConfig {
        TastiConfig {
            n_train: 60,
            n_reps: 120,
            k: 5,
            embedding_dim: 8,
            triplet: TripletConfig {
                steps: 150,
                batch_size: 16,
                margin: 0.3,
            },
            ..TastiConfig::default()
        }
    }

    fn build_night_street(
        config: &TastiConfig,
    ) -> (
        tasti_data::Dataset,
        MeteredLabeler<OracleLabeler>,
        TastiIndex,
        BuildReport,
    ) {
        let preset = night_street(1200, 42);
        let dataset = preset.dataset;
        let labeler = MeteredLabeler::new(OracleLabeler::mask_rcnn(dataset.truth_handle()));
        let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, 3);
        let pretrained = pt.embed_all(&dataset.features);
        let (index, report) = build_index(
            &dataset.features,
            &pretrained,
            &labeler,
            &VideoCloseness::default(),
            config,
        )
        .expect("unbudgeted build cannot fail");
        (dataset, labeler, index, report)
    }

    #[test]
    fn build_produces_configured_shape() {
        let config = small_config();
        let (dataset, labeler, index, report) = build_night_street(&config);
        assert_eq!(index.n_records(), dataset.len());
        assert_eq!(index.reps().len(), config.n_reps);
        assert_eq!(index.embedding_dim(), config.embedding_dim);
        // Invocation accounting: ≤ N₁ + N₂ (overlap dedupes), > 0.
        assert!(report.total_invocations <= (config.n_train + config.n_reps) as u64);
        assert!(report.total_invocations > 0);
        assert_eq!(report.total_invocations, labeler.invocations());
        assert!(report.total_seconds() > 0.0);
        assert!(report.triplet_loss.is_finite());
    }

    #[test]
    fn rep_outputs_match_ground_truth() {
        let config = small_config();
        let (dataset, _labeler, index, _report) = build_night_street(&config);
        for (i, &rec) in index.reps().iter().enumerate() {
            assert_eq!(index.rep_output(i), dataset.ground_truth(rec));
        }
    }

    #[test]
    fn trained_proxy_scores_correlate_with_truth() {
        let config = small_config();
        let (dataset, _labeler, index, _report) = build_night_street(&config);
        let score_fn = CountClass(ObjectClass::Car);
        let proxy = index.propagate(&score_fn);
        let truth = dataset.true_scores(|o| score_fn.score(o));
        let rho2 = rho_squared(&proxy, &truth);
        assert!(
            rho2 > 0.3,
            "trained index proxy should correlate with truth: ρ² = {rho2}"
        );
    }

    #[test]
    fn pretrained_build_skips_training_stages_and_labels() {
        let config = small_config().pretrained_only();
        let (_dataset, labeler, index, report) = build_night_street(&config);
        assert!(report.triplet_loss.is_nan());
        assert_eq!(report.stage_invocations("annotate-train"), 0);
        assert_eq!(labeler.invocations(), config.n_reps as u64);
        assert_eq!(index.reps().len(), config.n_reps);
        assert!(report.stages.iter().all(|s| s.name != "triplet-train"));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let preset = night_street(400, 7);
        let dataset = preset.dataset;
        let labeler =
            MeteredLabeler::with_budget(OracleLabeler::mask_rcnn(dataset.truth_handle()), 10);
        let config = small_config();
        let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, 3);
        let pretrained = pt.embed_all(&dataset.features);
        let result = build_index(
            &dataset.features,
            &pretrained,
            &labeler,
            &VideoCloseness::default(),
            &config,
        );
        assert_eq!(result.err(), Some(BudgetExhausted { budget: 10 }));
    }

    #[test]
    fn random_ablation_builds_successfully() {
        let config = TastiConfig {
            mining: SelectionStrategy::Random,
            clustering: SelectionStrategy::Random,
            ..small_config()
        };
        let (_dataset, _labeler, index, _report) = build_night_street(&config);
        assert_eq!(index.reps().len(), config.n_reps);
    }

    #[test]
    fn build_is_deterministic_given_seed() {
        let config = small_config();
        let (_d1, _l1, i1, _r1) = build_night_street(&config);
        let (_d2, _l2, i2, _r2) = build_night_street(&config);
        assert_eq!(i1.reps(), i2.reps());
        assert_eq!(i1.embeddings(), i2.embeddings());
    }

    #[test]
    fn telemetry_totals_match_the_meter_exactly() {
        let config = small_config();
        let (_d, labeler, _i, report) = build_night_street(&config);
        let t = report.telemetry();
        assert_eq!(t.total_invocations, labeler.invocations());
        assert_eq!(t.stages.len(), report.stages.len());
        assert!((t.total_seconds - report.total_seconds()).abs() < 1e-12);
        assert_eq!(
            t.stage_invocations("annotate-reps"),
            report.stage_invocations("annotate-reps")
        );
        // The dep-free serializer produces a parseable JSON object.
        let json = t.to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(
            parsed["total_invocations"].as_u64(),
            Some(labeler.invocations())
        );
    }

    #[test]
    fn oracle_fault_aborts_the_build_with_stage_context() {
        // Pretrained-only build: the sole annotation stage is annotate-reps,
        // and the scripted fault hits its one batched call.
        let preset = night_street(400, 7);
        let dataset = preset.dataset;
        let inner = FaultInjectingLabeler::with_script(
            OracleLabeler::mask_rcnn(dataset.truth_handle()),
            FaultPlan::default(),
            [Some(FaultKind::Fatal)],
        );
        let labeler = MeteredLabeler::new(inner);
        let config = small_config().pretrained_only();
        let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, 3);
        let pretrained = pt.embed_all(&dataset.features);
        let err = try_build_index(
            &dataset.features,
            &pretrained,
            &labeler,
            &VideoCloseness::default(),
            &config,
        )
        .expect_err("scripted fatal fault must abort the build");
        match err {
            BuildError::Fault { stage, .. } => assert_eq!(stage, "annotate-reps"),
            other => panic!("expected an oracle fault, got {other:?}"),
        }
        // The faulted batch billed nothing and left no reservation behind.
        assert_eq!(labeler.invocations(), 0);
        assert_eq!(labeler.reserved(), 0);
    }

    #[test]
    fn retrying_after_a_fault_resumes_from_the_cache() {
        // Trained build: annotate-train (call 1) succeeds, annotate-reps
        // (call 2) faults. The retry re-derives the same training points
        // (seeded build) and pays for them from the cache.
        let preset = night_street(400, 7);
        let dataset = preset.dataset;
        let inner = FaultInjectingLabeler::with_script(
            OracleLabeler::mask_rcnn(dataset.truth_handle()),
            FaultPlan::default(),
            [None, Some(FaultKind::Transient)],
        );
        let labeler = MeteredLabeler::new(inner);
        let config = small_config();
        let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, 3);
        let pretrained = pt.embed_all(&dataset.features);
        let err = try_build_index(
            &dataset.features,
            &pretrained,
            &labeler,
            &VideoCloseness::default(),
            &config,
        )
        .expect_err("scripted transient fault must abort the build");
        assert!(matches!(err, BuildError::Fault { stage, .. } if stage == "annotate-reps"));
        let paid_before_fault = labeler.invocations();
        assert_eq!(paid_before_fault, config.n_train as u64);
        assert_eq!(labeler.reserved(), 0);

        // Script exhausted → the oracle has recovered; the retry completes.
        let (index, report) = try_build_index(
            &dataset.features,
            &pretrained,
            &labeler,
            &VideoCloseness::default(),
            &config,
        )
        .expect("retry after recovery must succeed");
        assert_eq!(index.reps().len(), config.n_reps);
        // Exactly-once billing across the failed attempt and the retry:
        // nothing paid before the fault is paid again.
        assert!(labeler.invocations() <= (config.n_train + config.n_reps) as u64);
        assert!(labeler.cache_hits() >= config.n_train as u64);
        assert!(report.total_invocations <= labeler.invocations());
    }

    #[test]
    fn fault_aware_build_is_identical_to_classic_without_faults() {
        let config = small_config();
        let (dataset, classic_labeler, classic_index, classic_report) = build_night_street(&config);
        let inner = FaultInjectingLabeler::new(
            OracleLabeler::mask_rcnn(dataset.truth_handle()),
            FaultPlan::default(),
        );
        let labeler = MeteredLabeler::new(inner);
        let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, 3);
        let pretrained = pt.embed_all(&dataset.features);
        let (index, report) = try_build_index(
            &dataset.features,
            &pretrained,
            &labeler,
            &VideoCloseness::default(),
            &config,
        )
        .expect("fault-free fallible build must succeed");
        assert_eq!(index.reps(), classic_index.reps());
        assert_eq!(index.embeddings(), classic_index.embeddings());
        assert_eq!(labeler.invocations(), classic_labeler.invocations());
        assert_eq!(report.total_invocations, classic_report.total_invocations);
    }

    #[test]
    fn stage_names_cover_algorithm_one() {
        let config = small_config();
        let (_d, _l, _i, report) = build_night_street(&config);
        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "mining",
            "annotate-train",
            "triplet-train",
            "embed",
            "cluster",
            "annotate-reps",
            "distances",
        ] {
            assert!(names.contains(&expected), "missing stage {expected}");
        }
    }
}
