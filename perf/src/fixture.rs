//! Seeded inputs and ground truth: the dataset, the request templates, the
//! cold query stream, the ingest batches, and the answer checks.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tasti::data::{Dataset, OracleLabeler, PretrainedEmbedder};
use tasti::index::{build_index, BuildReport, TastiConfig, TastiIndex};
use tasti::labeler::{
    BatchTargetLabeler, CostModel, LabelerOutput, MeteredLabeler, ObjectClass, Schema,
    VideoCloseness,
};
use tasti::nn::Matrix;
use tasti::serve::proto::{Op, Reply, Request, ScoreSpec};
use tasti_obs::JsonValue;

pub const DATASET: &str = "night-street";

/// Seed of the corpus (dataset render and index build). Fixed: `--seed`
/// draws the *requests* over this corpus (template parameters and sampling
/// seeds, the cold stream), so label counts and build work repeat exactly
/// across seeds and their regression bounds can be tight.
pub const CORPUS_SEED: u64 = 42;

/// Sizes of one benchmark configuration. `full` is what `BENCHMARK.json`
/// runs; `smoke` runs every code path in a couple of seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    pub name: &'static str,
    /// Length of the measured phase when `--seconds` is not given.
    pub seconds: f64,
    /// Records of the `serve_*` index, and of the dataset `ingest_mixed`
    /// serves (its index starts `ingest_rows` short of that).
    pub records: usize,
    /// Rows `ingest_mixed` can stream before it runs out.
    pub ingest_rows: usize,
    /// Batches per measured second the `ingest_mixed` writer is given: it
    /// sends `seconds × this` batches back to back, a count rather than a
    /// deadline so the frames replayed after the kill repeat exactly. Set to
    /// the recorded ingest rate, so the writer is busy for about `seconds`.
    pub ingest_batches_per_s: f64,
    pub reps: usize,
    pub train: usize,
    pub dim: usize,
    pub templates: usize,
    /// Distinct queries, from a fresh server's first on, whose billed
    /// labels are counted exactly (`invocations_per_query`). Many, because
    /// how many labels one EBS query draws depends on its sampling seed:
    /// over 48 queries the bill varied 4–6 % from seed to seed, over these
    /// it varies under 2 %.
    pub counted_queries: usize,
    /// Queries of the `serve_cold` stream issued during set-up, to get the
    /// index past its assignment rebuilds (see `Run::crack_in`).
    pub crack_in: usize,
    pub batch_rows: usize,
    /// Untimed fixture builds before the timed ones. On the recording
    /// machine a CPU that idled for a few seconds runs the same build 20 %
    /// slower than a busy one, and takes two builds to get from one state to
    /// the other; the harness mostly waits on sockets, so builds spread
    /// among the set-ups landed in either state (`build_s` 1.15 s or 1.40 s).
    pub build_ramp: usize,
    /// Fixture builds timed per run, back to back after the ramp; `build_s`
    /// is their median. Five, because about one build in five runs 10 % slow
    /// whatever precedes it.
    pub timed_builds: usize,
    /// Servers started and primed per run; `setup_s` is the median build
    /// plus their median.
    pub setup_repeats: usize,
    /// Kill/restart cycles per run; `restart_s` is their median.
    pub restarts: usize,
    /// Open-loop request rate of the traced `serve_warm` run (≈ half the
    /// closed-loop `query_ops_s` recorded in the baseline, then frozen).
    pub open_rate: f64,
    /// Oracle labels a single query may bill (EBS sample floor, SUPG and
    /// predicate budgets): small, so a cold query's crack pass stays short.
    pub label_budget: usize,
}

pub const FULL: Profile = Profile {
    name: "full",
    seconds: crate::metrics::RUN_SECONDS as f64,
    records: 20_000,
    ingest_rows: 9_984,
    ingest_batches_per_s: 12.0,
    reps: 800,
    train: 500,
    dim: 32,
    templates: 48,
    counted_queries: 144,
    crack_in: 24,
    batch_rows: 64,
    build_ramp: 2,
    timed_builds: 5,
    setup_repeats: 3,
    restarts: 3,
    open_rate: 22.0,
    label_budget: 100,
};

pub const SMOKE: Profile = Profile {
    name: "smoke",
    seconds: 1.5,
    records: 2_000,
    ingest_rows: 640,
    ingest_batches_per_s: 8.0,
    reps: 200,
    train: 100,
    dim: 16,
    templates: 20,
    counted_queries: 30,
    crack_in: 4,
    batch_rows: 32,
    build_ramp: 0,
    timed_builds: 1,
    setup_repeats: 1,
    restarts: 1,
    open_rate: 100.0,
    label_budget: 60,
};

impl Profile {
    /// Records of the dataset `workload`'s server is started over.
    pub fn served_records(&self, workload: &str) -> usize {
        match workload {
            "ingest_mixed" => self.records + self.ingest_rows,
            _ => self.records,
        }
    }

    /// Batches the `ingest_mixed` writer sends in a phase of `seconds`.
    pub fn ingest_batches(&self, seconds: f64) -> usize {
        ((seconds * self.ingest_batches_per_s).ceil() as usize)
            .clamp(3, self.ingest_rows / self.batch_rows)
    }

    pub fn parse(name: &str) -> Result<Profile, String> {
        match name {
            "full" => Ok(FULL),
            "smoke" => Ok(SMOKE),
            other => Err(format!("unknown profile '{other}' (full|smoke)")),
        }
    }
}

pub fn oracle(truth: Arc<Vec<LabelerOutput>>) -> OracleLabeler {
    // Same construction as `tasti_cli build`/`serve`.
    OracleLabeler::new(
        truth,
        CostModel::mask_rcnn().target,
        Schema::object_detection(),
        "oracle",
    )
}

/// Regenerates the dataset the CLI regenerates from
/// `(night-street, n, CORPUS_SEED)`; returns it with the generation time in
/// milliseconds.
pub fn dataset(n: usize) -> (Dataset, f64) {
    let t = Instant::now();
    let d = tasti::data::video::night_street(n, CORPUS_SEED).dataset;
    (d, t.elapsed().as_secs_f64() * 1e3)
}

/// An index built in-process, the way `tasti_cli build` builds it, over the
/// first `n_index` records of `dataset`.
pub struct Built {
    pub index: TastiIndex,
    pub report: BuildReport,
    pub pretrained_embed_s: f64,
    pub invocations: u64,
}

pub fn build_in_process<L: BatchTargetLabeler>(
    dataset: &Dataset,
    n_index: usize,
    profile: &Profile,
    labeler: &MeteredLabeler<L>,
) -> Result<Built, String> {
    let seed = CORPUS_SEED;
    let features = if n_index == dataset.len() {
        dataset.features.clone()
    } else {
        let cols = dataset.feature_dim();
        Matrix::from_fn(n_index, cols, |r, c| dataset.features.row(r)[c])
    };
    let config = TastiConfig {
        n_train: profile.train,
        n_reps: profile.reps,
        embedding_dim: profile.dim,
        seed,
        ..TastiConfig::default()
    };
    let t = Instant::now();
    let mut pt = PretrainedEmbedder::new(features.cols(), config.embedding_dim, seed ^ 0x50);
    let pretrained = pt.embed_all(&features);
    let pretrained_embed_s = t.elapsed().as_secs_f64();
    let (index, report) = build_index(
        &features,
        &pretrained,
        labeler,
        &VideoCloseness::default(),
        &config,
    )
    .map_err(|e| e.to_string())?;
    Ok(Built {
        index,
        report,
        pretrained_embed_s,
        invocations: labeler.invocations(),
    })
}

/// Builds the index over the first `n_index` records of the
/// `n_dataset`-record corpus and saves it to `out`, the way `tasti_cli build`
/// does; returns the labeler calls it cost.
pub fn build_fixture(
    n_dataset: usize,
    n_index: usize,
    profile: &Profile,
    out: &std::path::Path,
) -> Result<u64, String> {
    let (dataset, _) = dataset(n_dataset);
    let labeler = MeteredLabeler::new(oracle(dataset.truth_handle()));
    let built = build_in_process(&dataset, n_index, profile, &labeler)?;
    tasti::index::persist::save(&built.index, out).map_err(|e| e.to_string())?;
    Ok(built.invocations)
}

/// How a reply to a template is checked against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// `|estimate − truth mean| ≤ error_target`, with probability ≥ confidence.
    Ebs { error_target: f64 },
    /// Recall of the returned set ≥ target, with probability ≥ confidence.
    SupgRecall { target: f64 },
    /// Precision of the returned set ≥ target, with probability ≥ confidence.
    SupgPrecision { target: f64 },
    /// Every hit truly matches (always).
    Limit,
    /// The estimate is a finite number (or null when nothing matched).
    Predicate,
}

/// Confidence every guarantee-carrying template asks for, and the answer
/// checks hold the server to.
pub const CONFIDENCE: f64 = 0.95;

/// One request of the workload mix, without an id.
#[derive(Debug, Clone)]
pub struct Template {
    pub req: Request,
    pub check: Check,
}

const CAR: ObjectClass = ObjectClass::Car;

/// The template set: `n` requests over the five query ops in the mix 30 %
/// EBS, 20 % SUPG recall, 15 % SUPG precision, 20 % limit, 15 % predicate
/// aggregation, interleaved so any window sees the mix. Targets, thresholds
/// and budgets cycle through fixed values by position, so the label demand
/// of the set is comparable across seeds; `seed` draws every sampling seed,
/// i.e. which records each query asks the oracle about.
pub fn templates(profile: &Profile, seed: u64) -> Vec<Template> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7E3A_11A7);
    let n = profile.templates;
    let quota = |share: f64| ((n as f64 * share).round() as usize).max(1);
    let mut left = [
        (Op::EbsAggregate, quota(0.30)),
        (Op::SupgRecallTarget, quota(0.20)),
        (Op::SupgPrecisionTarget, quota(0.15)),
        (Op::LimitQuery, quota(0.20)),
        (Op::PredicateAggregate, quota(0.15)),
    ];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let before = out.len();
        for (op, c) in left.iter_mut() {
            if *c > 0 && out.len() < n {
                *c -= 1;
                // `*c` counts down, so it numbers the op's templates.
                out.push(template(
                    *op,
                    *c,
                    profile,
                    rng.gen_range(1..u32::MAX as u64),
                ));
            }
        }
        if out.len() == before {
            // Rounding left the quotas short of `n`: top up with EBS.
            left[0].1 = n - out.len();
        }
    }
    out
}

/// The `slot`-th template of `op`; `slot` picks its parameters from fixed
/// cycles.
fn template(op: Op, slot: usize, profile: &Profile, seed: u64) -> Template {
    fn pick<T: Copy>(values: &[T], slot: usize) -> T {
        values[slot % values.len()]
    }
    let mut req = Request::new(op);
    req.seed = Some(seed);
    req.confidence = Some(CONFIDENCE);
    let budget = profile.label_budget * pick(&[4, 5, 6], slot) / 4;
    let check = match op {
        Op::EbsAggregate => {
            // Loose enough that EBS stops within a few batches of its
            // 100-sample floor.
            let error_target = pick(&[0.6, 0.5, 0.45, 0.4], slot);
            req.score = Some(ScoreSpec::CountClass(CAR));
            req.error_target = Some(error_target);
            Check::Ebs { error_target }
        }
        Op::SupgRecallTarget => {
            let target = pick(&[0.75, 0.8, 0.85, 0.9], slot);
            req.score = Some(ScoreSpec::HasAtLeast(CAR, pick(&[1, 2, 3], slot)));
            req.recall_target = Some(target);
            req.budget = Some(budget);
            Check::SupgRecall { target }
        }
        Op::SupgPrecisionTarget => {
            let target = pick(&[0.75, 0.8, 0.85, 0.9], slot);
            req.score = Some(ScoreSpec::HasAtLeast(CAR, pick(&[1, 2, 3], slot)));
            req.precision_target = Some(target);
            req.budget = Some(budget);
            Check::SupgPrecision { target }
        }
        Op::LimitQuery => {
            req.score = Some(ScoreSpec::CountClass(CAR));
            req.threshold = Some(pick(&[2.0, 3.0, 4.0], slot));
            req.k_matches = Some(pick(&[5, 8, 10, 6], slot));
            req.probe_batch = Some(4);
            Check::Limit
        }
        Op::PredicateAggregate => {
            req.score = Some(ScoreSpec::MeanXPosition(CAR));
            req.predicate = Some(ScoreSpec::HasAtLeast(CAR, pick(&[1, 2], slot)));
            req.budget = Some(budget);
            Check::Predicate
        }
        other => unreachable!("{other:?} is not part of the query mix"),
    };
    Template { req, check }
}

/// The `i`-th query of the cold stream: template `i mod n` with a sampling
/// seed no other query of the run uses, so every query bills fresh labels.
pub fn cold_query(templates: &[Template], i: usize, seed: u64) -> Template {
    let mut t = templates[i % templates.len()].clone();
    // Below 2^53 so the JSON number round-trips exactly.
    let mixed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    t.req.seed = Some((mixed >> 16) | 1);
    t
}

/// The rows of ingest batch `b`: raw features of dataset records
/// `start .. start + batch_rows`, which the server's oracle can label.
pub fn ingest_batch(dataset: &Dataset, start: usize, rows: usize) -> Request {
    let mut req = Request::new(Op::Ingest);
    req.rows = Some(
        (start..start + rows)
            .map(|r| dataset.features.row(r).to_vec())
            .collect(),
    );
    req
}

/// Ground truth for one template's answer checks: the oracle score of every
/// record under the template's scoring function, with prefix sums so the
/// mean and the match count over the first `n` records (the index grows
/// under ingest) are O(1).
pub struct TemplateTruth {
    scores: Vec<f64>,
    sum_prefix: Vec<f64>,
    match_prefix: Vec<u32>,
    threshold: f64,
}

impl TemplateTruth {
    pub fn new(dataset: &Dataset, template: &Template) -> Self {
        let score = template
            .req
            .score
            .as_ref()
            .expect("query templates carry a score")
            .to_scoring();
        let threshold = template.req.threshold.unwrap_or(0.5);
        let scores = dataset.true_scores(|o| score.score(o));
        let mut sum_prefix = vec![0.0];
        let mut match_prefix = vec![0u32];
        for &s in &scores {
            sum_prefix.push(sum_prefix.last().expect("seeded") + s);
            match_prefix.push(match_prefix.last().expect("seeded") + u32::from(s >= threshold));
        }
        Self {
            scores,
            sum_prefix,
            match_prefix,
            threshold,
        }
    }

    fn mean(&self, n: usize) -> f64 {
        self.sum_prefix[n] / n as f64
    }

    fn matches(&self, record: usize) -> bool {
        self.scores[record] >= self.threshold
    }
}

fn record_list(v: Option<&JsonValue>) -> Option<Vec<usize>> {
    v?.as_array()?
        .iter()
        .map(|x| x.as_u64().map(|r| r as usize))
        .collect()
}

/// Outcome of checking one reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Parsed, ok, and (where the guarantee is deterministic) correct.
    Pass,
    /// A probabilistic guarantee (EBS error bound, SUPG target) held.
    Held,
    /// A probabilistic guarantee was missed: allowed in at most
    /// `1 − confidence` of distinct answers.
    GuaranteeMiss(String),
    /// Never acceptable: an error reply, a malformed result, a limit hit
    /// that does not match.
    Fail(String),
}

/// Whether a certified SUPG answer — the full `returned` set — meets its
/// recall or precision target on ground truth. Recall is judged over the
/// smallest index the server may have had: rows ingested mid-query cannot
/// be demanded of it.
pub fn check_selection(
    truth: &TemplateTruth,
    template: &Template,
    returned: &[usize],
    (lo, hi): (usize, usize),
) -> Verdict {
    if let Some(r) = returned.iter().find(|&&r| r >= hi) {
        return Verdict::Fail(format!("supg returned record {r} beyond the index"));
    }
    let (achieved, target, what) = match template.check {
        Check::SupgRecall { target } => {
            let positives = truth.match_prefix[lo];
            let hits = returned
                .iter()
                .filter(|&&r| r < lo && truth.matches(r))
                .count();
            let recall = if positives == 0 {
                1.0
            } else {
                hits as f64 / positives as f64
            };
            (recall, target, "recall")
        }
        Check::SupgPrecision { target } => {
            let hits = returned.iter().filter(|&&r| truth.matches(r)).count();
            let precision = if returned.is_empty() {
                1.0
            } else {
                hits as f64 / returned.len() as f64
            };
            (precision, target, "precision")
        }
        _ => return Verdict::Pass,
    };
    if achieved >= target {
        Verdict::Held
    } else {
        Verdict::GuaranteeMiss(format!("supg {what} {achieved:.4} below target {target}"))
    }
}

/// Checks `reply` to `template`. `records` is the inclusive range of index
/// sizes the server may have answered over (a single value unless ingest is
/// running).
pub fn check_reply(
    truth: &TemplateTruth,
    template: &Template,
    reply: &Reply,
    records: (usize, usize),
) -> Verdict {
    if !reply.ok {
        return Verdict::Fail(format!(
            "{} failed: {} ({})",
            template.req.op.name(),
            reply.error_message.as_deref().unwrap_or("?"),
            reply.error_kind.as_deref().unwrap_or("?")
        ));
    }
    let certified = reply
        .telemetry
        .as_ref()
        .and_then(|t| t.get("certified"))
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let result = &reply.result;
    let (lo, hi) = records;
    match &template.check {
        Check::Ebs { error_target } => {
            let Some(estimate) = result.get("estimate").and_then(JsonValue::as_f64) else {
                return Verdict::Fail("ebs reply without an estimate".into());
            };
            if !certified {
                return Verdict::Pass;
            }
            // Smallest distance to the true mean over any index size the
            // server may have been at.
            let gap = (lo..=hi)
                .step_by(((hi - lo) / 64).max(1))
                .chain([hi])
                .map(|n| (estimate - truth.mean(n)).abs())
                .fold(f64::INFINITY, f64::min);
            if gap <= *error_target {
                Verdict::Held
            } else {
                Verdict::GuaranteeMiss(format!(
                    "ebs estimate {estimate} is {gap:.4} from truth (target {error_target})"
                ))
            }
        }
        Check::SupgRecall { .. } | Check::SupgPrecision { .. } => {
            let Some(returned) = record_list(result.get("returned")) else {
                return Verdict::Fail("supg reply without a returned list".into());
            };
            // The wire caps `returned` at 1000 records; recall and precision
            // of a truncated list say nothing about the full set. (The
            // traced run checks the untruncated result in-process.)
            let truncated = result.get("truncated").and_then(JsonValue::as_bool) == Some(true);
            if !certified || truncated {
                return match returned.iter().find(|&&r| r >= hi) {
                    Some(r) => Verdict::Fail(format!("supg returned record {r} beyond the index")),
                    None => Verdict::Pass,
                };
            }
            check_selection(truth, template, &returned, records)
        }
        Check::Limit => {
            let Some(found) = record_list(result.get("found")) else {
                return Verdict::Fail("limit reply without a found list".into());
            };
            match found.iter().find(|&&r| r >= hi || !truth.matches(r)) {
                Some(r) => Verdict::Fail(format!("limit hit {r} does not match")),
                None => Verdict::Pass,
            }
        }
        Check::Predicate => match result.get("estimate") {
            Some(JsonValue::Number(v)) if v.is_finite() => Verdict::Pass,
            Some(JsonValue::Null) => Verdict::Pass,
            _ => Verdict::Fail("predicate reply without an estimate".into()),
        },
    }
}

/// Hash of a reply's result object, cut out of the raw line: the `id` before
/// it and the telemetry (wall-clock fields) after it differ between
/// otherwise identical answers.
pub fn answer_hash(line: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let from = line.find("\"result\":").unwrap_or(0);
    let to = line.rfind(",\"telemetry\":").unwrap_or(line.len());
    let mut h = std::collections::hash_map::DefaultHasher::new();
    line[from..to.max(from)].hash(&mut h);
    h.finish()
}

/// Tallies verdicts. Guarantee misses are counted once per *distinct*
/// answer of a template: a frozen index answers a repeated query
/// identically, and one unlucky draw must not be counted a thousand times.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// (template, answer hash) → whether that answer missed its
    /// probabilistic guarantee; `None` for answers that carry none.
    distinct: BTreeMap<(usize, u64), Option<bool>>,
}

impl Checker {
    /// Counts one answered operation; returns whether this exact answer to
    /// this template still needs checking (it was not seen before).
    pub fn attempt(&mut self, template_idx: usize, answer: u64) -> bool {
        self.attempted += 1;
        !self.distinct.contains_key(&(template_idx, answer))
    }

    pub fn record(&mut self, template_idx: usize, answer: u64, verdict: Verdict) {
        let missed = match verdict {
            Verdict::Pass => None,
            Verdict::Held => Some(false),
            Verdict::GuaranteeMiss(why) => {
                self.note(format!("guarantee miss: {why}"));
                Some(true)
            }
            Verdict::Fail(why) => {
                self.failed += 1;
                self.note(why);
                None
            }
        };
        self.distinct.insert((template_idx, answer), missed);
    }

    /// An operation that failed outright before there was an answer to
    /// check (transport error, refused, timed out, unparsable).
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(why);
    }

    fn note(&mut self, why: String) {
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.failures {
            self.note(why);
        }
        self.distinct.extend(other.distinct);
    }

    /// Whether the guarantee misses are within what `1 − confidence` allows:
    /// at most the 99.9th percentile of Binomial(distinct answers, δ). The
    /// `Ok` text reports the tally when there were misses at all.
    pub fn guarantees_hold(&self) -> Result<Option<String>, String> {
        let n = self.distinct.values().flatten().count();
        let misses = self.distinct.values().flatten().filter(|&&m| m).count();
        let allowed = binomial_quantile(n, 1.0 - CONFIDENCE, 0.999);
        let tally = format!(
            "{misses} of {n} distinct guaranteed answers missed their guarantee ({allowed} allowed at \
             confidence {CONFIDENCE})"
        );
        match misses {
            0 => Ok(None),
            m if m <= allowed => Ok(Some(tally)),
            _ => Err(tally),
        }
    }
}

/// Smallest `v` with `P(Binomial(n, p) ≤ v) ≥ q`.
fn binomial_quantile(n: usize, p: f64, q: f64) -> usize {
    let mut pmf = (1.0 - p).powi(n as i32);
    let mut cdf = pmf;
    let mut v = 0;
    while cdf < q && v < n {
        pmf *= (n - v) as f64 / (v + 1) as f64 * p / (1.0 - p);
        cdf += pmf;
        v += 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_are_seed_deterministic_and_follow_the_mix() {
        let a = templates(&FULL, 42);
        let b = templates(&FULL, 42);
        let c = templates(&FULL, 7);
        assert_eq!(a.len(), 48);
        let lines = |t: &[Template]| t.iter().map(|t| t.req.to_json()).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
        let count = |op| a.iter().filter(|t| t.req.op == op).count();
        assert_eq!(count(Op::EbsAggregate), 14);
        assert_eq!(count(Op::SupgRecallTarget), 10);
        assert_eq!(count(Op::SupgPrecisionTarget), 7);
        assert_eq!(count(Op::LimitQuery), 10);
        assert_eq!(count(Op::PredicateAggregate), 7);
    }

    #[test]
    fn cold_queries_never_repeat_a_seed() {
        let t = templates(&SMOKE, 3);
        let mut seeds = std::collections::BTreeSet::new();
        for i in 0..500 {
            assert!(seeds.insert(cold_query(&t, i, 3).req.seed));
        }
    }

    #[test]
    fn binomial_quantile_matches_hand_values() {
        assert_eq!(binomial_quantile(0, 0.05, 0.999), 0);
        // P(X ≤ 3 | 14, .05) ≈ 0.9958, P(X ≤ 4) ≈ 0.9996.
        assert_eq!(binomial_quantile(14, 0.05, 0.999), 4);
        assert_eq!(binomial_quantile(10, 0.0, 0.999), 0);
    }

    #[test]
    fn limit_hits_are_checked_against_truth() {
        let (d, _) = dataset(300);
        let t = templates(&SMOKE, 5)
            .into_iter()
            .find(|t| t.check == Check::Limit)
            .unwrap();
        let truth = TemplateTruth::new(&d, &t);
        let threshold = t.req.threshold.unwrap();
        let matching: Vec<usize> = (0..300)
            .filter(|&r| d.ground_truth(r).count_class(CAR) as f64 >= threshold)
            .take(2)
            .collect();
        let miss = (0..300)
            .find(|&r| (d.ground_truth(r).count_class(CAR) as f64) < threshold)
            .unwrap();
        let reply = |found: &[usize]| {
            let body = format!(
                "{{\"id\":1,\"ok\":true,\"result\":{{\"found\":{found:?},\"satisfied\":true}}}}"
            );
            Reply::parse(&body).unwrap()
        };
        assert_eq!(
            check_reply(&truth, &t, &reply(&matching), (300, 300)),
            Verdict::Pass
        );
        assert!(matches!(
            check_reply(&truth, &t, &reply(&[miss]), (300, 300)),
            Verdict::Fail(_)
        ));
    }
}
