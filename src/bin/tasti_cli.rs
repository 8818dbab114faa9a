//! `tasti` command-line interface.
//!
//! Builds, inspects, and queries TASTI indexes over the built-in synthetic
//! datasets from the shell. Datasets are regenerated deterministically from
//! `(name, n, seed)`, so pass the same dataset flags to `build` and `query`.
//!
//! ```sh
//! tasti_cli build --dataset night-street --n 12000 --seed 42 --out /tmp/ns.json
//! tasti_cli info  --index /tmp/ns.json
//! tasti_cli query agg   --index /tmp/ns.json --dataset night-street --n 12000 --seed 42 --class car --error 0.05
//! tasti_cli query supg  --index /tmp/ns.json --dataset night-street --n 12000 --seed 42 --class car --min-count 2 --budget 500
//! tasti_cli query limit --index /tmp/ns.json --dataset night-street --n 12000 --seed 42 --class car --min-count 6 --matches 10
//! ```

use std::collections::HashMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use tasti::index::persist;
use tasti::prelude::*;
use tasti::query::{StoppingRule, SupgConfig};
use tasti::serve::{
    Client, FaultScript, FaultVfs, LabelerFactory, Op as ServeOp, Reply, Request as ServeRequest,
    ScoreSpec, ServeConfig, Server, TastiService, Vfs, DEFAULT_INDEX_NAME,
};
use tasti_labeler::Schema;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    /// Build an index and save it.
    Build(BuildArgs),
    /// Print index metadata.
    Info { index: String },
    /// Run a query against a saved index.
    Query(QueryArgs),
    /// Serve a saved index over TCP until an admin `shutdown` request.
    Serve(ServeArgs),
    /// Send one wire-protocol request to a running server.
    Probe(ProbeArgs),
    /// Print usage.
    Help,
}

#[derive(Debug, Clone, PartialEq)]
struct BuildArgs {
    dataset: String,
    n: usize,
    seed: u64,
    n_train: usize,
    n_reps: usize,
    dim: usize,
    out: String,
    pretrained_only: bool,
    /// Rep-assignment strategy: `exact`, `ivf`, or `auto`.
    assign: String,
    /// IVF probe width (0 = auto); only meaningful with `--assign ivf`.
    nprobe: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct ServeArgs {
    /// Path of the default index (the unnamed `--index` value).
    index: String,
    /// Extra named indexes to preload: `--index name=path`, repeatable.
    /// All of them answer against the same `--dataset` oracle.
    preload: Vec<(String, String)>,
    dataset: String,
    n: usize,
    seed: u64,
    addr: String,
    workers: usize,
    queue_depth: usize,
    snapshot: Option<String>,
    snapshot_on_shutdown: bool,
    label_budget: Option<u64>,
    no_crack: bool,
    /// Reject fault-degraded queries with `labeler_unavailable` instead of
    /// answering with the proxy-only partial result.
    no_degraded: bool,
    /// Injected fault rates (chaos testing; 0 = off). When any rate is
    /// positive the oracle is wrapped in `FaultInjectingLabeler` +
    /// `ResilientLabeler`, so retries and the circuit breaker are live.
    fault_transient: f64,
    fault_timeout: f64,
    fault_corrupt: f64,
    fault_fatal: f64,
    fault_seed: u64,
    /// Directory of the durable ingest segment log; absent → the `ingest`
    /// op is rejected.
    ingest_dir: Option<String>,
    /// Drift level at which ingest escalates to a full assignment refresh.
    drift_threshold: f64,
    /// Scripted disk-fault injection for the storage layer (segment log +
    /// snapshots): `op:nth=kind,...`. Absent (and rate 0) → real
    /// filesystem.
    storage_fault_script: Option<String>,
    /// Seeded random disk-fault rate (0 = off), deterministic under
    /// `storage_fault_seed`.
    storage_fault_rate: f64,
    storage_fault_seed: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct ProbeArgs {
    /// agg | supg | supg-precision | limit | predicate | stats | metrics
    /// | health | index-list | index-load | index-unload | snapshot
    /// | shutdown | ingest
    op: String,
    addr: String,
    class: String,
    min_count: usize,
    error: f64,
    budget: usize,
    matches: usize,
    seed: u64,
    /// Route the request to a named index (`index-load`/`index-unload`
    /// name the index to add or drop); absent → the default index.
    index: Option<String>,
    /// Snapshot file for `index-load`.
    path: Option<String>,
    /// Per-index label budget for `index-load`.
    label_budget: Option<usize>,
    /// Row source for `ingest`: regenerate this dataset (with `--n`/
    /// `--seed`) and send features `[offset, offset+count)`.
    dataset: Option<String>,
    n: Option<usize>,
    offset: usize,
    count: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct QueryArgs {
    kind: String, // agg | supg | limit
    index: String,
    dataset: String,
    n: usize,
    seed: u64,
    class: String,
    min_count: usize,
    error: f64,
    budget: usize,
    matches: usize,
}

const USAGE: &str = "tasti — trainable semantic indexes (SIGMOD 2022 reproduction)

USAGE:
  tasti_cli build --dataset <name> --n <records> [--seed S] [--train N1] [--reps N2]
                  [--dim D] [--pretrained-only] [--assign exact|ivf|auto]
                  [--nprobe P] --out <index.json>
  tasti_cli info  --index <index.json>
  tasti_cli query <agg|supg|limit> --index <index.json>
                  --dataset <name> --n <records> [--seed S]
                  [--class car|bus] [--min-count K] [--error E]
                  [--budget B] [--matches M]
  tasti_cli serve --index [name=]<index.json> [--index name=path]...
                  --dataset <name> --n <records> [--seed S]
                  [--addr 127.0.0.1:0] [--workers W] [--queue-depth Q]
                  [--snapshot <path>] [--snapshot-on-shutdown]
                  [--label-budget B] [--no-crack] [--no-degraded]
                  [--fault-transient R] [--fault-timeout R]
                  [--fault-corrupt R] [--fault-fatal R] [--fault-seed S]
                  [--ingest-dir DIR] [--drift-threshold T]
                  [--storage-fault-script 'op:nth=kind,...']
                  [--storage-fault-rate R] [--storage-fault-seed S]
  tasti_cli probe <agg|supg|supg-precision|limit|predicate|stats|metrics|health|index-list|index-load|index-unload|snapshot|shutdown|ingest>
                  --addr HOST:PORT [--index NAME] [--path FILE]
                  [--label-budget B] [--class car|bus] [--min-count K]
                  [--error E] [--budget B] [--matches M] [--seed S]
                  [--dataset NAME --n RECORDS --offset O --count C]

DATASETS: night-street, taipei, amsterdam, wikisql, common-voice
QUERIES over video use --class/--min-count; wikisql aggregates predicate
counts and selects SELECT-questions; common-voice aggregates/selects male
speakers.

serve answers the line-delimited JSON wire protocol (see tasti-serve) and
drains gracefully on an admin shutdown request: `tasti_cli probe shutdown
--addr HOST:PORT`. probe prints the raw response line.

serve hosts one default index plus any number of named indexes (repeat
--index name=path); each gets its own oracle meter and label budget. probe
--index NAME routes a request to a named index, and index-list /
index-load / index-unload manage the registry at runtime (index-load needs
--index NAME --path FILE and takes an optional --label-budget). All hosted
indexes answer against the same --dataset oracle.

serve --fault-* rates inject deterministic oracle faults behind the full
resilience stack (retry/backoff + circuit breaker): transient and timeout
faults are retried, corrupt and fatal faults degrade their query to the
proxy-only answer (or a typed labeler_unavailable error with
--no-degraded). `probe health` reports breaker state and fault counters.

serve --ingest-dir DIR enables streaming ingest: `probe ingest` batches are
fsync'd to a crash-safe segment log before they are acknowledged, then
folded into the index incrementally (escalating to a full rep-assignment
refresh past --drift-threshold). On restart the log replays, so an
acknowledged batch survives kill -9. `probe ingest` regenerates --dataset
with --n/--seed and sends feature rows [--offset, --offset+--count); serve
accepts a --n larger than the index so ingested records keep oracle
coverage.

serve --storage-fault-* flags inject deterministic *disk* faults under the
segment log and snapshot writer (storage chaos testing). A script names
exact operations ('sync:2=eio,write:1=short'; kinds eio, enospc, short,
torn); a rate draws faults from a seeded schedule. After an fsync failure
the open segment is poisoned, the batch is NOT acknowledged, and ingest
degrades to read-only (typed ingest_rejected with read_only:true) while
queries keep serving; `probe health` gains a storage section. A damaged
snapshot falls back to its .prev last-good copy at startup and on
index-load, with the gap replayed from the ingest log.";

/// The flags each subcommand reads; anything else is a usage error rather
/// than a silently ignored typo.
const BUILD_FLAGS: &[&str] = &[
    "dataset",
    "n",
    "seed",
    "train",
    "reps",
    "dim",
    "out",
    "pretrained-only",
    "assign",
    "nprobe",
];
const INFO_FLAGS: &[&str] = &["index"];
const QUERY_FLAGS: &[&str] = &[
    "index",
    "dataset",
    "n",
    "seed",
    "class",
    "min-count",
    "error",
    "budget",
    "matches",
];
const SERVE_FLAGS: &[&str] = &[
    "index",
    "dataset",
    "n",
    "seed",
    "addr",
    "workers",
    "queue-depth",
    "snapshot",
    "snapshot-on-shutdown",
    "label-budget",
    "no-crack",
    "no-degraded",
    "fault-transient",
    "fault-timeout",
    "fault-corrupt",
    "fault-fatal",
    "fault-seed",
    "ingest-dir",
    "drift-threshold",
    "storage-fault-script",
    "storage-fault-rate",
    "storage-fault-seed",
];
const PROBE_FLAGS: &[&str] = &[
    "addr",
    "class",
    "min-count",
    "error",
    "budget",
    "matches",
    "seed",
    "index",
    "path",
    "label-budget",
    "dataset",
    "n",
    "offset",
    "count",
];

/// Collects `--name value` pairs (and the valueless switches) for
/// `command`, rejecting any flag not in `accepted`.
fn parse_flags(
    args: &[String],
    command: &str,
    accepted: &[&str],
) -> Result<HashMap<String, Vec<String>>, String> {
    let mut flags: HashMap<String, Vec<String>> = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if !accepted.contains(&name) {
                return Err(format!("unknown flag --{name} for '{command}'"));
            }
            if [
                "pretrained-only",
                "snapshot-on-shutdown",
                "no-crack",
                "no-degraded",
            ]
            .contains(&name)
            {
                flags
                    .entry(name.to_string())
                    .or_default()
                    .push("true".to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags
                    .entry(name.to_string())
                    .or_default()
                    .push(value.clone());
                i += 2;
            }
        } else {
            return Err(format!("unexpected argument '{a}'"));
        }
    }
    Ok(flags)
}

/// Scalar flag lookup; a repeated flag takes its last value.
fn get<T: std::str::FromStr>(
    flags: &HashMap<String, Vec<String>>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(key).and_then(|values| values.last()) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --{key}: '{v}'")),
        None => default.ok_or_else(|| format!("missing required flag --{key}")),
    }
}

/// Optional scalar flag lookup (last value wins, `None` when absent).
fn get_opt<T: std::str::FromStr>(
    flags: &HashMap<String, Vec<String>>,
    key: &str,
) -> Result<Option<T>, String> {
    match flags.get(key).and_then(|values| values.last()) {
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value for --{key}: '{v}'")),
        None => Ok(None),
    }
}

/// Splits the repeatable `serve --index [name=]path` values into the
/// default index path plus the named preload list.
///
/// Exactly one value must designate the default index — a bare path or the
/// explicit `default=path` spelling. Every other value must be `name=path`
/// with a unique name; those indexes are preloaded into the registry and
/// reachable via the wire protocol's `"index"` field.
fn parse_serve_indexes(values: &[String]) -> Result<(String, Vec<(String, String)>), String> {
    if values.is_empty() {
        return Err("missing required flag --index".to_string());
    }
    let mut default_path: Option<String> = None;
    let mut preload: Vec<(String, String)> = Vec::new();
    for value in values {
        let (name, path) = match value.split_once('=') {
            Some(pair) => pair,
            None => ("default", value.as_str()),
        };
        if name.is_empty() || path.is_empty() {
            return Err(format!(
                "invalid --index value '{value}' (expected [name=]path)"
            ));
        }
        if name == "default" {
            if default_path.is_some() {
                return Err(
                    "only one --index may be the default (a bare path or default=path)".to_string(),
                );
            }
            default_path = Some(path.to_string());
        } else {
            if preload.iter().any(|(n, _)| n == name) {
                return Err(format!("duplicate --index name '{name}'"));
            }
            preload.push((name.to_string(), path.to_string()));
        }
    }
    let default_path = default_path.ok_or_else(|| {
        "one --index must be the default index (a bare path or default=path)".to_string()
    })?;
    Ok((default_path, preload))
}

fn parse(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("build") => {
            let flags = parse_flags(&args[1..], "build", BUILD_FLAGS)?;
            Ok(Command::Build(BuildArgs {
                dataset: get(&flags, "dataset", None)?,
                n: get(&flags, "n", None)?,
                seed: get(&flags, "seed", Some(42))?,
                n_train: get(&flags, "train", Some(400))?,
                n_reps: get(&flags, "reps", Some(1200))?,
                dim: get(&flags, "dim", Some(32))?,
                out: get(&flags, "out", None)?,
                pretrained_only: flags.contains_key("pretrained-only"),
                assign: {
                    let v = get(&flags, "assign", Some("auto".to_string()))?;
                    if !["exact", "ivf", "auto"].contains(&v.as_str()) {
                        return Err(format!(
                            "invalid value for --assign: '{v}' (exact|ivf|auto)"
                        ));
                    }
                    v
                },
                nprobe: get(&flags, "nprobe", Some(0))?,
            }))
        }
        Some("info") => {
            let flags = parse_flags(&args[1..], "info", INFO_FLAGS)?;
            Ok(Command::Info {
                index: get(&flags, "index", None)?,
            })
        }
        Some("query") => {
            let kind = args
                .get(1)
                .cloned()
                .ok_or("query needs a kind: agg|supg|limit")?;
            if !["agg", "supg", "limit"].contains(&kind.as_str()) {
                return Err(format!("unknown query kind '{kind}' (agg|supg|limit)"));
            }
            let flags = parse_flags(&args[2..], "query", QUERY_FLAGS)?;
            Ok(Command::Query(QueryArgs {
                kind,
                index: get(&flags, "index", None)?,
                dataset: get(&flags, "dataset", None)?,
                n: get(&flags, "n", None)?,
                seed: get(&flags, "seed", Some(42))?,
                class: get(&flags, "class", Some("car".to_string()))?,
                min_count: get(&flags, "min-count", Some(1))?,
                error: get(&flags, "error", Some(0.05))?,
                budget: get(&flags, "budget", Some(500))?,
                matches: get(&flags, "matches", Some(10))?,
            }))
        }
        Some("serve") => {
            let flags = parse_flags(&args[1..], "serve", SERVE_FLAGS)?;
            let (index, preload) =
                parse_serve_indexes(flags.get("index").map(Vec::as_slice).unwrap_or(&[]))?;
            Ok(Command::Serve(ServeArgs {
                index,
                preload,
                dataset: get(&flags, "dataset", None)?,
                n: get(&flags, "n", None)?,
                seed: get(&flags, "seed", Some(42))?,
                addr: get(&flags, "addr", Some("127.0.0.1:0".to_string()))?,
                workers: get(&flags, "workers", Some(4))?,
                queue_depth: get(&flags, "queue-depth", Some(16))?,
                snapshot: get_opt(&flags, "snapshot")?,
                snapshot_on_shutdown: flags.contains_key("snapshot-on-shutdown"),
                label_budget: get_opt(&flags, "label-budget")?,
                no_crack: flags.contains_key("no-crack"),
                no_degraded: flags.contains_key("no-degraded"),
                fault_transient: get(&flags, "fault-transient", Some(0.0))?,
                fault_timeout: get(&flags, "fault-timeout", Some(0.0))?,
                fault_corrupt: get(&flags, "fault-corrupt", Some(0.0))?,
                fault_fatal: get(&flags, "fault-fatal", Some(0.0))?,
                fault_seed: get(&flags, "fault-seed", Some(0x5EED))?,
                ingest_dir: get_opt(&flags, "ingest-dir")?,
                drift_threshold: get(&flags, "drift-threshold", Some(0.5))?,
                storage_fault_script: get_opt(&flags, "storage-fault-script")?,
                storage_fault_rate: get(&flags, "storage-fault-rate", Some(0.0))?,
                storage_fault_seed: get(&flags, "storage-fault-seed", Some(0xD15C))?,
            }))
        }
        Some("probe") => {
            let op = args
                .get(1)
                .cloned()
                .ok_or("probe needs an op: agg|supg|supg-precision|limit|predicate|stats|metrics|health|index-list|index-load|index-unload|snapshot|shutdown|ingest")?;
            if probe_op(&op).is_none() {
                return Err(format!("unknown probe op '{op}'"));
            }
            let flags = parse_flags(&args[2..], "probe", PROBE_FLAGS)?;
            Ok(Command::Probe(ProbeArgs {
                op,
                addr: get(&flags, "addr", None)?,
                class: get(&flags, "class", Some("car".to_string()))?,
                min_count: get(&flags, "min-count", Some(1))?,
                error: get(&flags, "error", Some(0.05))?,
                budget: get(&flags, "budget", Some(500))?,
                matches: get(&flags, "matches", Some(10))?,
                seed: get(&flags, "seed", Some(42))?,
                index: get_opt(&flags, "index")?,
                path: get_opt(&flags, "path")?,
                label_budget: get_opt(&flags, "label-budget")?,
                dataset: get_opt(&flags, "dataset")?,
                n: get_opt(&flags, "n")?,
                offset: get(&flags, "offset", Some(0))?,
                count: get(&flags, "count", Some(0))?,
            }))
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    }
}

/// Maps a `probe` op name to the wire protocol operation.
fn probe_op(name: &str) -> Option<ServeOp> {
    Some(match name {
        "agg" => ServeOp::EbsAggregate,
        "supg" => ServeOp::SupgRecallTarget,
        "supg-precision" => ServeOp::SupgPrecisionTarget,
        "limit" => ServeOp::LimitQuery,
        "predicate" => ServeOp::PredicateAggregate,
        "stats" => ServeOp::IndexStats,
        "metrics" => ServeOp::Metrics,
        "health" => ServeOp::Health,
        "index-list" | "index_list" => ServeOp::IndexList,
        "index-load" | "index_load" => ServeOp::IndexLoad,
        "index-unload" | "index_unload" => ServeOp::IndexUnload,
        "snapshot" => ServeOp::Snapshot,
        "shutdown" => ServeOp::Shutdown,
        "ingest" => ServeOp::Ingest,
        _ => return None,
    })
}

/// Regenerates a named dataset and its oracle labeler.
fn load_dataset(name: &str, n: usize, seed: u64) -> Result<tasti::data::Dataset, String> {
    Ok(match name {
        "night-street" => tasti::data::video::night_street(n, seed).dataset,
        "taipei" => tasti::data::video::taipei(n, seed).dataset,
        "amsterdam" => tasti::data::video::amsterdam(n, seed).dataset,
        "wikisql" => tasti::data::text::wikisql(n, seed).dataset,
        "common-voice" => tasti::data::speech::common_voice(n, seed),
        other => return Err(format!("unknown dataset '{other}'")),
    })
}

fn object_class(name: &str) -> Result<ObjectClass, String> {
    match name {
        "car" => Ok(ObjectClass::Car),
        "bus" => Ok(ObjectClass::Bus),
        other => Err(format!("unknown class '{other}' (car|bus)")),
    }
}

/// The scoring function a CLI query uses, by dataset and query kind.
///
/// Aggregation and limit queries score raw counts (limit compares against
/// `--min-count`); SUPG needs a 0/1 predicate, so `--min-count` folds into
/// the scoring function there.
fn scoring_for(
    dataset: &str,
    class: &str,
    kind: &str,
    min_count: usize,
) -> Result<Box<dyn ScoringFunction>, String> {
    Ok(match dataset {
        "night-street" | "taipei" | "amsterdam" => {
            let c = object_class(class)?;
            if kind == "supg" {
                Box::new(HasAtLeast(c, min_count.max(1)))
            } else {
                Box::new(CountClass(c))
            }
        }
        "wikisql" => {
            if kind == "supg" {
                Box::new(SqlOpIs(tasti_labeler::SqlOp::Select))
            } else {
                Box::new(SqlNumPredicates)
            }
        }
        "common-voice" => Box::new(SpeechIsMale),
        other => return Err(format!("unknown dataset '{other}'")),
    })
}

/// The match threshold a limit query compares scores against.
fn limit_threshold_for(dataset: &str, min_count: usize) -> f64 {
    match dataset {
        "common-voice" => 1.0,
        _ => min_count.max(1) as f64,
    }
}

fn run_build(a: &BuildArgs) -> Result<(), String> {
    let dataset = load_dataset(&a.dataset, a.n, a.seed)?;
    let labeler = MeteredLabeler::new(OracleLabeler::new(
        dataset.truth_handle(),
        CostModel::mask_rcnn().target,
        Schema::object_detection(),
        "oracle",
    ));
    let assign_strategy = match a.assign.as_str() {
        "exact" => AssignStrategy::Exact,
        "ivf" => AssignStrategy::Ivf(IvfParams {
            nprobe: a.nprobe,
            ..IvfParams::default()
        }),
        _ => AssignStrategy::Auto,
    };
    let mut config = TastiConfig {
        n_train: a.n_train,
        n_reps: a.n_reps,
        embedding_dim: a.dim,
        seed: a.seed,
        assign_strategy,
        ..TastiConfig::default()
    };
    if a.pretrained_only {
        config = config.pretrained_only();
    }
    let closeness: Box<dyn ClosenessFn> = match a.dataset.as_str() {
        "wikisql" => Box::new(SqlCloseness),
        "common-voice" => Box::new(SpeechCloseness),
        _ => Box::new(VideoCloseness::default()),
    };
    let mut pt =
        PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, a.seed ^ 0x50);
    let pretrained = pt.embed_all(&dataset.features);
    let (index, report) = build_index(
        &dataset.features,
        &pretrained,
        &labeler,
        closeness.as_ref(),
        &config,
    )
    .map_err(|e| e.to_string())?;
    persist::save(&index, &a.out).map_err(|e| e.to_string())?;
    println!(
        "built {}: {} records, {} reps, {} labeler calls, {:.2}s; saved to {}",
        a.dataset,
        index.n_records(),
        index.reps().len(),
        report.total_invocations,
        report.total_seconds(),
        a.out
    );
    Ok(())
}

fn run_info(path: &str) -> Result<(), String> {
    let index = persist::load(path).map_err(|e| e.to_string())?;
    println!("index: {path}");
    println!("  records:        {}", index.n_records());
    println!("  representatives: {}", index.reps().len());
    println!("  embedding dim:  {}", index.embedding_dim());
    println!("  propagation k:  {}", index.k());
    println!("  metric:         {:?}", index.metric());
    println!("  cover radius:   {:.4}", index.cover_radius());
    println!(
        "  trained model:  {}",
        if index.model().is_some() {
            "yes"
        } else {
            "no (TASTI-PT)"
        }
    );
    Ok(())
}

fn run_query(a: &QueryArgs) -> Result<(), String> {
    let dataset = load_dataset(&a.dataset, a.n, a.seed)?;
    let index = persist::load(&a.index).map_err(|e| e.to_string())?;
    if index.n_records() != dataset.len() {
        return Err(format!(
            "index covers {} records but dataset has {} — pass the same --dataset/--n/--seed used at build time",
            index.n_records(),
            dataset.len()
        ));
    }
    let labeler = MeteredLabeler::new(OracleLabeler::new(
        dataset.truth_handle(),
        CostModel::mask_rcnn().target,
        Schema::object_detection(),
        "oracle",
    ));
    let score = scoring_for(&a.dataset, &a.class, &a.kind, a.min_count)?;
    match a.kind.as_str() {
        "agg" => {
            let proxy = index.propagate(score.as_ref());
            let cfg = AggregationConfig {
                error_target: a.error,
                stopping: StoppingRule::Clt,
                seed: a.seed,
                ..Default::default()
            };
            // Each sampling round is one batched labeler call.
            let res = ebs_aggregate_batch(
                &proxy,
                &mut |recs| {
                    labeler
                        .label_batch(recs)
                        .iter()
                        .map(|o| score.score(o))
                        .collect()
                },
                &cfg,
            );
            println!(
                "estimate: {:.4} ± {:.4} ({} labeler calls, ρ² on sample {:.3})",
                res.estimate, res.ci_half_width, res.samples, res.rho_squared
            );
        }
        "supg" => {
            let proxy = index.propagate(score.as_ref());
            let cfg = SupgConfig {
                budget: a.budget,
                seed: a.seed,
                ..Default::default()
            };
            // Stage-2 labeling is one batched labeler call.
            let res = supg_recall_target_batch(
                &proxy,
                &mut |recs| {
                    labeler
                        .label_batch(recs)
                        .iter()
                        .map(|o| score.score(o) >= 0.5)
                        .collect()
                },
                &cfg,
            );
            println!(
                "returned {} records at threshold {:.4} ({} labeler calls, est. recall {:.3})",
                res.returned.len(),
                res.threshold,
                res.oracle_calls,
                res.estimated_recall
            );
        }
        "limit" => {
            let ranking = index.limit_ranking(score.as_ref());
            let threshold = limit_threshold_for(&a.dataset, a.min_count);
            // probe_batch = 1: invocation counts stay bit-identical to the
            // sequential scan (the CLI reports them as the query's cost).
            let res = limit_query_batch(
                &ranking,
                &mut |recs| {
                    labeler
                        .label_batch(recs)
                        .iter()
                        .map(|o| score.score(o) >= threshold)
                        .collect()
                },
                a.matches,
                dataset.len(),
                1,
            );
            println!(
                "found {:?} after {} labeler calls (satisfied: {})",
                res.found, res.invocations, res.satisfied
            );
        }
        _ => unreachable!("validated in parse"),
    }
    Ok(())
}

fn run_serve(a: &ServeArgs) -> Result<(), String> {
    let dataset = load_dataset(&a.dataset, a.n, a.seed)?;
    let storage_vfs = storage_vfs_for(a)?;
    let fault_plan = fault_plan_for(a)?;
    // Startup load goes through the same fallback path the runtime
    // `index_load` op uses: a damaged snapshot recovers to the `.prev`
    // last-good copy (the ingest log replays the gap) instead of refusing
    // to start.
    let report =
        persist::load_with_fallback_vfs(&a.index, &*storage_vfs).map_err(|e| e.to_string())?;
    if let Some(fb) = &report.fallback {
        println!(
            "snapshot {} was unusable ({}); recovered from last-good copy {}",
            a.index,
            fb.detail,
            fb.fallback_path.display()
        );
    }
    let snapshot_fell_back = report.fallback.is_some();
    let index = report.index;
    // With ingest enabled the dataset may be *larger* than the index —
    // the extra records are the oracle ground truth for rows ingested
    // later (and for replayed log frames). Without ingest the sizes must
    // match exactly, as before.
    if a.ingest_dir.is_none() && index.n_records() != dataset.len() {
        return Err(format!(
            "index covers {} records but dataset has {} — pass the same --dataset/--n/--seed used at build time",
            index.n_records(),
            dataset.len()
        ));
    }
    if index.n_records() > dataset.len() {
        return Err(format!(
            "index covers {} records but dataset has only {} — the dataset must cover every \
             (current and ingested) record",
            index.n_records(),
            dataset.len()
        ));
    }
    let truth = dataset.truth_handle();
    let config = ServeConfig {
        addr: a.addr.clone(),
        workers: a.workers.max(1),
        queue_depth: a.queue_depth,
        snapshot_path: a.snapshot.as_ref().map(std::path::PathBuf::from),
        snapshot_on_shutdown: a.snapshot_on_shutdown,
        label_budget: a.label_budget,
        crack_after_queries: !a.no_crack,
        degraded_replies: !a.no_degraded,
        ingest_dir: a.ingest_dir.as_ref().map(std::path::PathBuf::from),
        drift_threshold: a.drift_threshold,
        preload: a
            .preload
            .iter()
            .map(|(name, path)| (name.clone(), std::path::PathBuf::from(path)))
            .collect(),
        storage_vfs,
        ..ServeConfig::default()
    };
    // Every index entry (default, preloaded, or loaded at runtime via
    // `index_load`) gets its own copy of the oracle stack from the factory,
    // so per-index metering and budgets stay isolated.
    if let Some(plan) = fault_plan {
        let factory: LabelerFactory<_> = Box::new(move |_name: &str| {
            let oracle = OracleLabeler::new(
                truth.clone(),
                CostModel::mask_rcnn().target,
                Schema::object_detection(),
                "oracle",
            );
            MeteredLabeler::new(ResilientLabeler::new(FaultInjectingLabeler::new(
                oracle,
                plan.clone(),
            )))
        });
        serve_until_drained(index, factory, config, a, snapshot_fell_back)
    } else {
        let factory: LabelerFactory<_> = Box::new(move |_name: &str| {
            MeteredLabeler::new(OracleLabeler::new(
                truth.clone(),
                CostModel::mask_rcnn().target,
                Schema::object_detection(),
                "oracle",
            ))
        });
        serve_until_drained(index, factory, config, a, snapshot_fell_back)
    }
}

/// Builds the oracle fault plan from the `--fault-*` flags (`None` when
/// every rate is 0), rejecting what `FaultInjectingLabeler::new` would
/// panic on or silently ignore: each rate must be finite and in `[0, 1]`,
/// and together they must sum to at most 1.
fn fault_plan_for(a: &ServeArgs) -> Result<Option<FaultPlan>, String> {
    let rates = [
        ("--fault-transient", a.fault_transient),
        ("--fault-timeout", a.fault_timeout),
        ("--fault-corrupt", a.fault_corrupt),
        ("--fault-fatal", a.fault_fatal),
    ];
    for (flag, rate) in rates {
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("invalid {flag} {rate} (expected 0..=1)"));
        }
    }
    let sum: f64 = rates.iter().map(|&(_, rate)| rate).sum();
    if sum > 1.0 {
        return Err(format!(
            "--fault-transient/-timeout/-corrupt/-fatal rates sum to {sum} (expected at most 1)"
        ));
    }
    Ok((sum > 0.0).then_some(FaultPlan {
        transient_rate: a.fault_transient,
        timeout_rate: a.fault_timeout,
        corrupt_rate: a.fault_corrupt,
        fatal_rate: a.fault_fatal,
        seed: a.fault_seed,
    }))
}

/// Builds the filesystem seam for the storage layer from the
/// `--storage-fault-*` flags: scripted faults, seeded random faults, or
/// (by default) the real filesystem.
fn storage_vfs_for(a: &ServeArgs) -> Result<Arc<dyn Vfs>, String> {
    if let Some(text) = &a.storage_fault_script {
        if a.storage_fault_rate > 0.0 {
            return Err(
                "--storage-fault-script and --storage-fault-rate are mutually exclusive"
                    .to_string(),
            );
        }
        let script =
            FaultScript::parse(text).map_err(|e| format!("invalid --storage-fault-script: {e}"))?;
        return Ok(Arc::new(FaultVfs::scripted(script)));
    }
    if a.storage_fault_rate > 0.0 {
        if !(a.storage_fault_rate <= 1.0) {
            return Err(format!(
                "invalid --storage-fault-rate {} (expected 0..=1)",
                a.storage_fault_rate
            ));
        }
        return Ok(Arc::new(FaultVfs::seeded(
            a.storage_fault_seed,
            a.storage_fault_rate,
        )));
    }
    Ok(ServeConfig::default().storage_vfs)
}

/// Starts the server over any (fallible) oracle stack and blocks until the
/// admin shutdown drain completes.
fn serve_until_drained<L: FallibleTargetLabeler + 'static>(
    index: TastiIndex,
    factory: LabelerFactory<L>,
    config: ServeConfig,
    a: &ServeArgs,
    snapshot_fell_back: bool,
) -> Result<(), String> {
    let n_reps = index.reps().len();
    let n_named = config.preload.len();
    let labeler = factory(DEFAULT_INDEX_NAME);
    let service = Arc::new(TastiService::with_factory(index, labeler, config, factory)?);
    if snapshot_fell_back {
        // The startup load happened before the service existed; record it
        // so `snapshot_fallback_loads` reflects the recovery.
        service.metrics().snapshot_fallback_loads.incr();
    }
    if let Some(r) = service.ingest_replay() {
        println!(
            "ingest log: replayed {} frame(s) — {} applied ({} record(s)), {} already in \
             snapshot, {} for unknown indexes, {} torn byte(s) truncated",
            r.frames, r.applied, r.records, r.already_applied, r.unknown_index, r.truncated_bytes
        );
    }
    let server = Server::start(service).map_err(|e| e.to_string())?;
    let named = if n_named > 0 {
        format!(", {n_named} named index(es) preloaded")
    } else {
        String::new()
    };
    println!(
        "serving {} records ({} reps{named}) on {} — {} workers, queue depth {}; \
         drain with: tasti_cli probe shutdown --addr {}",
        a.n,
        n_reps,
        server.local_addr(),
        a.workers.max(1),
        a.queue_depth,
        server.local_addr(),
    );
    // The address line is what scripts (and the CI smoke stage) wait for —
    // force it out even when stdout is a pipe.
    std::io::stdout().flush().ok();
    let report = server.join_report();
    println!(
        "drained; final crack fold-in added {} representatives",
        report.reps_added
    );
    if let Some(message) = report.snapshot_error {
        return Err(format!("shutdown snapshot failed: {message}"));
    }
    Ok(())
}

fn run_probe(a: &ProbeArgs) -> Result<(), String> {
    let op = probe_op(&a.op).expect("validated in parse");
    let mut req = ServeRequest::new(op);
    req.seed = Some(a.seed);
    req.index = a.index.clone();
    let class = object_class(&a.class)?;
    match op {
        ServeOp::EbsAggregate => {
            req.score = Some(ScoreSpec::CountClass(class));
            req.error_target = Some(a.error);
        }
        ServeOp::SupgRecallTarget | ServeOp::SupgPrecisionTarget => {
            req.score = Some(ScoreSpec::HasAtLeast(class, a.min_count.max(1)));
            req.budget = Some(a.budget);
        }
        ServeOp::LimitQuery => {
            req.score = Some(ScoreSpec::HasAtLeast(class, a.min_count.max(1)));
            req.k_matches = Some(a.matches);
        }
        ServeOp::PredicateAggregate => {
            req.predicate = Some(ScoreSpec::HasAtLeast(class, a.min_count.max(1)));
            req.score = Some(ScoreSpec::CountClass(class));
            req.budget = Some(a.budget);
        }
        ServeOp::IndexLoad => {
            if a.index.is_none() || a.path.is_none() {
                return Err("probe index-load needs --index NAME and --path FILE".to_string());
            }
            req.path = a.path.clone();
            req.budget = a.label_budget;
        }
        ServeOp::IndexUnload => {
            if a.index.is_none() {
                return Err("probe index-unload needs --index NAME".to_string());
            }
        }
        ServeOp::Ingest => {
            let dataset_name = a.dataset.clone().ok_or(
                "probe ingest needs --dataset NAME --n RECORDS (the row source) \
                 plus --offset/--count",
            )?;
            let n = a.n.ok_or("probe ingest needs --n RECORDS")?;
            if a.count == 0 {
                return Err("probe ingest needs --count > 0".to_string());
            }
            let dataset = load_dataset(&dataset_name, n, a.seed)?;
            let end = a.offset + a.count;
            if end > dataset.len() {
                return Err(format!(
                    "--offset {} + --count {} exceeds the dataset's {} records",
                    a.offset,
                    a.count,
                    dataset.len()
                ));
            }
            req.rows = Some(
                (a.offset..end)
                    .map(|r| dataset.features.row(r).to_vec())
                    .collect(),
            );
            req.embedded = Some(false);
        }
        ServeOp::IndexStats
        | ServeOp::Metrics
        | ServeOp::Health
        | ServeOp::IndexList
        | ServeOp::Snapshot
        | ServeOp::Shutdown => {}
    }
    let mut client = Client::connect(&a.addr).map_err(|e| e.to_string())?;
    let (line, _id) = client.call_raw(req).map_err(|e| e.to_string())?;
    println!("{line}");
    let reply = Reply::parse(&line).map_err(|e| e.to_string())?;
    if !reply.ok {
        return Err(format!(
            "server returned {}: {}",
            reply.error_kind.as_deref().unwrap_or("error"),
            reply.error_message.as_deref().unwrap_or("")
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Build(a) => run_build(a),
        Command::Info { index } => run_info(index),
        Command::Query(a) => run_query(a),
        Command::Serve(a) => run_serve(a),
        Command::Probe(a) => run_probe(a),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_build_with_defaults() {
        let cmd = parse(&s(&[
            "build",
            "--dataset",
            "night-street",
            "--n",
            "1000",
            "--out",
            "x.json",
        ]))
        .unwrap();
        match cmd {
            Command::Build(a) => {
                assert_eq!(a.dataset, "night-street");
                assert_eq!(a.n, 1000);
                assert_eq!(a.seed, 42);
                assert_eq!(a.n_train, 400);
                assert_eq!(a.n_reps, 1200);
                assert!(!a.pretrained_only);
                assert_eq!(a.assign, "auto");
                assert_eq!(a.nprobe, 0);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_assign_strategy_knobs() {
        let cmd = parse(&s(&[
            "build",
            "--dataset",
            "night-street",
            "--n",
            "1000",
            "--out",
            "x.json",
            "--assign",
            "ivf",
            "--nprobe",
            "3",
        ]))
        .unwrap();
        match cmd {
            Command::Build(a) => {
                assert_eq!(a.assign, "ivf");
                assert_eq!(a.nprobe, 3);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let err = parse(&s(&[
            "build",
            "--dataset",
            "night-street",
            "--n",
            "1000",
            "--out",
            "x.json",
            "--assign",
            "fancy",
        ]))
        .unwrap_err();
        assert!(err.contains("--assign"), "{err}");
    }

    #[test]
    fn parses_pretrained_only_flag() {
        let cmd = parse(&s(&[
            "build",
            "--dataset",
            "taipei",
            "--n",
            "500",
            "--out",
            "x.json",
            "--pretrained-only",
        ]))
        .unwrap();
        match cmd {
            Command::Build(a) => assert!(a.pretrained_only),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_query_kinds() {
        for kind in ["agg", "supg", "limit"] {
            let cmd = parse(&s(&[
                "query",
                kind,
                "--index",
                "x.json",
                "--dataset",
                "amsterdam",
                "--n",
                "100",
            ]))
            .unwrap();
            match cmd {
                Command::Query(a) => assert_eq!(a.kind, kind),
                other => panic!("wrong parse: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_unknown_command_and_kind() {
        assert!(parse(&s(&["frobnicate"])).is_err());
        assert!(parse(&s(&["query", "nope", "--index", "x"])).is_err());
    }

    #[test]
    fn missing_required_flags_error() {
        let err = parse(&s(&["build", "--n", "100", "--out", "x.json"])).unwrap_err();
        assert!(err.contains("--dataset"), "{err}");
        let err = parse(&s(&["info"])).unwrap_err();
        assert!(err.contains("--index"), "{err}");
    }

    #[test]
    fn invalid_values_error() {
        let err = parse(&s(&["build", "--dataset", "x", "--n", "abc", "--out", "y"])).unwrap_err();
        assert!(err.contains("invalid value for --n"), "{err}");
    }

    #[test]
    fn flag_without_value_errors() {
        let err = parse(&s(&["info", "--index"])).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse(&s(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&s(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse(&s(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn scoring_dispatch() {
        assert!(scoring_for("night-street", "car", "agg", 1).is_ok());
        assert!(scoring_for("night-street", "tank", "agg", 1).is_err());
        assert!(scoring_for("wikisql", "car", "supg", 1).is_ok());
        assert!(scoring_for("unknown", "car", "agg", 1).is_err());
    }

    #[test]
    fn supg_scoring_is_a_predicate_but_agg_is_a_count() {
        use tasti_labeler::{Detection, LabelerOutput};
        let frame = LabelerOutput::Detections(vec![
            Detection {
                class: ObjectClass::Car,
                x: 0.2,
                y: 0.5,
                w: 0.1,
                h: 0.1,
            },
            Detection {
                class: ObjectClass::Car,
                x: 0.7,
                y: 0.5,
                w: 0.1,
                h: 0.1,
            },
        ]);
        let agg = scoring_for("night-street", "car", "agg", 2).unwrap();
        assert_eq!(agg.score(&frame), 2.0);
        let supg = scoring_for("night-street", "car", "supg", 2).unwrap();
        assert_eq!(supg.score(&frame), 1.0);
        let supg3 = scoring_for("night-street", "car", "supg", 3).unwrap();
        assert_eq!(supg3.score(&frame), 0.0);
    }

    #[test]
    fn limit_thresholds() {
        assert_eq!(limit_threshold_for("night-street", 4), 4.0);
        assert_eq!(limit_threshold_for("night-street", 0), 1.0);
        assert_eq!(limit_threshold_for("common-voice", 7), 1.0);
    }

    #[test]
    fn parses_serve_with_defaults_and_flags() {
        let cmd = parse(&s(&[
            "serve",
            "--index",
            "x.json",
            "--dataset",
            "night-street",
            "--n",
            "500",
            "--snapshot",
            "/tmp/snap.json",
            "--snapshot-on-shutdown",
            "--label-budget",
            "250",
            "--no-crack",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(a.addr, "127.0.0.1:0");
                assert_eq!(a.workers, 4);
                assert_eq!(a.queue_depth, 16);
                assert_eq!(a.snapshot.as_deref(), Some("/tmp/snap.json"));
                assert!(a.snapshot_on_shutdown);
                assert_eq!(a.label_budget, Some(250));
                assert!(a.no_crack);
                assert!(!a.no_degraded, "degraded replies default on");
                assert_eq!(a.fault_transient, 0.0, "fault injection defaults off");
                assert_eq!(a.fault_fatal, 0.0);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_the_flag() {
        let base = [
            "serve",
            "--index",
            "x.json",
            "--dataset",
            "night-street",
            "--n",
            "5",
        ];
        // The removed core selector and a typo of a real flag alike.
        for (flag, value) in [("--serve-core", "threaded"), ("--worker", "8")] {
            let mut args = s(&base);
            args.extend(s(&[flag, value]));
            let err = parse(&args).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag} for 'serve'"));
        }
        // Each subcommand has its own list: a serve flag is unknown to build.
        let err = parse(&s(&["build", "--workers", "2"])).unwrap_err();
        assert_eq!(err, "unknown flag --workers for 'build'");
    }

    #[test]
    fn usage_synopsis_and_accepted_flags_agree() {
        use std::collections::BTreeSet;
        for (command, accepted) in [
            ("build", BUILD_FLAGS),
            ("info", INFO_FLAGS),
            ("query", QUERY_FLAGS),
            ("serve", SERVE_FLAGS),
            ("probe", PROBE_FLAGS),
        ] {
            // The subcommand's synopsis: its `tasti_cli <command>` line and
            // the continuation lines before the next synopsis or blank line.
            let head = format!("  tasti_cli {command} ");
            let synopsis: Vec<&str> = USAGE
                .lines()
                .skip_while(|line| !line.starts_with(&head))
                .enumerate()
                .take_while(|(i, line)| {
                    *i == 0 || !(line.is_empty() || line.starts_with("  tasti_cli "))
                })
                .map(|(_, line)| line)
                .collect();
            assert!(!synopsis.is_empty(), "no synopsis for '{command}'");
            let documented: BTreeSet<&str> = synopsis
                .iter()
                .flat_map(|line| line.split("--").skip(1))
                .map(|rest| {
                    let end = rest
                        .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                        .unwrap_or(rest.len());
                    &rest[..end]
                })
                .collect();
            let accepted: BTreeSet<&str> = accepted.iter().copied().collect();
            assert_eq!(documented, accepted, "USAGE vs {command} flag list");
        }
    }

    #[test]
    fn parses_serve_fault_flags() {
        let cmd = parse(&s(&[
            "serve",
            "--index",
            "x.json",
            "--dataset",
            "night-street",
            "--n",
            "500",
            "--no-degraded",
            "--fault-transient",
            "0.2",
            "--fault-fatal",
            "0.05",
            "--fault-seed",
            "7",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert!(a.no_degraded);
                assert_eq!(a.fault_transient, 0.2);
                assert_eq!(a.fault_timeout, 0.0);
                assert_eq!(a.fault_fatal, 0.05);
                assert_eq!(a.fault_seed, 7);
                let plan = fault_plan_for(&a)
                    .unwrap()
                    .expect("a positive rate is a plan");
                assert_eq!(plan.transient_rate, 0.2);
                assert_eq!(plan.fatal_rate, 0.05);
                assert_eq!(plan.seed, 7);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn serve_fault_rates_are_validated_before_the_labeler_factory_sees_them() {
        let serve_with = |fault_flags: &[&str]| {
            let mut args = s(&[
                "serve",
                "--index",
                "x.json",
                "--dataset",
                "night-street",
                "--n",
                "500",
            ]);
            args.extend(s(fault_flags));
            match parse(&args).unwrap() {
                Command::Serve(a) => fault_plan_for(&a),
                other => panic!("wrong parse: {other:?}"),
            }
        };
        assert!(serve_with(&[]).unwrap().is_none(), "faults default off");
        // Rates that sum past 1 used to panic inside the labeler factory.
        let err = serve_with(&["--fault-transient", "0.7", "--fault-fatal", "0.7"]).unwrap_err();
        assert!(err.contains("sum to 1.4"), "{err}");
        // A negative rate names its flag, alone or beside a positive one.
        let err = serve_with(&["--fault-timeout", "-0.2"]).unwrap_err();
        assert!(err.contains("--fault-timeout -0.2"), "{err}");
        let err = serve_with(&["--fault-transient", "0.3", "--fault-corrupt", "-0.1"]).unwrap_err();
        assert!(err.contains("--fault-corrupt -0.1"), "{err}");
        // NaN and out-of-range rates likewise.
        let err = serve_with(&["--fault-fatal", "NaN"]).unwrap_err();
        assert!(err.contains("--fault-fatal NaN"), "{err}");
        let err = serve_with(&["--fault-transient", "1.5"]).unwrap_err();
        assert!(err.contains("--fault-transient 1.5"), "{err}");
    }

    #[test]
    fn parses_probe_ops() {
        for op in [
            "agg",
            "supg",
            "supg-precision",
            "limit",
            "predicate",
            "stats",
            "metrics",
            "health",
            "index-list",
            "index_list",
            "index-load",
            "index_load",
            "index-unload",
            "index_unload",
            "snapshot",
            "shutdown",
            "ingest",
        ] {
            let cmd = parse(&s(&["probe", op, "--addr", "127.0.0.1:9"])).unwrap();
            match cmd {
                Command::Probe(a) => assert_eq!(a.op, op),
                other => panic!("wrong parse: {other:?}"),
            }
        }
        assert!(parse(&s(&["probe", "nope", "--addr", "x"])).is_err());
        assert!(parse(&s(&["probe", "stats"])).is_err(), "addr is required");
    }

    #[test]
    fn parses_serve_ingest_flags() {
        let cmd = parse(&s(&[
            "serve",
            "--index",
            "x.json",
            "--dataset",
            "night-street",
            "--n",
            "2100",
            "--ingest-dir",
            "/tmp/ingest-log",
            "--drift-threshold",
            "0.75",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(a.ingest_dir.as_deref(), Some("/tmp/ingest-log"));
                assert!((a.drift_threshold - 0.75).abs() < 1e-12);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let cmd = parse(&s(&[
            "serve",
            "--index",
            "x.json",
            "--dataset",
            "night-street",
            "--n",
            "2000",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert!(a.ingest_dir.is_none(), "ingest is opt-in");
                assert!((a.drift_threshold - 0.5).abs() < 1e-12);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_serve_storage_fault_flags() {
        let cmd = parse(&s(&[
            "serve",
            "--index",
            "x.json",
            "--dataset",
            "night-street",
            "--n",
            "500",
            "--storage-fault-script",
            "sync:2=eio,write:1=short",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(
                    a.storage_fault_script.as_deref(),
                    Some("sync:2=eio,write:1=short")
                );
                assert_eq!(a.storage_fault_rate, 0.0, "seeded faults default off");
                // The script must survive parsing into an actual FaultVfs.
                let vfs = storage_vfs_for(&a).unwrap();
                assert!(format!("{vfs:?}").contains("FaultVfs"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let cmd = parse(&s(&[
            "serve",
            "--index",
            "x.json",
            "--dataset",
            "night-street",
            "--n",
            "500",
            "--storage-fault-rate",
            "0.25",
            "--storage-fault-seed",
            "7",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert!((a.storage_fault_rate - 0.25).abs() < 1e-12);
                assert_eq!(a.storage_fault_seed, 7);
                let vfs = storage_vfs_for(&a).unwrap();
                assert!(format!("{vfs:?}").contains("FaultVfs"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Default: the real filesystem, and a bad script is a parse error.
        let cmd = parse(&s(&[
            "serve",
            "--index",
            "x.json",
            "--dataset",
            "night-street",
            "--n",
            "500",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(mut a) => {
                assert!(a.storage_fault_script.is_none());
                let vfs = storage_vfs_for(&a).unwrap();
                assert!(format!("{vfs:?}").contains("RealVfs"));
                a.storage_fault_script = Some("nonsense".to_string());
                let err = storage_vfs_for(&a).unwrap_err();
                assert!(err.contains("storage-fault-script"), "got: {err}");
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_probe_ingest_row_source() {
        let cmd = parse(&s(&[
            "probe",
            "ingest",
            "--addr",
            "127.0.0.1:9",
            "--dataset",
            "night-street",
            "--n",
            "2100",
            "--offset",
            "2000",
            "--count",
            "40",
        ]))
        .unwrap();
        match cmd {
            Command::Probe(a) => {
                assert_eq!(a.op, "ingest");
                assert_eq!(a.dataset.as_deref(), Some("night-street"));
                assert_eq!(a.n, Some(2100));
                assert_eq!(a.offset, 2000);
                assert_eq!(a.count, 40);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_serve_with_multiple_indexes() {
        let cmd = parse(&s(&[
            "serve",
            "--index",
            "main.json",
            "--dataset",
            "night-street",
            "--n",
            "500",
            "--index",
            "alt=extra.json",
            "--index",
            "third=t.json",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(a.index, "main.json");
                assert_eq!(
                    a.preload,
                    vec![
                        ("alt".to_string(), "extra.json".to_string()),
                        ("third".to_string(), "t.json".to_string()),
                    ]
                );
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // The explicit default=path spelling works in any position.
        let cmd = parse(&s(&[
            "serve",
            "--index",
            "alt=x.json",
            "--index",
            "default=main.json",
            "--dataset",
            "night-street",
            "--n",
            "5",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(a.index, "main.json");
                assert_eq!(a.preload, vec![("alt".to_string(), "x.json".to_string())]);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_index_lists() {
        let base = ["serve", "--dataset", "night-street", "--n", "5"];
        let with = |extra: &[&str]| {
            let mut v = base.to_vec();
            v.extend_from_slice(extra);
            parse(&s(&v)).unwrap_err()
        };
        let err = with(&["--index", "a.json", "--index", "b.json"]);
        assert!(err.contains("default"), "{err}");
        let err = with(&["--index", "a.json", "--index", "alt=x", "--index", "alt=y"]);
        assert!(err.contains("duplicate"), "{err}");
        let err = with(&["--index", "alt=x.json"]);
        assert!(err.contains("default"), "{err}");
        let err = with(&["--index", "=x.json"]);
        assert!(err.contains("invalid --index"), "{err}");
        let err = with(&[]);
        assert!(err.contains("--index"), "{err}");
    }

    #[test]
    fn parses_probe_index_routing() {
        let cmd = parse(&s(&["probe", "stats", "--addr", "x:1", "--index", "alt"])).unwrap();
        match cmd {
            Command::Probe(a) => assert_eq!(a.index.as_deref(), Some("alt")),
            other => panic!("wrong parse: {other:?}"),
        }
        let cmd = parse(&s(&[
            "probe",
            "index-load",
            "--addr",
            "x:1",
            "--index",
            "alt",
            "--path",
            "/tmp/i.json",
            "--label-budget",
            "40",
        ]))
        .unwrap();
        match cmd {
            Command::Probe(a) => {
                assert_eq!(a.index.as_deref(), Some("alt"));
                assert_eq!(a.path.as_deref(), Some("/tmp/i.json"));
                assert_eq!(a.label_budget, Some(40));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn repeated_scalar_flags_take_the_last_value() {
        let cmd = parse(&s(&[
            "build",
            "--dataset",
            "taipei",
            "--dataset",
            "night-street",
            "--n",
            "10",
            "--out",
            "x",
        ]))
        .unwrap();
        match cmd {
            Command::Build(a) => assert_eq!(a.dataset, "night-street"),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn dataset_dispatch() {
        assert!(load_dataset("amsterdam", 50, 1).is_ok());
        assert!(load_dataset("wikisql", 50, 1).is_ok());
        assert!(load_dataset("bogus", 50, 1).is_err());
    }
}
