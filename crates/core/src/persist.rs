//! Index persistence.
//!
//! A TASTI index is built once per dataset and amortized across queries and
//! sessions (Table 1's "no index" column is exactly the amortized view), so
//! it must survive process restarts — and the disks it lives on. The
//! on-disk format is a versioned JSON document carrying everything
//! [`TastiIndex`] needs to answer queries: embeddings, representative ids
//! and cached labeler outputs, and the min-k table. Cracked representatives
//! round-trip too.
//!
//! # Durability and integrity
//!
//! [`save`] is atomic *and* durable: the document is written to a sibling
//! temp file, fsync'd, renamed over the destination, and the parent
//! directory is fsync'd — so a crash at any instant leaves either the old
//! snapshot or the complete new one, never a durable name pointing at
//! non-durable bytes. The previous snapshot is rotated to a `.prev`
//! sibling (the *last-good* copy) before the rename.
//!
//! Streamed indexes (nonzero ingest watermark) are written as a format
//! version 3 *envelope*: a CRC32 over the whole version-2 body, so bit rot
//! anywhere in the file is detected at load instead of surfacing as a
//! wrong answer. Ingest-free indexes keep writing the bare version-1 body,
//! byte-identical to pre-ingest builds. [`load`] verifies the checksum and
//! reports damage as the typed [`PersistError::Corrupt`];
//! [`load_with_fallback`] additionally recovers from the last-good copy —
//! lossless for streamed indexes, whose ingest log replays everything
//! above the older snapshot's watermark.

use crate::index::TastiIndex;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use tasti_cluster::{AssignStrategy, Metric, MinKTable};
use tasti_ingest::crc32::crc32;
use tasti_ingest::vfs::{RealVfs, Vfs};
use tasti_labeler::{LabelerOutput, RecordId};
use tasti_nn::{Matrix, Mlp};

/// Current (maximum) *body* format version. Version 2 adds the ingest
/// watermark for streamed indexes; [`to_json`] still writes version 1 —
/// byte-identical to pre-ingest builds — whenever the index has never
/// ingested, and [`from_json`] accepts both.
pub const FORMAT_VERSION: u32 = 2;

/// Oldest on-disk format version this build can load.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// File-level envelope version: a whole-body CRC32 wrapped around a
/// version-2 body. Written by [`save`] for streamed indexes, understood by
/// [`load`]; [`from_json`] deals in bodies only and does not accept it.
pub const ENVELOPE_VERSION: u32 = 3;

/// `skip_serializing_if` helper: elide the watermark when the index has
/// never ingested, keeping ingest-free snapshots on format version 1.
fn watermark_is_zero(v: &u64) -> bool {
    *v == 0
}

/// Serializable snapshot of a [`TastiIndex`].
#[derive(Serialize, Deserialize)]
struct IndexSnapshot {
    version: u32,
    embeddings: Matrix,
    metric: Metric,
    k: usize,
    reps: Vec<RecordId>,
    rep_outputs: Vec<LabelerOutput>,
    mink: MinKTable,
    /// Trained embedding model (None for TASTI-PT indexes).
    model: Option<Mlp>,
    /// Rep-assignment strategy for maintenance rebuilds. Defaulted so
    /// snapshots written before the field existed still load (as `Auto`,
    /// which is what those builds effectively ran).
    #[serde(default)]
    assign_strategy: AssignStrategy,
    /// Highest ingest-log sequence number folded into the snapshot
    /// (format version 2). A snapshot is the *base* of base + segment
    /// deltas: on restart the serving layer replays only log frames above
    /// this mark. Elided (and the snapshot stays version 1) when zero.
    #[serde(default, skip_serializing_if = "watermark_is_zero")]
    ingest_watermark: u64,
}

/// Errors raised when loading an index.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The document is not a valid index snapshot.
    Format(serde_json::Error),
    /// The snapshot's format version is not supported by this build. Raised
    /// from a cheap header probe *before* the full typed parse, so a
    /// snapshot written by a newer build whose body no longer matches this
    /// build's schema is still reported as a version mismatch — the
    /// actionable error — rather than a generic format failure.
    Version(u32),
    /// The snapshot's bytes fail an integrity check: a version-3 envelope
    /// whose checksum does not match its body, or an envelope too garbled
    /// to parse. This is disk damage, not a format revision.
    Corrupt {
        /// The damaged snapshot file.
        path: PathBuf,
        /// Human-readable diagnosis.
        detail: String,
        /// Whether a last-good fallback copy was loaded in its place
        /// (only ever `true` inside a [`LoadReport`]; an `Err` means no
        /// fallback was available or it was damaged too).
        recovered: bool,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "index I/O error: {e}"),
            PersistError::Format(e) => write!(f, "malformed index snapshot: {e}"),
            PersistError::Version(v) => {
                write!(
                    f,
                    "unsupported index format version {v} (supported: \
                     {MIN_FORMAT_VERSION}..={FORMAT_VERSION}); \
                     rebuild the index or load it with a matching build"
                )
            }
            PersistError::Corrupt {
                path,
                detail,
                recovered,
            } => {
                write!(f, "corrupt index snapshot {}: {detail}", path.display())?;
                if *recovered {
                    write!(f, " (recovered from the last-good copy)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format(e)
    }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt {
        path: path.to_path_buf(),
        detail: detail.into(),
        recovered: false,
    }
}

/// Serializes the index to a JSON string (the snapshot *body*).
///
/// An index that has never ingested streamed records (watermark 0) is
/// written as format version 1, byte-identical to pre-ingest builds — so
/// existing snapshot diffing, caching, and older readers keep working
/// until streaming is actually used.
pub fn to_json(index: &TastiIndex) -> String {
    let version = if index.ingest_watermark() == 0 {
        MIN_FORMAT_VERSION
    } else {
        FORMAT_VERSION
    };
    let snapshot = IndexSnapshot {
        version,
        embeddings: index.embeddings().clone(),
        metric: index.metric(),
        k: index.k(),
        reps: index.reps().to_vec(),
        rep_outputs: (0..index.reps().len())
            .map(|i| index.rep_output(i).clone())
            .collect(),
        mink: index.mink().clone(),
        model: index.model().cloned(),
        assign_strategy: index.assign_strategy(),
        ingest_watermark: index.ingest_watermark(),
    };
    serde_json::to_string(&snapshot).expect("index serialization cannot fail")
}

/// Header probe: only the `version` field, every other field ignored. A
/// snapshot from any format revision deserializes into this as long as it
/// is a well-formed JSON object, which is what lets [`from_json`] report a
/// version mismatch instead of whatever body field happens to differ.
#[derive(Deserialize)]
struct VersionProbe {
    version: Option<u32>,
}

/// Deserializes an index from a JSON snapshot *body* (version 1 or 2 —
/// the version-3 file envelope is unwrapped by [`load`], not here).
///
/// The format version wins over the body: a well-formed snapshot carrying
/// a different `version` is rejected with [`PersistError::Version`] even if
/// its body layout is incompatible with this build's schema (a truncated
/// or otherwise corrupt document is still [`PersistError::Format`]). The
/// header probe that decides this runs only after the typed parse has
/// failed, so a loadable snapshot is walked once.
///
/// # Errors
/// Returns [`PersistError`] on malformed input or version mismatch.
pub fn from_json(json: &str) -> Result<TastiIndex, PersistError> {
    let supported = MIN_FORMAT_VERSION..=FORMAT_VERSION;
    let snapshot: IndexSnapshot = serde_json::from_str(json).map_err(|e| {
        match serde_json::from_str::<VersionProbe>(json) {
            Ok(VersionProbe { version: Some(v) }) if !supported.contains(&v) => {
                PersistError::Version(v)
            }
            // No version field, a supported one, or not JSON at all: the
            // typed parse's field-level message is the useful one.
            _ => PersistError::Format(e),
        }
    })?;
    if !supported.contains(&snapshot.version) {
        return Err(PersistError::Version(snapshot.version));
    }
    let mut index = TastiIndex::new(
        snapshot.embeddings,
        snapshot.metric,
        snapshot.k,
        snapshot.reps,
        snapshot.rep_outputs,
        snapshot.mink,
    )
    .with_assign_strategy(snapshot.assign_strategy);
    if let Some(model) = snapshot.model {
        index = index.with_model(model);
    }
    index.set_ingest_watermark(snapshot.ingest_watermark);
    Ok(index)
}

/// The exact prefix [`save`] writes for a version-3 envelope; [`load`]
/// keys on it, so the layout is fixed, not merely conventional JSON.
const V3_PREFIX: &str = "{\"version\":3,\"crc32\":";

/// The document [`save`] writes: the bare version-1/2 body for ingest-free
/// indexes (byte-identity contract), the checksummed version-3 envelope
/// for streamed ones.
fn to_document(index: &TastiIndex) -> String {
    let body = to_json(index);
    if index.ingest_watermark() == 0 {
        return body;
    }
    let crc = crc32(body.as_bytes());
    format!("{{\"version\":3,\"crc32\":{crc},\"snapshot\":{body}}}")
}

/// Parses a snapshot document as read from `path`: unwraps and verifies a
/// version-3 envelope, or hands a bare body to [`from_json`].
fn parse_document(text: &str, path: &Path) -> Result<TastiIndex, PersistError> {
    let Some(rest) = text.strip_prefix(V3_PREFIX) else {
        return from_json(text);
    };
    let comma = rest
        .find(',')
        .ok_or_else(|| corrupt(path, "truncated version-3 envelope"))?;
    let stored: u32 = rest[..comma]
        .parse()
        .map_err(|_| corrupt(path, "malformed version-3 envelope checksum"))?;
    let body = rest[comma..]
        .strip_prefix(",\"snapshot\":")
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| corrupt(path, "malformed version-3 envelope layout"))?;
    let actual = crc32(body.as_bytes());
    if actual != stored {
        return Err(corrupt(
            path,
            format!(
                "snapshot checksum mismatch \
                 (stored {stored:#010x}, computed {actual:#010x})"
            ),
        ));
    }
    from_json(body)
}

/// The sibling path where [`save`] rotates the previous snapshot — the
/// *last-good* copy [`load_with_fallback`] recovers from: `{file}.prev`.
pub fn last_good_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".prev");
    path.with_file_name(name)
}

/// The directory whose entry table must be fsync'd for renames of `path`
/// to be durable.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Writes the index to `path` as JSON — atomically and durably. See
/// [`save_with_vfs`].
///
/// # Errors
/// Propagates I/O failures. On failure the temporary file is removed and
/// any previous snapshot at `path` is left (or put back) in place.
pub fn save(index: &TastiIndex, path: impl AsRef<Path>) -> Result<(), PersistError> {
    save_with_vfs(index, path, &RealVfs)
}

/// [`save`] through an injectable [`Vfs`] (fault testing).
///
/// The snapshot is written to a sibling temporary file, **fsync'd**, and
/// renamed over `path`; the parent directory is fsync'd after the rename.
/// Without the first fsync a crash shortly after a "successful" save could
/// leave a durable name pointing at non-durable bytes; without the second
/// the rename itself could vanish. Any existing snapshot is first rotated
/// to the `.prev` last-good copy (see [`last_good_path`]), so a later
/// corruption of `path` can fall back to it.
///
/// # Errors
/// Propagates I/O failures. On failure the temporary file is removed and
/// the previous snapshot is left at (or restored to) `path` when possible.
pub fn save_with_vfs(
    index: &TastiIndex,
    path: impl AsRef<Path>,
    vfs: &dyn Vfs,
) -> Result<(), PersistError> {
    let path = path.as_ref();
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("index path has no file name: {}", path.display()),
        )
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let prev = last_good_path(path);
    let document = to_document(index);
    let result = (|| -> io::Result<()> {
        let mut file = vfs.create(&tmp)?;
        file.write_all(document.as_bytes())?;
        // fsync before the rename: otherwise the rename can be durable
        // while the bytes are not.
        file.sync_data()?;
        drop(file);
        // Rotate the current snapshot to the last-good copy before
        // installing the new one.
        if vfs.exists(path) {
            vfs.rename(path, &prev)?;
        }
        vfs.rename(&tmp, path)?;
        // fsync the parent directory so both renames survive a crash.
        vfs.sync_dir(parent_dir(path))
    })();
    if let Err(e) = result {
        // If the install never completed, put the last-good copy back so
        // `path` keeps naming a valid snapshot.
        if !vfs.exists(path) && vfs.exists(&prev) {
            vfs.rename(&prev, path).ok();
        }
        vfs.remove_file(&tmp).ok();
        return Err(e.into());
    }
    Ok(())
}

/// Loads an index from `path` (bare body or version-3 envelope), with no
/// fallback: damage is reported, not repaired. Use [`load_with_fallback`]
/// where a last-good recovery is wanted.
///
/// # Errors
/// Returns [`PersistError`] on I/O failure, malformed input, checksum
/// mismatch, or version mismatch.
pub fn load(path: impl AsRef<Path>) -> Result<TastiIndex, PersistError> {
    load_document(path.as_ref(), &RealVfs)
}

fn load_document(path: &Path, vfs: &dyn Vfs) -> Result<TastiIndex, PersistError> {
    let bytes = vfs.read(path)?;
    let text =
        String::from_utf8(bytes).map_err(|_| corrupt(path, "snapshot is not valid UTF-8"))?;
    parse_document(&text, path)
}

/// A successful [`load_with_fallback`]: the index, plus how it was
/// obtained when the primary snapshot was unusable.
pub struct LoadReport {
    /// The loaded index.
    pub index: TastiIndex,
    /// `Some` when the primary snapshot was damaged (or missing mid-save)
    /// and the last-good copy was loaded instead. Callers surface this —
    /// a metric, a startup notice — so recovery is never silent.
    pub fallback: Option<FallbackInfo>,
}

/// Why and from where a fallback load happened.
#[derive(Debug, Clone)]
pub struct FallbackInfo {
    /// What was wrong with the primary snapshot.
    pub detail: String,
    /// The last-good copy that was loaded instead.
    pub fallback_path: PathBuf,
}

/// Loads an index from `path`, falling back to the `.prev` last-good copy
/// when the primary is damaged (checksum mismatch, garbled document) or
/// missing with a last-good present (a crash between `save`'s two
/// renames). For streamed indexes the fallback is lossless: the ingest
/// log replays everything above the older snapshot's watermark.
///
/// A [`PersistError::Version`] never falls back — a snapshot from a newer
/// build is not damage.
///
/// # Errors
/// The primary snapshot's error when no fallback is available or the
/// last-good copy is unusable too (`Corrupt.recovered` stays `false`).
pub fn load_with_fallback(path: impl AsRef<Path>) -> Result<LoadReport, PersistError> {
    load_with_fallback_vfs(path, &RealVfs)
}

/// [`load_with_fallback`] through an injectable [`Vfs`] (fault testing).
///
/// # Errors
/// See [`load_with_fallback`].
pub fn load_with_fallback_vfs(
    path: impl AsRef<Path>,
    vfs: &dyn Vfs,
) -> Result<LoadReport, PersistError> {
    let path = path.as_ref();
    let primary = match load_document(path, vfs) {
        Ok(index) => {
            return Ok(LoadReport {
                index,
                fallback: None,
            })
        }
        Err(e) => e,
    };
    let damaged = matches!(
        primary,
        PersistError::Corrupt { .. } | PersistError::Format(_)
    ) || matches!(&primary, PersistError::Io(e) if e.kind() == io::ErrorKind::NotFound);
    let prev = last_good_path(path);
    if !damaged || !vfs.exists(&prev) {
        return Err(primary);
    }
    match load_document(&prev, vfs) {
        Ok(index) => Ok(LoadReport {
            index,
            fallback: Some(FallbackInfo {
                detail: primary.to_string(),
                fallback_path: prev,
            }),
        }),
        // The last-good copy is unusable too: report the *primary*
        // failure (recovered stays false).
        Err(_) => Err(primary),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::CountClass;
    use tasti_ingest::vfs::{FaultScript, FaultVfs};
    use tasti_labeler::{Detection, ObjectClass};

    fn frame(n_cars: usize) -> LabelerOutput {
        LabelerOutput::Detections(
            (0..n_cars)
                .map(|i| Detection {
                    class: ObjectClass::Car,
                    x: 0.1 * (i + 1) as f32,
                    y: 0.5,
                    w: 0.1,
                    h: 0.1,
                })
                .collect(),
        )
    }

    fn tiny_index() -> TastiIndex {
        let embeddings = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as f32 * 0.5);
        let reps = vec![0usize, 5];
        let rep_outputs = vec![frame(0), frame(3)];
        let rep_emb: Vec<f32> = [embeddings.row(0), embeddings.row(5)].concat();
        let mink = MinKTable::build(embeddings.as_slice(), &rep_emb, 2, 2, Metric::L2);
        TastiIndex::new(embeddings, Metric::L2, 2, reps, rep_outputs, mink)
    }

    fn streamed_index(watermark: u64) -> TastiIndex {
        let mut index = tiny_index();
        index.set_ingest_watermark(watermark);
        index
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tasti-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn faulty(script: &str) -> FaultVfs {
        FaultVfs::scripted(FaultScript::parse(script).unwrap())
    }

    #[test]
    fn assign_strategy_round_trips_and_defaults_for_legacy_snapshots() {
        use tasti_cluster::IvfParams;
        let index = tiny_index().with_assign_strategy(AssignStrategy::Ivf(IvfParams {
            nprobe: 3,
            ..IvfParams::default()
        }));
        let json = to_json(&index);
        let restored = from_json(&json).unwrap();
        assert_eq!(restored.assign_strategy(), index.assign_strategy());

        // A snapshot written before the field existed loads as Auto.
        // `assign_strategy` is the last snapshot field, so strip it with
        // its leading comma.
        let encoded = serde_json::to_string(&index.assign_strategy()).unwrap();
        let legacy = json.replace(&format!(",\"assign_strategy\":{encoded}"), "");
        assert!(!legacy.contains("assign_strategy"), "field not stripped");
        let restored = from_json(&legacy).unwrap();
        assert_eq!(restored.assign_strategy(), AssignStrategy::Auto);

        // A snapshot written by an `--assign ivf --nprobe 2` build from when
        // `IvfParams` had a `quant` codec field: the unknown key is ignored.
        let old = r#"{"Ivf":{"nprobe":2,"min_pool":0,"recall_target":0.99,"quant":"Int8","widen_ratio":0.15,"audit_sample":0}}"#;
        let with_quant = json.replace(&encoded, old);
        assert!(with_quant.contains(old), "literal not spliced");
        let restored = from_json(&with_quant).unwrap();
        let expected = IvfParams {
            nprobe: 2,
            ..IvfParams::default()
        };
        assert_eq!(restored.assign_strategy(), AssignStrategy::Ivf(expected));
    }

    #[test]
    fn round_trip_preserves_query_behavior() {
        let index = tiny_index();
        let restored = from_json(&to_json(&index)).unwrap();
        assert_eq!(restored.reps(), index.reps());
        assert_eq!(restored.k(), index.k());
        assert_eq!(restored.embeddings(), index.embeddings());
        let score = CountClass(ObjectClass::Car);
        assert_eq!(restored.propagate(&score), index.propagate(&score));
        assert_eq!(restored.limit_ranking(&score), index.limit_ranking(&score));
    }

    #[test]
    fn cracked_reps_survive_round_trip() {
        let mut index = tiny_index();
        index.crack(3, frame(2));
        let restored = from_json(&to_json(&index)).unwrap();
        assert!(restored.is_rep(3));
        assert_eq!(restored.rep_output(2), &frame(2));
        let score = CountClass(ObjectClass::Car);
        assert_eq!(restored.propagate(&score)[3], 2.0);
    }

    #[test]
    fn file_round_trip() {
        let index = tiny_index();
        let dir = scratch("roundtrip");
        let path = dir.join("index.json");
        save(&index, &path).unwrap();
        let restored = load(&path).unwrap();
        assert_eq!(restored.reps(), index.reps());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_snapshot_is_a_format_error() {
        // A snapshot cut off mid-document (what a non-atomic writer could
        // leave behind after a crash) must surface as `Format`, not a panic
        // or a silently-wrong index.
        let json = to_json(&tiny_index());
        for cut in [1, json.len() / 4, json.len() / 2, json.len() - 1] {
            assert!(
                matches!(from_json(&json[..cut]), Err(PersistError::Format(_))),
                "truncation at {cut} bytes not rejected"
            );
        }
        // And through the file path too.
        let dir = scratch("truncated");
        let path = dir.join("truncated.json");
        std::fs::write(&path, &json[..json.len() / 2]).unwrap();
        assert!(matches!(load(&path), Err(PersistError::Format(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let index = tiny_index();
        let dir = scratch("atomic");
        let path = dir.join("index.json");
        // Seed the destination with garbage; a successful save must fully
        // replace it.
        std::fs::write(&path, "garbage from a previous crash").unwrap();
        save(&index, &path).unwrap();
        // Byte-compare rather than deserialize: the snapshot at `path` must
        // be exactly the complete document, never a partial write.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), to_json(&index));
        // No temporary sibling survives a successful save.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_to_unwritable_path_fails_without_touching_destination() {
        let index = tiny_index();
        assert!(matches!(
            save(&index, "/nonexistent-dir/index.json"),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(matches!(
            from_json("not json"),
            Err(PersistError::Format(_))
        ));
        assert!(matches!(from_json("{}"), Err(PersistError::Format(_))));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut json = to_json(&tiny_index());
        json = json.replace("\"version\":1", "\"version\":999");
        assert!(matches!(from_json(&json), Err(PersistError::Version(999))));
    }

    #[test]
    fn wrong_version_wins_over_incompatible_body() {
        // A snapshot body from a hypothetical future format revision: the
        // header says version 9 and the body no longer matches this build's
        // schema (fields renamed/removed). The version probe must fire
        // *first* so the user sees the actionable "version mismatch" error,
        // not a generic missing-field format error. (Version 3 is taken:
        // it is the file-level envelope, unwrapped by `load`.)
        let json = r#"{"version":9,"embeddings_v9":"opaque-blob","reps":[0]}"#;
        match from_json(json) {
            Err(PersistError::Version(9)) => {}
            other => panic!("expected Version(9), got {other:?}"),
        }
        // The display message names the offending and supported versions.
        let msg = from_json(json).unwrap_err().to_string();
        assert!(
            msg.contains('9') && msg.contains('1') && msg.contains('2'),
            "message: {msg}"
        );
    }

    #[test]
    fn ingest_free_snapshot_stays_version_1() {
        // Byte-compat contract: until an index actually ingests, its
        // snapshot is indistinguishable from a pre-ingest build's.
        let json = to_json(&tiny_index());
        assert!(json.contains("\"version\":1"), "{json}");
        assert!(!json.contains("ingest_watermark"), "{json}");
    }

    #[test]
    fn ingest_watermark_bumps_to_version_2_and_round_trips() {
        let index = streamed_index(42);
        let json = to_json(&index);
        assert!(json.contains("\"version\":2"), "{json}");
        assert!(json.contains("\"ingest_watermark\":42"), "{json}");
        let restored = from_json(&json).unwrap();
        assert_eq!(restored.ingest_watermark(), 42);
        // Query behavior is untouched by the version bump.
        let score = CountClass(ObjectClass::Car);
        assert_eq!(restored.propagate(&score), index.propagate(&score));
    }

    #[test]
    fn version_2_snapshot_without_watermark_loads() {
        // A hand-rolled v2 header over a v1 body (e.g. a tool that bumped
        // the version without writing the optional field) still loads,
        // defaulting the watermark to zero.
        let json = to_json(&tiny_index()).replace("\"version\":1", "\"version\":2");
        let restored = from_json(&json).unwrap();
        assert_eq!(restored.ingest_watermark(), 0);
    }

    #[test]
    fn hand_mangled_header_is_a_version_error_through_the_file_path() {
        let index = tiny_index();
        let dir = scratch("mangled");
        let path = dir.join("mangled.json");
        let mangled = to_json(&index).replace("\"version\":1", "\"version\":7");
        std::fs::write(&path, mangled).unwrap();
        assert!(matches!(load(&path), Err(PersistError::Version(7))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_field_absent_is_a_format_error() {
        // No version field at all: not a snapshot of any revision.
        assert!(matches!(
            from_json(r#"{"reps":[0,5]}"#),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load("/nonexistent/path/index.json"),
            Err(PersistError::Io(_))
        ));
    }

    // ------------------------------------------------------------------
    // Version-3 envelope, durability, last-good fallback
    // ------------------------------------------------------------------

    #[test]
    fn streamed_snapshot_is_a_checksummed_envelope_and_round_trips() {
        let index = streamed_index(7);
        let dir = scratch("envelope");
        let path = dir.join("index.json");
        save(&index, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(V3_PREFIX), "{text}");
        assert!(text.contains("\"version\":2"), "inner body is version 2");
        let restored = load(&path).unwrap();
        assert_eq!(restored.ingest_watermark(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_free_save_still_writes_the_bare_body() {
        // The envelope is streamed-only: ingest-free snapshot files stay
        // byte-identical to pre-envelope builds.
        assert_eq!(to_document(&tiny_index()), to_json(&tiny_index()));
    }

    #[test]
    fn flipped_byte_in_envelope_is_typed_corruption() {
        let dir = scratch("bitrot");
        let path = dir.join("index.json");
        save(&streamed_index(7), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match load(&path) {
            Err(PersistError::Corrupt {
                detail, recovered, ..
            }) => {
                assert!(!recovered);
                assert!(
                    detail.contains("checksum") || detail.contains("envelope"),
                    "{detail}"
                );
            }
            other => panic!(
                "expected Corrupt, got {:?}",
                other.map(|i| i.ingest_watermark())
            ),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_rotates_a_last_good_copy() {
        let dir = scratch("rotate");
        let path = dir.join("index.json");
        save(&streamed_index(1), &path).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        save(&streamed_index(2), &path).unwrap();
        let prev = last_good_path(&path);
        assert_eq!(
            std::fs::read_to_string(&prev).unwrap(),
            first,
            "the previous snapshot is kept as the last-good copy"
        );
        assert_eq!(load(&path).unwrap().ingest_watermark(), 2);
        assert_eq!(load(&prev).unwrap().ingest_watermark(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_recovers_to_last_good() {
        let dir = scratch("fallback");
        let path = dir.join("index.json");
        save(&streamed_index(1), &path).unwrap();
        save(&streamed_index(2), &path).unwrap();
        // Damage the current snapshot three ways; each must fall back.
        let good = std::fs::read(&path).unwrap();
        let mutations: Vec<Vec<u8>> = vec![
            {
                // Flipped byte.
                let mut b = good.clone();
                let mid = b.len() / 2;
                b[mid] ^= 0x40;
                b
            },
            // Truncation.
            good[..good.len() / 3].to_vec(),
            // Garbage.
            b"not a snapshot at all".to_vec(),
        ];
        for (i, bytes) in mutations.into_iter().enumerate() {
            std::fs::write(&path, &bytes).unwrap();
            let report = load_with_fallback(&path).unwrap_or_else(|e| {
                panic!("mutation {i} did not recover: {e}");
            });
            assert_eq!(
                report.index.ingest_watermark(),
                1,
                "mutation {i} recovered the last-good snapshot"
            );
            let info = report.fallback.expect("fallback must be reported");
            assert_eq!(info.fallback_path, last_good_path(&path));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_primary_with_last_good_recovers() {
        // The crash window between save's two renames: the old snapshot
        // is already rotated to .prev, the new one not yet installed.
        let dir = scratch("mid-save");
        let path = dir.join("index.json");
        save(&streamed_index(1), &path).unwrap();
        save(&streamed_index(2), &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let report = load_with_fallback(&path).unwrap();
        assert_eq!(report.index.ingest_watermark(), 1);
        assert!(report.fallback.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_fallback_without_a_last_good_copy() {
        let dir = scratch("no-prev");
        let path = dir.join("index.json");
        save(&streamed_index(1), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        // First save never rotates (nothing to rotate): corruption with no
        // .prev surfaces as the typed error, never a silent wrong answer.
        assert!(matches!(
            load_with_fallback(&path),
            Err(PersistError::Corrupt {
                recovered: false,
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_never_falls_back() {
        // A snapshot from a newer build is not damage; falling back to an
        // older copy would silently serve stale data.
        let dir = scratch("version-no-fallback");
        let path = dir.join("index.json");
        save(&streamed_index(1), &path).unwrap();
        save(&streamed_index(2), &path).unwrap();
        let mangled = to_json(&tiny_index()).replace("\"version\":1", "\"version\":7");
        std::fs::write(&path, mangled).unwrap();
        assert!(matches!(
            load_with_fallback(&path),
            Err(PersistError::Version(7))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_syncs_the_temp_file_before_the_rename() {
        // Regression test for the durability bug: without the temp-file
        // fsync, no sync op would ever fire during save and a scripted
        // sync fault could not make it fail.
        let dir = scratch("sync-regression");
        let path = dir.join("index.json");
        save(&streamed_index(1), &path).unwrap();
        let before = std::fs::read_to_string(&path).unwrap();
        let vfs = faulty("sync:1=eio");
        let err = save_with_vfs(&streamed_index(2), &path, &vfs).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err}");
        assert_eq!(vfs.fired(), ["sync:1=eio"], "save fsyncs the temp file");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            before,
            "failed save leaves the previous snapshot untouched"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_fsyncs_the_parent_directory_after_the_rename() {
        let dir = scratch("dirsync-regression");
        let path = dir.join("index.json");
        let vfs = faulty("syncdir:1=eio");
        let err = save_with_vfs(&streamed_index(1), &path, &vfs).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err}");
        assert_eq!(vfs.fired(), ["syncdir:1=eio"], "save fsyncs the directory");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_install_rename_restores_the_last_good_copy() {
        let dir = scratch("rename-restore");
        let path = dir.join("index.json");
        save(&streamed_index(1), &path).unwrap();
        // The 1st rename (rotation) succeeds, the 2nd (install) fails:
        // save must put the rotated copy back so `path` stays valid.
        let vfs = faulty("rename:2=eio");
        assert!(save_with_vfs(&streamed_index(2), &path, &vfs).is_err());
        assert_eq!(
            load(&path).unwrap().ingest_watermark(),
            1,
            "previous snapshot restored after the failed install"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
