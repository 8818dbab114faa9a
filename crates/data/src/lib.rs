//! # tasti-data
//!
//! Synthetic datasets mirroring the five datasets in the TASTI paper's
//! evaluation (§6.1): the `night-street`, `taipei`, and `amsterdam` videos,
//! the WikiSQL text dataset, and the Common Voice speech dataset.
//!
//! ## Why synthetic, and what is preserved
//!
//! The original datasets (traffic-camera video, crowd-annotated text/speech)
//! and their labelers (Mask R-CNN on a V100, crowd workers) are unavailable
//! here, so each is replaced by a generative model that preserves the two
//! distributional properties TASTI's results hinge on:
//!
//! 1. **Semantic redundancy in labeler outputs** — many records share the
//!    same structured output (e.g. most night-street frames are empty, and
//!    frames with "two cars bottom-left" recur constantly). This is the
//!    redundancy TASTI's clustering exploits (§1).
//! 2. **Rare events** — a long tail of outputs (frames with many cars,
//!    buses in taipei) that uniform sampling misses; these drive the FPF
//!    mining/clustering advantage (§6.7) and limit-query results.
//!
//! Records are rendered to feature vectors ("pixels"/"audio"/"text") through
//! fixed random nonlinear observation maps *plus nuisance factors* (lighting
//! drift, sensor noise, filler tokens, recording quality) that a pre-trained
//! embedding cannot separate from the schema-relevant signal — which is
//! exactly why triplet-trained embeddings (TASTI-T) outperform pre-trained
//! ones (TASTI-PT) in the paper and here.
//!
//! Ground-truth structured outputs are stored alongside each record; the
//! [`labelers::OracleLabeler`] replays them at a configurable per-invocation
//! cost (the paper itself simulates labeler execution by caching results,
//! §6.1), and [`labelers::NoisyDetector`] corrupts them to model SSD's ~33%
//! count error (Table 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crowd;
pub mod dataset;
pub mod labelers;
pub mod pretrained;
pub mod speech;
pub mod text;
pub mod video;

pub use crowd::CrowdLabeler;
pub use dataset::Dataset;
pub use labelers::{NoisyDetector, OracleLabeler};
pub use pretrained::{degraded_view, PretrainedEmbedder};
