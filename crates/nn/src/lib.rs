//! # tasti-nn
//!
//! A minimal, dependency-light dense neural-network substrate used by the TASTI
//! reproduction. The TASTI paper trains an *embedding DNN* (ResNet-18 / BERT /
//! audio ResNet-22 in the original) with the triplet loss, and its per-query
//! proxy baselines (BlazeIt "tiny ResNet", logistic regression, CNN-10) are
//! likewise small trainable models. Neither heavy vision backbones nor GPU
//! kernels are essential to the *index* contribution — only a trainable
//! `φ: record → ℝ^d` optimized end-to-end. This crate provides exactly that:
//!
//! * [`tensor::Matrix`] — a row-major `f32` matrix with the handful of BLAS-like
//!   kernels an MLP needs (allocation-conscious per the Rust Performance Book:
//!   hot loops write into preallocated buffers and iterate over slices).
//! * [`mlp::Mlp`] — a multi-layer perceptron with manual backpropagation,
//!   optional L2-normalized embedding output, and He/Xavier initialization.
//! * [`loss`] — the margin triplet loss from §5.1 of the paper, plus MSE and
//!   binary cross-entropy for the proxy-model baselines.
//! * [`optim`] — Adam.
//! * [`train`] — minibatch training loops: triplet fine-tuning (embedding DNN)
//!   and supervised regression/classification (per-query proxies).
//! * [`metrics`] — the evaluation metrics reported in the paper (ρ², F1, AUC).
//!
//! Everything is deterministic given a seed; no threads, no SIMD intrinsics,
//! no external math libraries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod init;
pub mod loss;
pub mod metrics;
pub mod mlp;
pub mod optim;
pub mod tensor;
pub mod train;

pub use mlp::{Activation, Mlp, MlpConfig};
pub use optim::Adam;
pub use tensor::Matrix;
pub use train::{FitConfig, TrainReport, TripletConfig};
