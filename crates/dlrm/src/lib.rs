//! Deep Learning Recommendation Model (DLRM) inference engine.
//!
//! A DLRM (paper §2.1, Figure 2) combines:
//!
//! * a **bottom MLP** re-projecting continuous features,
//! * **embedding tables** turning categorical features into dense vectors
//!   (read with a pooling factor and summed),
//! * a **top MLP** over the interaction of all features producing the
//!   ranking score.
//!
//! At inference time one query carries one user and a batch of items
//! (Table 2): user embeddings are read once, item embeddings once per item,
//! and the user-side results are broadcast to all items for the top MLP —
//! which is why user embeddings tolerate slower memory as long as they finish
//! before the item side does (Equation 3).
//!
//! This crate provides the model descriptions of the paper's three target
//! models (Table 6) in [`model_zoo`], a small dense [`Mlp`], the
//! [`EmbeddingBackend`] abstraction that the SDM memory manager implements,
//! the [`InferenceEngine`] that executes queries with or without inter-op
//! parallelism (§A.2), and the capacity/bandwidth analysis of §2.2
//! ([`analysis`]).
//!
//! # Example
//!
//! ```
//! use dlrm::{model_zoo, analysis};
//!
//! let m1 = model_zoo::m1();
//! let summary = analysis::capacity_summary(&m1.tables);
//! // User embeddings dominate the model capacity (paper §2.2).
//! assert!(summary.user_fraction() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
mod backend;
mod config;
mod engine;
mod error;
mod mlp;
pub mod model_zoo;

pub use backend::{DramBackend, EmbeddingBackend};
pub use config::{ComputeModel, MlpConfig, ModelConfig, UseCase};
pub use engine::{ExecutionMode, InferenceEngine, LatencyBreakdown, PoolingBuffers, QueryResult};
pub use error::DlrmError;
pub use mlp::Mlp;
