//! Embedding tables for DLRM inference: quantisation, pruning, pooling and
//! the on-SM layout.
//!
//! DLRM models map categorical features to dense vectors through embedding
//! tables; at inference time the tables are row-wise quantised (int8/int4,
//! paper §A.5 and Guan et al. 2019), optionally pruned with a mapping tensor
//! (§4.5), and read with a *pooling factor* of rows per query which are
//! dequantised and summed (SparseLengthsSum / EmbeddingBag).
//!
//! This crate owns everything about the tables themselves:
//!
//! * [`TableDescriptor`] / [`TableKind`] — the logical description (rows,
//!   dimension, pooling factor, user vs item) used for capacity math.
//! * [`QuantScheme`], [`quantize_row`], [`dequantize_row`] — row-wise
//!   quantisation with per-row scale/bias.
//! * [`kernels`] — AVX2 vector implementations of the fused
//!   dequant-accumulate paths with runtime dispatch ([`SelectedKernel`]),
//!   bit-identical to the scalar reference, plus software prefetch.
//! * [`RowArena`] — one contiguous fixed-stride buffer per table, replacing
//!   per-row heap allocations.
//! * [`EmbeddingTable`] — materialised quantised rows (deterministically
//!   generated for experiments), backed by a [`RowArena`].
//! * [`MappingTensor`] / [`PrunedTable`] — pruning and de-pruning at load
//!   time (paper Algorithm 2).
//! * [`pooling`] — dequantise-and-sum pooling used by the inference engine.
//! * [`SmLayout`] — byte layout of tables on the slow-memory devices.
//!
//! # Example
//!
//! ```
//! use embedding::{EmbeddingTable, QuantScheme, TableDescriptor, TableKind};
//!
//! let desc = TableDescriptor::new(0, "user_topics", TableKind::User, 1000, 32)
//!     .with_pooling_factor(20)
//!     .with_quant(QuantScheme::Int8);
//! let table = EmbeddingTable::generate(&desc, 42);
//! let row = table.dequantized_row(17).unwrap();
//! assert_eq!(row.len(), 32);
//! ```

// `deny` rather than `forbid`: the `kernels` module opts back in locally
// for the `core::arch` SIMD intrinsics behind runtime feature detection.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod arena;
mod error;
pub mod kernels;
mod layout;
pub mod pooling;
mod pruning;
mod quant;
mod table;

pub use arena::RowArena;
pub use error::EmbeddingError;
pub use kernels::SelectedKernel;
pub use layout::{SmLayout, TablePlacement};
pub use pruning::{DepruneReport, MappingTensor, PrunedTable};
pub use quant::{dequantize_row, quantize_row, quantize_row_into, QuantScheme};
pub use table::{EmbeddingTable, TableDescriptor, TableId, TableKind};
