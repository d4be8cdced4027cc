//! Static `Send` assertions for the sharded serving stack.
//!
//! `ServingHost` moves whole shards onto `std::thread::scope` worker
//! threads, so every layer of the per-shard state must be `Send`: the
//! shard itself, the inference engine and its scratch, the memory manager,
//! the caches and the IO engine. These are compile-time assertions — if a
//! future change introduces an `Rc`, a raw pointer or a non-`Send` trait
//! object anywhere in the stack, this suite stops compiling instead of the
//! regression surfacing as a confusing build error (or worse, forcing the
//! host back to single-stream serving).

use dlrm::{InferenceEngine, PoolingBuffers, QueryResult};
use io_engine::IoEngine;
use sdm_cache::{DualRowCache, PooledEmbeddingCache, SharedRowTier};
use sdm_core::{SdmMemoryManager, ServingHost, Shard};
use workload::Scheduler;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[test]
fn per_shard_serving_state_is_send() {
    // The shard type a worker thread owns, and the host that owns shards.
    assert_send::<Shard>();
    assert_send::<ServingHost>();
}

#[test]
fn shard_components_are_send() {
    // Every layer inside a shard, individually, so a regression points at
    // the offending component rather than just at `Shard`.
    assert_send::<InferenceEngine>();
    assert_send::<PoolingBuffers>();
    assert_send::<QueryResult>();
    assert_send::<SdmMemoryManager>();
    assert_send::<IoEngine>();
    assert_send::<DualRowCache>();
    assert_send::<PooledEmbeddingCache>();
    assert_send::<Scheduler>();
}

#[test]
fn shared_tier_is_send_and_sync() {
    // The host-shared tier is handed to every shard as an `Arc` and probed
    // concurrently from `std::thread::scope` workers through `&self`, so it
    // must be both `Send` and `Sync` — unlike the private caches, which
    // only ever move with their owning shard. These assertions are what
    // makes the tier's loom-free concurrency contract a compile-time fact:
    // interior mutability anywhere but the stripe mutexes would break them.
    assert_send::<SharedRowTier>();
    assert_sync::<SharedRowTier>();
    assert_send::<std::sync::Arc<SharedRowTier>>();
    assert_sync::<std::sync::Arc<SharedRowTier>>();
    // Managers stay `Send` with a tier handle attached (Arc<T: Send+Sync>).
    assert_send::<SdmMemoryManager>();
}
