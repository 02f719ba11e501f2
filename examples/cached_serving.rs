//! Result caching: a content-addressed cache tier over any backend.
//!
//! CNN inference over real images is full of repeated work — flat image
//! regions emit the *same* im2col window again and again, so the macro
//! keeps being asked for outputs it has already computed. A
//! `CachedBackend` sits in front of any inner backend and answers those
//! repeats from a bounded content-addressed store, keyed on the
//! program's fingerprint plus the exact quantised token bytes. The
//! purity contract makes this safe: a `MacroProgram` is a pure function
//! of its token, so equal bytes in means equal bytes out, forever. This
//! example walks the tier end to end:
//!
//! 1. run a repeated-patch workload cold (uncached functional backend)
//!    and through a `BackendKind::Cached` session, comparing wall time,
//! 2. replay the same workload warm — near-100% hit-rate — and read
//!    hits, misses, intra-batch dedup and residency off `SessionStats`,
//! 3. serve the same cached recipe from a `ReplicaPool` (each replica
//!    fills its own private store), and
//! 4. bound the store (`CacheConfig::with_max_entries`) so eviction
//!    churn shows up in the counters while outputs stay bit-identical.
//!
//! Run with: `cargo run --example cached_serving --release`

use maddpipe::prelude::*;
use std::time::Instant;

const ALPHABET: usize = 24;
const TOKENS_PER_BATCH: usize = 512;

/// The repeated-patch workload: a long batch drawn from a small token
/// alphabet, like im2col windows off an image with large flat regions.
fn repeated_patch_batch(ns: usize) -> TokenBatch {
    let alphabet: Vec<Token> = TokenBatch::random(ns, ALPHABET, 11)
        .tokens()
        .iter()
        .map(<[_]>::to_vec)
        .collect();
    let tokens: Vec<Token> = (0..TOKENS_PER_BATCH)
        .map(|i| alphabet[(i * 7) % alphabet.len()].clone())
        .collect();
    TokenBatch::new(tokens).expect("non-empty")
}

fn main() {
    let cfg = MacroConfig::paper_flagship();
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 42);
    let batch = repeated_patch_batch(cfg.ns);

    // 1. Cold baseline: every token recomputes, duplicates included.
    let mut uncached = Session::builder(cfg.clone())
        .program(program.clone())
        .backend(BackendKind::Functional { workers: 1 })
        .build()
        .expect("program fits");
    let t0 = Instant::now();
    let cold = uncached.run(&batch).expect("batch completes");
    let cold_wall = t0.elapsed();
    println!("uncached: {} tokens in {cold_wall:?}", cold.tokens.len());

    // The same session, fronted by a cache: the first pass computes each
    // *unique* token once (misses + intra-batch dedup fan-out), …
    let mut cached = Session::builder(cfg.clone())
        .program(program.clone())
        .backend(BackendKind::Cached {
            cache: CacheConfig::default(),
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        })
        .build()
        .expect("program fits");
    let t0 = Instant::now();
    let fill = cached.run(&batch).expect("batch completes");
    let fill_wall = t0.elapsed();
    assert_eq!(
        fill.tokens.iter().map(|t| t.outputs).collect::<Vec<_>>(),
        cold.tokens.iter().map(|t| t.outputs).collect::<Vec<_>>(),
        "the cache tier is invisible in the outputs"
    );

    // 2. …and the warm replay answers almost everything from the store.
    let t0 = Instant::now();
    let warm = cached.run(&batch).expect("batch completes");
    let warm_wall = t0.elapsed();
    assert_eq!(warm.tokens.len(), batch.len());
    let stats = cached.stats().cache();
    println!(
        "cached:   fill {fill_wall:?}, warm replay {warm_wall:?} \
         (hit-rate {:.1}%, {} deduped, {} entries / {} bytes resident)",
        stats.hit_rate().unwrap_or(0.0) * 100.0,
        stats.dedup,
        stats.resident_entries,
        stats.resident_bytes,
    );

    // 3. The same recipe serves from a pool: every replica builds the
    // `BackendKind::Cached` recipe on its own thread, so each deploys its
    // own private store, and the pool's stats aggregate all of them.
    let pool = Session::builder(cfg.clone())
        .program(program.clone())
        .backend(BackendKind::Cached {
            cache: CacheConfig::default(),
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        })
        .into_pool(ServePolicy::default().with_replicas(2))
        .expect("pool comes up");
    for _ in 0..4 {
        pool.submit(batch.clone())
            .expect("accepted")
            .wait()
            .expect("served");
    }
    let pool_stats = pool.shutdown();
    println!(
        "pool:     {} tokens, {} hits / {} misses across 2 replica stores",
        pool_stats.tokens(),
        pool_stats.cache().hits,
        pool_stats.cache().misses,
    );

    // 4. Bound the store hard and the cache degrades gracefully:
    // eviction churn in the counters, identical bytes in the replies.
    let mut tiny = Session::builder(cfg)
        .program(program)
        .backend(BackendKind::Cached {
            cache: CacheConfig::default().with_max_entries(4),
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        })
        .build()
        .expect("program fits");
    let churned = tiny.run(&batch).expect("batch completes");
    assert_eq!(
        churned.tokens.iter().map(|t| t.outputs).collect::<Vec<_>>(),
        cold.tokens.iter().map(|t| t.outputs).collect::<Vec<_>>(),
        "eviction churn never changes outputs"
    );
    let tiny_stats = tiny.stats().cache();
    println!(
        "tiny:     max 4 entries -> {} evictions, {} resident, still bit-identical",
        tiny_stats.evictions, tiny_stats.resident_entries,
    );
}
