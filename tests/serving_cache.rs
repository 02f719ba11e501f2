//! Correctness contract of the content-addressed result cache tier.
//!
//! The contract under test: a `CachedBackend` in front of **any** inner
//! backend kind serves outputs **bit-identical** to the uncached
//! backend, per token, whatever the store's capacity — hits, intra-batch
//! deduplication and constant eviction churn must all be invisible in
//! the results. The sweep covers functional, RTL and sharded inner
//! kinds (the acceptance criterion's ≥3), each under 8 concurrent
//! submitters through a `ReplicaPool`, a high-duplication stream that
//! forces the dedup path, and a capacity-1 store that evicts on
//! essentially every insert.

use maddpipe::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

const CLIENTS: usize = 8;
const TOKENS_PER_REQUEST: usize = 4;
/// Distinct tokens in the repeated-patch workload — small enough that
/// every client resubmits the same handful, like flat image regions
/// emitting identical im2col windows.
const ALPHABET: usize = 6;

/// The shared token alphabet all clients draw from.
fn alphabet(ns: usize) -> Vec<Token> {
    TokenBatch::random(ns, ALPHABET, 4242)
        .tokens()
        .iter()
        .map(<[_]>::to_vec)
        .collect()
}

/// The deterministic, duplication-heavy batch client `c` submits as its
/// `r`-th request: tokens picked from the alphabet by a fixed stride.
fn client_batch(alphabet: &[Token], c: usize, r: usize) -> TokenBatch {
    let tokens: Vec<Token> = (0..TOKENS_PER_REQUEST)
        .map(|t| alphabet[(c * 31 + r * 7 + t * 3) % alphabet.len()].clone())
        .collect();
    TokenBatch::new(tokens).expect("non-empty")
}

/// Runs the repeated-patch workload through a cached 2-replica pool and
/// pins every reply bit-identical to the pure LUT reference. Returns
/// the pool's final stats for counter assertions.
fn stress_cached_pool(
    kind: BackendKind,
    requests_per_client: usize,
    ndec: usize,
    ns: usize,
) -> SessionStats {
    let cfg = MacroConfig::new(ndec, ns);
    let program = MacroProgram::random(ndec, ns, 77);
    let tokens = alphabet(ns);
    let pool = Session::builder(cfg)
        .program(program.clone())
        .backend(kind)
        .into_pool(
            ServePolicy::default().with_replicas(2).with_queue(
                QueuePolicy::default()
                    .with_max_batch(32)
                    .with_max_linger(Duration::from_micros(500))
                    .with_max_depth(4096),
            ),
        )
        .expect("pool comes up");
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (pool, tokens, program) = (&pool, &tokens, &program);
            scope.spawn(move || {
                let tickets: Vec<(usize, BatchTicket)> = (0..requests_per_client)
                    .map(|r| {
                        (
                            r,
                            pool.submit(client_batch(tokens, c, r)).expect("accepted"),
                        )
                    })
                    .collect();
                for (r, ticket) in tickets {
                    let reply = ticket.wait().expect("served");
                    let batch = client_batch(tokens, c, r);
                    for (obs, token) in reply.result.tokens.iter().zip(batch.tokens()) {
                        assert_eq!(
                            obs.outputs,
                            program.reference_output(token),
                            "client {c} request {r}: cached tier must be bit-identical"
                        );
                    }
                }
            });
        }
    });
    let stats = pool.shutdown();
    assert_eq!(
        stats.tokens(),
        (CLIENTS * requests_per_client * TOKENS_PER_REQUEST) as u64,
        "every token served exactly once"
    );
    stats
}

#[test]
fn cached_functional_pool_is_bit_identical_with_real_hits() {
    let stats = stress_cached_pool(
        BackendKind::Cached {
            cache: CacheConfig::default(),
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        },
        10,
        2,
        2,
    );
    // 320 token instances over a 6-token alphabet: the stores must be
    // doing real work, whichever way the micro-batches coalesced.
    let cache = stats.cache();
    assert!(cache.misses > 0, "cold start computes");
    assert!(
        cache.hits + cache.dedup > 0,
        "repeats must be elided: {stats}"
    );
    assert!(cache.hit_rate().is_some());
    assert!(cache.resident_entries > 0 && cache.resident_bytes > 0);
}

#[test]
fn cached_rtl_pool_is_bit_identical() {
    let stats = stress_cached_pool(
        BackendKind::Cached {
            cache: CacheConfig::default(),
            inner: Box::new(BackendKind::Rtl {
                fidelity: Fidelity::Sequential,
            }),
        },
        4,
        2,
        2,
    );
    let cache = stats.cache();
    assert!(cache.misses > 0 && cache.hits + cache.dedup > 0);
}

#[test]
fn cached_sharded_pool_is_bit_identical() {
    // Cache over the whole sharded composition…
    let stats = stress_cached_pool(
        BackendKind::Cached {
            cache: CacheConfig::default(),
            inner: Box::new(BackendKind::Sharded {
                shards: 2,
                inner: Box::new(BackendKind::Functional { workers: 1 }),
            }),
        },
        8,
        4,
        2,
    );
    let cache = stats.cache();
    assert!(cache.misses > 0 && cache.hits + cache.dedup > 0);
}

#[test]
fn per_shard_cached_pool_is_bit_identical() {
    // …and caches *inside* the shards: each shard owns a store that
    // serves only its own sub-program, and the sharded backend
    // aggregates the counters into the pool stats.
    let stats = stress_cached_pool(
        BackendKind::Sharded {
            shards: 2,
            inner: Box::new(BackendKind::Cached {
                cache: CacheConfig::default(),
                inner: Box::new(BackendKind::Functional { workers: 1 }),
            }),
        },
        8,
        4,
        2,
    );
    let cache = stats.cache();
    assert!(cache.misses > 0 && cache.hits + cache.dedup > 0);
}

#[test]
fn high_duplication_stream_forces_dedup() {
    // A request of identical tokens is one micro-batch (requests are
    // never split), so the inner backend must see the token exactly
    // once and the dedup counter must account for the other seven.
    let cfg = MacroConfig::new(2, 2);
    let program = MacroProgram::random(2, 2, 99);
    let token = TokenBatch::random(2, 1, 5).tokens()[0].to_vec();
    let pool = Session::builder(cfg)
        .program(program.clone())
        .backend(BackendKind::Cached {
            cache: CacheConfig::default(),
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        })
        .into_pool(ServePolicy::default())
        .expect("pool comes up");
    let batch = TokenBatch::new(vec![token.clone(); 8]).expect("non-empty");
    let reply = pool
        .submit(batch)
        .expect("accepted")
        .wait()
        .expect("served");
    for obs in &reply.result.tokens {
        assert_eq!(obs.outputs, program.reference_output(&token));
    }
    let cache = pool.shutdown().cache();
    assert_eq!(cache.misses, 1, "computed exactly once");
    assert_eq!(cache.dedup, 7, "seven duplicates fanned out");
}

#[test]
fn capacity_one_store_churns_but_stays_bit_identical() {
    // max_entries = 1 with a 6-token alphabet: essentially every insert
    // evicts the previous entry. Outputs must not care.
    let stats = stress_cached_pool(
        BackendKind::Cached {
            cache: CacheConfig::default().with_max_entries(1),
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        },
        10,
        2,
        2,
    );
    let cache = stats.cache();
    assert!(cache.evictions > 0, "eviction churn expected: {stats}");
    assert!(cache.resident_entries <= 2, "one entry per replica store");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The golden property over arbitrary duplication patterns: for a
    /// random program and a random pick sequence over the alphabet,
    /// running the same stream through cached functional, cached RTL
    /// and cached sharded sessions (tiny stores included) yields
    /// per-token outputs bit-identical to the pure LUT reference.
    #[test]
    fn cached_equals_uncached_across_inner_kinds(
        seed in 0u64..1024,
        picks in proptest::collection::vec(0usize..ALPHABET, 1..16),
        max_entries in 1usize..8,
    ) {
        let cfg = MacroConfig::new(2, 2);
        let program = MacroProgram::random(2, 2, seed);
        let tokens = alphabet(2);
        let stream: Vec<Token> = picks.iter().map(|&p| tokens[p].clone()).collect();
        let batch = TokenBatch::new(stream.clone()).expect("non-empty");
        let cache = CacheConfig::default().with_max_entries(max_entries);
        let kinds = [
            BackendKind::Functional { workers: 1 },
            BackendKind::Rtl { fidelity: Fidelity::Sequential },
            BackendKind::Sharded {
                shards: 2,
                inner: Box::new(BackendKind::Functional { workers: 1 }),
            },
        ];
        for inner in kinds {
            let mut session = Session::builder(cfg.clone())
                .program(program.clone())
                .backend(BackendKind::Cached { cache, inner: Box::new(inner.clone()) })
                .build()
                .expect("program fits");
            // Twice: the first pass exercises misses + dedup, the
            // second replays from a warm (or churning) store.
            for pass in 0..2 {
                let result = session.run(&batch).expect("runs");
                prop_assert_eq!(result.tokens.len(), stream.len());
                for (obs, token) in result.tokens.iter().zip(&stream) {
                    prop_assert_eq!(
                        &obs.outputs,
                        &program.reference_output(token),
                        "kind {:?} pass {}", inner, pass
                    );
                }
            }
            let stats = session.stats().cache();
            prop_assert!(stats.hits + stats.misses > 0);
            prop_assert!(stats.resident_entries <= max_entries);
        }
    }
}
