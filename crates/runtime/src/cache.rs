//! Content-addressed result caching for any [`MacroBackend`].
//!
//! LUT inference is a *pure* function of `(program, token)`: the macro
//! holds no state between tokens, so two identical tokens against the
//! same program produce bit-identical outputs on every backend (the
//! contract pinned by `tests/backend_equivalence.rs`). Real im2col
//! streams exploit nothing of this — flat image regions emit the same
//! 3×3 patch over and over and every backend recomputes it. The
//! [`CachedBackend`] wrapper closes that gap:
//!
//! * results are keyed on the token alone — its exact quantised bytes.
//!   Each cached tier owns its store and serves one program, and no
//!   other tier can reach that store, so key spaces of different
//!   programs never meet and a hit can only ever return the output the
//!   very same program produced for the very same token;
//! * the store is a bounded CLOCK (second-chance) cache with *two*
//!   capacity dimensions, entries **and** bytes ([`CacheConfig`]), and
//!   eviction keeps both bounds at every observable point;
//! * identical tokens inside one batch are **deduplicated** before
//!   dispatch: the inner backend sees each unique uncached token once,
//!   and the result is fanned back out to every duplicate position.
//!
//! The purity contract this module depends on also dictates what a hit
//! may report: `outputs` are the cached bytes (bit-identical by
//! construction), but `latency`/`energy` are `None` — a cache hit did
//! not *measure* anything, and replaying a stale observation would
//! corrupt session percentiles. Similarly, failures are never cached:
//! a transient inner error propagates with **no** store mutation, so a
//! retry re-executes from scratch and cannot resurrect a poisoned
//! entry.
//!
//! Deploy a cached tier declaratively via
//! [`BackendKind::Cached`](crate::backend::BackendKind::Cached) — around
//! any recipe, inside a shard's recipe for per-shard stores, or around
//! another cache. Sessions, replica pools and pipeline stages all
//! build from the same `(program, kind)` recipe, so every replica
//! builds its own store, and a respawned replica a fresh one.
//! [`SessionStats`](crate::session::SessionStats) keeps each live
//! store's latest [`CacheStats`] snapshot and sums them.

use std::collections::HashMap;

use maddpipe_core::macro_rtl::MacroProgram;

use crate::backend::MacroBackend;
use crate::batch::{BatchResult, Observations, TokenBatch};
use crate::error::BackendError;

/// Approximate fixed bookkeeping cost charged per resident entry on top
/// of the key and output payloads (map entry, slot, allocation headers).
const ENTRY_OVERHEAD_BYTES: usize = 64;

/// Capacity bounds for a cached tier's store — both dimensions are
/// enforced simultaneously; eviction runs until *neither* is exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum resident entries. `0` disables caching entirely (every
    /// lookup misses, nothing is ever inserted).
    pub max_entries: usize,
    /// Maximum resident bytes (key token bytes + output bytes + a
    /// fixed per-entry overhead). An entry that alone exceeds this
    /// bound is computed but never inserted.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    /// 64Ki entries / 8 MiB — generous for serving, small next to a
    /// host.
    fn default() -> CacheConfig {
        CacheConfig {
            max_entries: 64 * 1024,
            max_bytes: 8 * 1024 * 1024,
        }
    }
}

impl CacheConfig {
    /// Replaces the entry bound.
    pub fn with_max_entries(mut self, max_entries: usize) -> CacheConfig {
        self.max_entries = max_entries;
        self
    }

    /// Replaces the byte bound.
    pub fn with_max_bytes(mut self, max_bytes: usize) -> CacheConfig {
        self.max_bytes = max_bytes;
        self
    }
}

/// A cumulative snapshot of one cache store (or a sum over several):
/// monotone event counters plus the current residency gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store (including duplicates of a
    /// token whose first occurrence hit).
    pub hits: u64,
    /// Lookups that fell through to the inner backend — one per
    /// *unique* uncached token.
    pub misses: u64,
    /// Tokens elided by intra-batch deduplication: duplicates of a
    /// missed token that were computed once and fanned back out.
    pub dedup: u64,
    /// Entries ever inserted.
    pub insertions: u64,
    /// Entries evicted to keep the [`CacheConfig`] bounds.
    pub evictions: u64,
    /// Entries currently resident.
    pub resident_entries: usize,
    /// Bytes currently resident (as accounted by the store).
    pub resident_bytes: usize,
}

impl CacheStats {
    /// Hits over lookups, `None` before the first lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }

    /// Field-wise sum — combines snapshots of *distinct* stores (e.g.
    /// per-shard or per-replica caches).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            dedup: self.dedup + other.dedup,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
            resident_entries: self.resident_entries + other.resident_entries,
            resident_bytes: self.resident_bytes + other.resident_bytes,
        }
    }
}

#[derive(Debug)]
struct Slot {
    key: Box<[i8]>,
    outputs: Box<[i16]>,
    referenced: bool,
    bytes: usize,
}

/// The bounded CLOCK (second-chance) store a [`CachedBackend`] owns,
/// keyed on a token's flattened subvectors.
///
/// Invariants, held after **every** operation (property-tested below):
///
/// * resident entries `<= config.max_entries`;
/// * resident bytes `<= config.max_bytes`;
/// * a [`lookup`](CacheStore::lookup) hit's slot holds exactly the bytes
///   the corresponding [`insert`](CacheStore::insert) stored.
///
/// Eviction runs *before* insertion (never exceed-then-trim), so the
/// bounds are respected at every observable point, not just between
/// batches. An entry that alone exceeds `max_bytes` is skipped rather
/// than evicting the whole store for nothing.
#[derive(Debug)]
struct CacheStore {
    config: CacheConfig,
    map: HashMap<Box<[i8]>, usize>,
    slots: Vec<Slot>,
    hand: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    dedup: u64,
    insertions: u64,
    evictions: u64,
}

impl CacheStore {
    /// An empty store with the given bounds.
    fn new(config: CacheConfig) -> CacheStore {
        CacheStore {
            config,
            map: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
            bytes: 0,
            hits: 0,
            misses: 0,
            dedup: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// Looks a token up, counting a hit (and marking the CLOCK reference
    /// bit) or a miss. A hit answers the slot that holds the outputs;
    /// the slot stays valid until the next [`insert`](CacheStore::insert).
    fn lookup(&mut self, key: &[i8]) -> Option<usize> {
        match self.map.get(key) {
            Some(&slot) => {
                self.hits += 1;
                self.slots[slot].referenced = true;
                Some(slot)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The outputs resident in `slot`.
    fn outputs(&self, slot: usize) -> &[i16] {
        &self.slots[slot].outputs
    }

    /// Counts one token elided by intra-batch deduplication.
    fn note_dedup(&mut self) {
        self.dedup += 1;
    }

    /// Evicts exactly one entry by the CLOCK sweep: referenced slots
    /// get a second chance, the first unreferenced slot goes.
    fn evict_one(&mut self) {
        loop {
            let len = self.slots.len();
            if len == 0 {
                return;
            }
            if self.hand >= len {
                self.hand = 0;
            }
            if self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand += 1;
            } else {
                let victim = self.slots.swap_remove(self.hand);
                self.map.remove(&victim.key);
                self.bytes -= victim.bytes;
                if let Some(moved) = self.slots.get(self.hand) {
                    *self.map.get_mut(&moved.key).expect("every slot is mapped") = self.hand;
                }
                self.evictions += 1;
                return;
            }
        }
    }

    /// Inserts a computed result, evicting first until both bounds
    /// admit it. Re-inserting a resident key is a no-op; an entry that
    /// can never fit (zero entry bound, or alone larger than the byte
    /// bound) is skipped.
    fn insert(&mut self, key: &[i8], outputs: &[i16]) {
        if self.map.contains_key(key) {
            return;
        }
        let entry_bytes = key.len() + outputs.len() * 2 + ENTRY_OVERHEAD_BYTES;
        if self.config.max_entries == 0 || entry_bytes > self.config.max_bytes {
            return;
        }
        while self.slots.len() + 1 > self.config.max_entries
            || self.bytes + entry_bytes > self.config.max_bytes
        {
            self.evict_one();
        }
        self.map.insert(key.into(), self.slots.len());
        self.bytes += entry_bytes;
        self.slots.push(Slot {
            key: key.into(),
            outputs: outputs.into(),
            referenced: false,
            bytes: entry_bytes,
        });
        self.insertions += 1;
    }

    /// A cumulative snapshot of the store's counters and residency.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            dedup: self.dedup,
            insertions: self.insertions,
            evictions: self.evictions,
            resident_entries: self.slots.len(),
            resident_bytes: self.bytes,
        }
    }
}

/// A [`MacroBackend`] wrapper serving repeated tokens from a bounded
/// store it owns, with intra-batch deduplication (see the
/// [module docs](self) for the full contract).
pub struct CachedBackend {
    inner: Box<dyn MacroBackend>,
    ns: usize,
    ndec: usize,
    store: CacheStore,
}

impl CachedBackend {
    /// Wraps `inner` with a fresh store bounded by `config`. The
    /// `program` must be the one `inner` executes: the store keys on
    /// the token alone, so it serves that program's outputs only.
    pub fn new(
        inner: Box<dyn MacroBackend>,
        program: &MacroProgram,
        config: CacheConfig,
    ) -> CachedBackend {
        CachedBackend {
            inner,
            ns: program.ns(),
            ndec: program.ndec(),
            store: CacheStore::new(config),
        }
    }
}

impl MacroBackend for CachedBackend {
    fn name(&self) -> &'static str {
        "cached"
    }

    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        /// Where one token's observation comes from.
        enum Source {
            /// Replayed from this store slot: unmeasured.
            Hit(usize),
            /// Row `j` of the inner result: measured.
            Miss(usize),
            /// A later copy of miss row `j` in this batch: unmeasured.
            Dup(usize),
        }

        batch.check_shape(self.ns)?;
        let tokens = batch.tokens();
        let store = &mut self.store;
        let mut sources: Vec<Source> = Vec::with_capacity(tokens.len());
        // First occurrences that missed, in batch order.
        let mut misses: Vec<usize> = Vec::new();
        let mut seen: HashMap<&[i8], usize> = HashMap::new();
        for (i, token) in tokens.iter().enumerate() {
            let key = token.as_flattened();
            let source = if let Some(&first) = seen.get(key) {
                match sources[first] {
                    // Duplicate of a token that hit — it hits too.
                    Source::Hit(_) => {
                        Source::Hit(store.lookup(key).expect("first occurrence was resident"))
                    }
                    Source::Miss(j) | Source::Dup(j) => {
                        store.note_dedup();
                        Source::Dup(j)
                    }
                }
            } else {
                seen.insert(key, i);
                match store.lookup(key) {
                    Some(slot) => Source::Hit(slot),
                    None => {
                        misses.push(i);
                        Source::Miss(misses.len() - 1)
                    }
                }
            };
            sources.push(source);
        }

        let mut makespan = None;
        let mut energy = None;
        let mut computed = Observations::new(self.ndec);
        if !misses.is_empty() {
            let mut flat = Vec::with_capacity(misses.len() * self.ns);
            for &i in &misses {
                flat.extend_from_slice(&tokens[i]);
            }
            let sub = TokenBatch::from_flat(self.ns, misses.len(), flat);
            // A failure here propagates with no store mutation: nothing
            // was inserted, so a retry re-executes from scratch and the
            // cache cannot serve (or remember) a failed attempt.
            let inner_result = self.inner.run_batch(&sub)?;
            if inner_result.tokens.len() != misses.len() || inner_result.tokens.width() != self.ndec
            {
                return Err(BackendError::MalformedProgram {
                    reason: format!(
                        "cached tier: inner backend '{}' returned {} observations of {} \
                         outputs for {} unique tokens of {} outputs — refusing to cache \
                         misaligned outputs",
                        inner_result.backend,
                        inner_result.tokens.len(),
                        inner_result.tokens.width(),
                        misses.len(),
                        self.ndec
                    ),
                });
            }
            makespan = inner_result.makespan;
            energy = inner_result.energy;
            computed = inner_result.tokens;
        }

        // Copy every hit out of its slot before the misses go in: an
        // insert may evict, and an eviction moves a slot. Freshly
        // computed tokens keep the inner backend's measured observation;
        // only replayed results are unmeasured.
        let mut observations = Observations::with_capacity(self.ndec, tokens.len());
        for source in &sources {
            let row = |j: usize| computed.get(j).expect("every miss was computed");
            let (outputs, latency, energy) = match *source {
                Source::Hit(slot) => (store.outputs(slot), None, None),
                Source::Miss(j) => {
                    let obs = row(j);
                    (obs.outputs, obs.latency, obs.energy)
                }
                Source::Dup(j) => (row(j).outputs, None, None),
            };
            observations.push(outputs, latency, energy);
        }
        for (&i, obs) in misses.iter().zip(&computed) {
            store.insert(tokens[i].as_flattened(), obs.outputs);
        }

        Ok(BatchResult {
            backend: self.name(),
            tokens: observations,
            makespan,
            energy,
        })
    }

    fn rtl(&self) -> Option<&maddpipe_core::macro_rtl::AcceleratorRtl> {
        self.inner.rtl()
    }

    fn rtl_mut(&mut self) -> Option<&mut maddpipe_core::macro_rtl::AcceleratorRtl> {
        self.inner.rtl_mut()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.store.stats())
    }
}

impl std::fmt::Debug for CachedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedBackend")
            .field("inner", &self.inner.name())
            .field("ns", &self.ns)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::batch::Token;
    use crate::functional::FunctionalBackend;
    use maddpipe_core::config::{MacroConfig, SUBVECTOR_LEN};
    use proptest::prelude::*;

    fn program(ns: usize) -> MacroProgram {
        MacroProgram::random(2, ns, 42)
    }

    fn token(ns: usize, fill: i8) -> Token {
        vec![[fill; SUBVECTOR_LEN]; ns]
    }

    /// The outputs `store` holds for `token`, counting the lookup.
    fn get(store: &mut CacheStore, token: &Token) -> Option<Vec<i16>> {
        let slot = store.lookup(token.as_flattened())?;
        Some(store.outputs(slot).to_vec())
    }

    fn insert(store: &mut CacheStore, token: &Token, outputs: &[i16]) {
        store.insert(token.as_flattened(), outputs);
    }

    #[test]
    fn different_programs_occupy_disjoint_key_spaces() {
        // Two cached tiers over programs differing in the one LUT word
        // the token reads: each store keys on the token alone, yet each
        // answers with its own program's outputs, cold and warm.
        let cfg = MacroConfig::new(2, 2);
        let p = MacroProgram::random(cfg.ndec, cfg.ns, 42);
        let t = token(2, 5);
        let mut q = p.clone();
        let code = q.trees[1].encode_one(&t[1]);
        q.luts[1][0][code] = q.luts[1][0][code].wrapping_add(1);
        assert_ne!(p.reference_output(&t), q.reference_output(&t));
        let tier = |program: &MacroProgram| {
            CachedBackend::new(
                Box::new(FunctionalBackend::new(program.clone())),
                program,
                CacheConfig::default(),
            )
        };
        let mut tiers = [(tier(&p), &p), (tier(&q), &q)];
        let batch = TokenBatch::single(t.clone());
        for _ in 0..2 {
            for (backend, program) in &mut tiers {
                let result = backend.run_batch(&batch).unwrap();
                assert_eq!(
                    result.tokens.get(0).unwrap().outputs,
                    program.reference_output(&t)
                );
            }
        }
        for (backend, _) in &tiers {
            let stats = backend.cache_stats().unwrap();
            assert_eq!((stats.hits, stats.misses), (1, 1));
        }
    }

    #[test]
    fn hit_returns_exactly_inserted_bytes() {
        let p = program(2);
        let t = token(2, -3);
        let out = p.reference_output(&t);
        let mut store = CacheStore::new(CacheConfig::default());
        insert(&mut store, &t, &out);
        assert_eq!(get(&mut store, &t), Some(out));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 0, 1));
    }

    #[test]
    fn zero_entry_bound_disables_caching() {
        let t = token(1, 1);
        let mut store = CacheStore::new(CacheConfig::default().with_max_entries(0));
        insert(&mut store, &t, &[1, 2]);
        assert_eq!(store.stats().resident_entries, 0);
        assert!(get(&mut store, &t).is_none());
    }

    #[test]
    fn oversized_entry_is_skipped_not_thrashed() {
        let small = token(1, 1);
        let mut store = CacheStore::new(CacheConfig::default().with_max_bytes(256));
        insert(&mut store, &small, &[0; 4]);
        assert_eq!(store.stats().resident_entries, 1);
        // An entry that can never fit must not evict what is resident.
        insert(&mut store, &token(1, 2), &[0; 4096]);
        assert_eq!(store.stats().resident_entries, 1);
        assert!(get(&mut store, &small).is_some());
    }

    #[test]
    fn capacity_one_store_keeps_exactly_the_last_entry() {
        let p = program(1);
        let cfg = CacheConfig::default().with_max_entries(1);
        let mut store = CacheStore::new(cfg);
        for fill in 0..8i8 {
            let t = token(1, fill);
            insert(&mut store, &t, &p.reference_output(&t));
            assert_eq!(store.stats().resident_entries, 1);
        }
        assert_eq!(store.stats().evictions, 7);
        assert!(get(&mut store, &token(1, 7)).is_some());
        assert!(get(&mut store, &token(1, 0)).is_none());
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let mut store = CacheStore::new(CacheConfig::default().with_max_entries(2));
        let hot = token(1, 1);
        insert(&mut store, &hot, &[1]);
        insert(&mut store, &token(1, 2), &[2]);
        // Touch the hot entry so its reference bit is set; the next
        // insert must evict the cold one.
        assert!(get(&mut store, &hot).is_some());
        insert(&mut store, &token(1, 3), &[3]);
        assert!(get(&mut store, &hot).is_some());
        assert!(get(&mut store, &token(1, 2)).is_none());
    }

    #[test]
    fn cached_backend_dedups_within_one_batch() {
        let cfg = MacroConfig::new(2, 2);
        let p = MacroProgram::random(cfg.ndec, cfg.ns, 7);
        let mut backend = CachedBackend::new(
            Box::new(FunctionalBackend::new(p.clone())),
            &p,
            CacheConfig::default(),
        );
        let a = token(2, 1);
        let b = token(2, 2);
        let batch = TokenBatch::new(vec![a.clone(), b.clone(), a.clone(), a.clone()]).unwrap();
        let result = backend.run_batch(&batch).unwrap();
        assert_eq!(result.tokens.len(), 4);
        for (obs, tok) in result.tokens.iter().zip([&a, &b, &a, &a]) {
            assert_eq!(obs.outputs, p.reference_output(tok));
        }
        let stats = backend.cache_stats().unwrap();
        // Two unique tokens computed, two duplicate positions elided.
        assert_eq!((stats.misses, stats.dedup, stats.hits), (2, 2, 0));

        // Second submission: everything hits, inner sees nothing.
        let result = backend.run_batch(&batch).unwrap();
        for (obs, tok) in result.tokens.iter().zip([&a, &b, &a, &a]) {
            assert_eq!(obs.outputs, p.reference_output(tok));
            assert!(obs.latency.is_none() && obs.energy.is_none());
        }
        let stats = backend.cache_stats().unwrap();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 4);
    }

    #[test]
    fn transient_inner_failure_is_not_cached() {
        // An inner backend that fails its first call transiently: the
        // failed attempt must leave the store untouched, and the retry
        // must recompute and then succeed with correct outputs.
        struct FlakyOnce {
            inner: FunctionalBackend,
            failed: bool,
        }
        impl MacroBackend for FlakyOnce {
            fn name(&self) -> &'static str {
                "flaky-once"
            }
            fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
                if !self.failed {
                    self.failed = true;
                    return Err(BackendError::Transient {
                        reason: "injected".into(),
                    });
                }
                self.inner.run_batch(batch)
            }
        }
        let cfg = MacroConfig::new(2, 2);
        let p = MacroProgram::random(cfg.ndec, cfg.ns, 11);
        let mut backend = CachedBackend::new(
            Box::new(FlakyOnce {
                inner: FunctionalBackend::new(p.clone()),
                failed: false,
            }),
            &p,
            CacheConfig::default(),
        );
        let t = token(2, 9);
        let batch = TokenBatch::new(vec![t.clone()]).unwrap();
        let err = backend.run_batch(&batch).unwrap_err();
        assert!(err.is_transient());
        let stats = backend.cache_stats().unwrap();
        assert_eq!(
            stats.insertions, 0,
            "failed attempt must not populate the store"
        );
        // Retry recomputes and caches the real result.
        let result = backend.run_batch(&batch).unwrap();
        assert_eq!(
            result.tokens.get(0).unwrap().outputs,
            p.reference_output(&t)
        );
        assert_eq!(backend.cache_stats().unwrap().insertions, 1);
    }

    #[test]
    fn wrong_width_inner_result_is_rejected_uncached() {
        struct HalfWidth {
            inner: FunctionalBackend,
        }
        impl MacroBackend for HalfWidth {
            fn name(&self) -> &'static str {
                "half-width"
            }
            fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
                let mut result = self.inner.run_batch(batch)?;
                result.tokens.truncate(batch.len() - 1);
                Ok(result)
            }
        }
        let cfg = MacroConfig::new(2, 2);
        let p = MacroProgram::random(cfg.ndec, cfg.ns, 13);
        let mut backend = CachedBackend::new(
            Box::new(HalfWidth {
                inner: FunctionalBackend::new(p.clone()),
            }),
            &p,
            CacheConfig::default(),
        );
        let batch = TokenBatch::new(vec![token(2, 1), token(2, 2)]).unwrap();
        let err = backend.run_batch(&batch).unwrap_err();
        assert!(matches!(err, BackendError::MalformedProgram { .. }));
        assert_eq!(backend.cache_stats().unwrap().insertions, 0);
        // One observation per token, but one output short per token: a
        // typed error too, not a panic.
        let narrow = MacroProgram::random(1, cfg.ns, 13);
        let mut backend = CachedBackend::new(
            Box::new(FunctionalBackend::new(narrow)),
            &p,
            CacheConfig::default(),
        );
        let err = backend.run_batch(&batch).unwrap_err();
        assert!(matches!(err, BackendError::MalformedProgram { .. }));
        assert_eq!(backend.cache_stats().unwrap().insertions, 0);
    }

    #[test]
    fn hit_reports_unmeasured_latency_even_when_miss_measured() {
        // An RTL tier measures on the miss; the hit must answer None,
        // never replay the stale measurement.
        let cfg = MacroConfig::new(2, 2);
        let p = MacroProgram::random(cfg.ndec, cfg.ns, 5);
        let inner = BackendKind::Rtl {
            fidelity: crate::backend::Fidelity::Sequential,
        }
        .build(&cfg, p.clone())
        .unwrap();
        let mut backend = CachedBackend::new(inner, &p, CacheConfig::default());
        let batch = TokenBatch::new(vec![token(2, 3)]).unwrap();
        let cold = backend.run_batch(&batch).unwrap();
        let cold_token = cold.tokens.get(0).unwrap();
        assert!(cold_token.latency.is_some(), "miss keeps the measurement");
        let warm = backend.run_batch(&batch).unwrap();
        let warm_token = warm.tokens.get(0).unwrap();
        assert_eq!(warm_token.outputs, cold_token.outputs);
        assert!(warm_token.latency.is_none() && warm_token.energy.is_none());
        assert!(warm.makespan.is_none() && warm.energy.is_none());
    }

    proptest! {
        /// Both capacity bounds hold after every single operation of an
        /// arbitrary insert/lookup interleaving, and every hit returns
        /// exactly what was inserted for that key.
        #[test]
        fn store_bounds_hold_after_every_operation(
            max_entries in 1usize..6,
            extra_bytes in 0usize..512,
            ops in proptest::collection::vec((0i8..12, any::<bool>()), 1..64),
        ) {
            let p = program(1);
            let config = CacheConfig {
                max_entries,
                // Floor high enough that at least one entry fits.
                max_bytes: ENTRY_OVERHEAD_BYTES + SUBVECTOR_LEN + 16 + extra_bytes,
            };
            let mut store = CacheStore::new(config);
            for (fill, do_insert) in ops {
                let t = token(1, fill);
                let expect = p.reference_output(&t);
                if do_insert {
                    insert(&mut store, &t, &expect);
                } else if let Some(got) = get(&mut store, &t) {
                    prop_assert_eq!(got, expect);
                }
                let s = store.stats();
                prop_assert!(s.resident_entries <= config.max_entries);
                prop_assert!(s.resident_bytes <= config.max_bytes);
                prop_assert_eq!(s.insertions, s.evictions + s.resident_entries as u64);
            }
        }

        /// Cached ≡ uncached on the functional backend for arbitrary
        /// token streams with duplication, under a tiny store.
        #[test]
        fn cached_matches_uncached_under_tiny_store(
            seed in 0u64..1024,
            fills in proptest::collection::vec(-4i8..4, 1..24),
            max_entries in 1usize..4,
        ) {
            let cfg = MacroConfig::new(2, 2);
            let p = MacroProgram::random(cfg.ndec, cfg.ns, seed);
            let mut backend = CachedBackend::new(
                Box::new(FunctionalBackend::new(p.clone())),
                &p,
                CacheConfig::default().with_max_entries(max_entries),
            );
            let tokens: Vec<Token> = fills.iter().map(|&f| token(2, f)).collect();
            let batch = TokenBatch::new(tokens.clone()).unwrap();
            for _ in 0..3 {
                let result = backend.run_batch(&batch).unwrap();
                prop_assert_eq!(result.tokens.len(), tokens.len());
                for (obs, tok) in result.tokens.iter().zip(&tokens) {
                    prop_assert_eq!(&obs.outputs, &p.reference_output(tok));
                }
            }
        }
    }
}
