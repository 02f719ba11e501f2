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
//! * results are keyed on a [`CacheKey`] — a content
//!   [`ProgramFingerprint`] plus the token's exact quantised bytes — so
//!   a hit can only ever return the output the very same program
//!   produced for the very same token;
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
//! build from the same `(program, kind)` recipe, and
//! [`SessionStats`](crate::session::SessionStats) aggregates the
//! [`CacheStats`] counters wherever the tier is deployed.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use maddpipe_core::config::SUBVECTOR_LEN;
use maddpipe_core::macro_rtl::MacroProgram;

use crate::backend::MacroBackend;
use crate::batch::{BatchResult, Token, TokenBatch, TokenObservation};
use crate::error::BackendError;

/// Approximate fixed bookkeeping cost charged per resident entry on top
/// of the key and output payloads (map entry, slot, allocation headers).
const ENTRY_OVERHEAD_BYTES: usize = 64;

/// A content fingerprint of a [`MacroProgram`]: every byte that can
/// influence an output — tree shapes, split dimensions, thresholds and
/// all LUT words — serialised into one blob, with a 64-bit digest for
/// cheap hashing.
///
/// Equality compares the *content blob*, not the digest, so two
/// different programs can never be confused by a hash collision:
/// programs differing in a single LUT word are unequal by construction
/// and therefore occupy disjoint key spaces in the cache.
#[derive(Debug, Clone)]
pub struct ProgramFingerprint {
    blob: Arc<[u8]>,
    hash: u64,
}

fn push_usize(blob: &mut Vec<u8>, v: usize) {
    blob.extend_from_slice(&(v as u64).to_le_bytes());
}

/// FNV-1a over the blob — stable, dependency-free, and only a fast
/// path: correctness never rests on this digest (see
/// [`ProgramFingerprint`] equality).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ProgramFingerprint {
    /// Fingerprints a program by serialising its full content.
    pub fn of(program: &MacroProgram) -> ProgramFingerprint {
        let mut blob = Vec::new();
        push_usize(&mut blob, program.ns());
        push_usize(&mut blob, program.ndec());
        push_usize(&mut blob, program.trees.len());
        for tree in &program.trees {
            push_usize(&mut blob, tree.levels());
            push_usize(&mut blob, tree.split_dims().len());
            for &dim in tree.split_dims() {
                push_usize(&mut blob, dim);
            }
            push_usize(&mut blob, tree.thresholds().len());
            blob.extend(tree.thresholds().iter().map(|&t| t as u8));
        }
        push_usize(&mut blob, program.luts.len());
        for stage in &program.luts {
            push_usize(&mut blob, stage.len());
            for lut in stage {
                blob.extend(lut.iter().map(|&w| w as u8));
            }
        }
        let hash = fnv1a(&blob);
        ProgramFingerprint {
            blob: blob.into(),
            hash,
        }
    }

    /// The 64-bit content digest (diagnostic; equality uses the blob).
    pub fn digest(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for ProgramFingerprint {
    fn eq(&self, other: &ProgramFingerprint) -> bool {
        self.hash == other.hash && (Arc::ptr_eq(&self.blob, &other.blob) || self.blob == other.blob)
    }
}

impl Eq for ProgramFingerprint {}

impl Hash for ProgramFingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A cache key: the program's content fingerprint plus the token's
/// exact quantised bytes. Two keys are equal iff the program contents
/// *and* every token byte agree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    fingerprint: ProgramFingerprint,
    token: Box<[u8]>,
}

impl CacheKey {
    /// Builds the key for one token under one program fingerprint.
    pub fn new(fingerprint: ProgramFingerprint, token: &Token) -> CacheKey {
        let mut bytes = Vec::with_capacity(token.len() * SUBVECTOR_LEN);
        for sub in token {
            bytes.extend(sub.iter().map(|&b| b as u8));
        }
        CacheKey {
            fingerprint,
            token: bytes.into_boxed_slice(),
        }
    }

    /// Bytes of token payload carried by this key.
    pub fn token_bytes(&self) -> usize {
        self.token.len()
    }
}

/// Capacity bounds for a [`CacheStore`] — both dimensions are enforced
/// simultaneously; eviction runs until *neither* is exceeded.
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

    /// Field-wise max on the monotone counters, newest value on the
    /// residency gauges — folds *successive snapshots of the same
    /// store* without double-counting.
    pub(crate) fn absorb_snapshot(&mut self, snapshot: CacheStats) {
        self.hits = self.hits.max(snapshot.hits);
        self.misses = self.misses.max(snapshot.misses);
        self.dedup = self.dedup.max(snapshot.dedup);
        self.insertions = self.insertions.max(snapshot.insertions);
        self.evictions = self.evictions.max(snapshot.evictions);
        self.resident_entries = snapshot.resident_entries;
        self.resident_bytes = snapshot.resident_bytes;
    }
}

#[derive(Debug)]
struct Slot {
    key: CacheKey,
    outputs: Vec<i16>,
    referenced: bool,
    bytes: usize,
}

/// The bounded CLOCK (second-chance) store behind a [`CachedBackend`].
///
/// Invariants, held after **every** public operation (property-tested
/// below):
///
/// * `resident_entries() <= config.max_entries`;
/// * `resident_bytes() <= config.max_bytes`;
/// * a [`lookup`](CacheStore::lookup) hit returns exactly the bytes the
///   corresponding [`insert`](CacheStore::insert) stored.
///
/// Eviction runs *before* insertion (never exceed-then-trim), so the
/// bounds are respected at every observable point, not just between
/// batches. An entry that alone exceeds `max_bytes` is skipped rather
/// than evicting the whole store for nothing.
#[derive(Debug)]
pub struct CacheStore {
    config: CacheConfig,
    map: HashMap<CacheKey, usize>,
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
    pub fn new(config: CacheConfig) -> CacheStore {
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

    /// The bounds this store enforces.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Entries currently resident.
    pub fn resident_entries(&self) -> usize {
        self.slots.len()
    }

    /// Bytes currently resident, as accounted for the byte bound.
    pub fn resident_bytes(&self) -> usize {
        self.bytes
    }

    fn entry_bytes(key: &CacheKey, outputs: &[i16]) -> usize {
        key.token_bytes() + outputs.len() * 2 + ENTRY_OVERHEAD_BYTES
    }

    /// Looks a key up, counting a hit (and marking the CLOCK reference
    /// bit) or a miss.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Vec<i16>> {
        match self.map.get(key) {
            Some(&idx) => {
                self.hits += 1;
                self.slots[idx].referenced = true;
                Some(self.slots[idx].outputs.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Counts one token elided by intra-batch deduplication.
    pub fn note_dedup(&mut self) {
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
                if self.hand < self.slots.len() {
                    let moved = self.slots[self.hand].key.clone();
                    self.map.insert(moved, self.hand);
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
    pub fn insert(&mut self, key: CacheKey, outputs: Vec<i16>) {
        if self.map.contains_key(&key) {
            return;
        }
        let entry_bytes = Self::entry_bytes(&key, &outputs);
        if self.config.max_entries == 0 || entry_bytes > self.config.max_bytes {
            return;
        }
        while self.slots.len() + 1 > self.config.max_entries
            || self.bytes + entry_bytes > self.config.max_bytes
        {
            self.evict_one();
        }
        let idx = self.slots.len();
        self.map.insert(key.clone(), idx);
        self.bytes += entry_bytes;
        self.slots.push(Slot {
            key,
            outputs,
            referenced: false,
            bytes: entry_bytes,
        });
        self.insertions += 1;
    }

    /// A cumulative snapshot of the store's counters and residency.
    pub fn stats(&self) -> CacheStats {
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

/// A shared handle on a [`CacheStore`] — what a [`CachedBackend`] holds,
/// and what composes per-shard stores into one aggregate view.
pub type SharedCacheStore = Arc<Mutex<CacheStore>>;

/// Locks a store, tolerating poison: the store's own operations cannot
/// leave it inconsistent mid-panic (the mutex is never held across an
/// inner-backend call), so the data behind a poisoned lock is sound.
pub(crate) fn lock_store(store: &SharedCacheStore) -> std::sync::MutexGuard<'_, CacheStore> {
    store
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A [`MacroBackend`] wrapper serving repeated tokens from a bounded
/// content-addressed store, with intra-batch deduplication (see the
/// [module docs](self) for the full contract).
pub struct CachedBackend {
    inner: Box<dyn MacroBackend>,
    fingerprint: ProgramFingerprint,
    ns: usize,
    store: SharedCacheStore,
}

impl CachedBackend {
    /// Wraps `inner` with a fresh store bounded by `config`. The
    /// `program` must be the one `inner` executes — the fingerprint
    /// taken here is what keys every result.
    pub fn new(
        inner: Box<dyn MacroBackend>,
        program: &MacroProgram,
        config: CacheConfig,
    ) -> CachedBackend {
        CachedBackend::with_store(
            inner,
            program,
            Arc::new(Mutex::new(CacheStore::new(config))),
        )
    }

    /// Wraps `inner` over an *existing* store handle — lets several
    /// tiers share one store, and lets owners (the sharded backend,
    /// tests) keep a handle for aggregate inspection.
    pub fn with_store(
        inner: Box<dyn MacroBackend>,
        program: &MacroProgram,
        store: SharedCacheStore,
    ) -> CachedBackend {
        CachedBackend {
            inner,
            fingerprint: ProgramFingerprint::of(program),
            ns: program.ns(),
            store,
        }
    }

    /// A handle on the underlying store.
    pub fn store(&self) -> SharedCacheStore {
        Arc::clone(&self.store)
    }

    /// The program fingerprint keying this tier.
    pub fn fingerprint(&self) -> ProgramFingerprint {
        self.fingerprint.clone()
    }
}

impl MacroBackend for CachedBackend {
    fn name(&self) -> &'static str {
        "cached"
    }

    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        batch.check_shape(self.ns)?;
        let tokens = batch.tokens();
        let keys: Vec<CacheKey> = tokens
            .iter()
            .map(|t| CacheKey::new(self.fingerprint.clone(), t))
            .collect();

        let mut resolved: Vec<Option<TokenObservation>> = vec![None; tokens.len()];
        // First occurrences that missed, in batch order, and duplicate
        // positions pointing at their first occurrence.
        let mut misses: Vec<usize> = Vec::new();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        {
            // One lock for the whole probe: the dedup map must see a
            // consistent store, and the store is never locked across
            // the inner dispatch below.
            let mut store = lock_store(&self.store);
            let mut seen: HashMap<&CacheKey, usize> = HashMap::new();
            for (i, key) in keys.iter().enumerate() {
                if let Some(&first) = seen.get(key) {
                    if resolved[first].is_some() {
                        // Duplicate of a token that hit — it hits too.
                        let outputs = store.lookup(key).expect("first occurrence was resident");
                        resolved[i] = Some(TokenObservation {
                            outputs,
                            latency: None,
                            energy: None,
                        });
                    } else {
                        store.note_dedup();
                        dups.push((i, first));
                    }
                } else {
                    seen.insert(key, i);
                    match store.lookup(key) {
                        Some(outputs) => {
                            resolved[i] = Some(TokenObservation {
                                outputs,
                                latency: None,
                                energy: None,
                            });
                        }
                        None => misses.push(i),
                    }
                }
            }
        }

        let mut makespan = None;
        let mut energy = None;
        if !misses.is_empty() {
            let unique: Vec<Token> = misses.iter().map(|&i| tokens[i].clone()).collect();
            let sub = TokenBatch::new(unique)?;
            // A failure here propagates with no store mutation: nothing
            // was inserted, so a retry re-executes from scratch and the
            // cache cannot serve (or remember) a failed attempt.
            let inner_result = self.inner.run_batch(&sub)?;
            if inner_result.tokens.len() != misses.len() {
                return Err(BackendError::MalformedProgram {
                    reason: format!(
                        "cached tier: inner backend '{}' returned {} observations \
                         for {} unique tokens — refusing to cache misaligned outputs",
                        inner_result.backend,
                        inner_result.tokens.len(),
                        misses.len()
                    ),
                });
            }
            makespan = inner_result.makespan;
            energy = inner_result.energy;
            {
                let mut store = lock_store(&self.store);
                for (&i, obs) in misses.iter().zip(inner_result.tokens.iter()) {
                    store.insert(keys[i].clone(), obs.outputs.clone());
                }
            }
            // Freshly computed tokens keep the inner backend's measured
            // observation; only replayed results are unmeasured.
            for (&i, obs) in misses.iter().zip(inner_result.tokens) {
                resolved[i] = Some(obs);
            }
        }
        for (i, first) in dups {
            let outputs = resolved[first]
                .as_ref()
                .expect("first occurrence resolved by dispatch")
                .outputs
                .clone();
            resolved[i] = Some(TokenObservation {
                outputs,
                latency: None,
                energy: None,
            });
        }

        Ok(BatchResult {
            backend: self.name(),
            tokens: resolved
                .into_iter()
                .map(|obs| obs.expect("every token resolved"))
                .collect(),
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
        Some(lock_store(&self.store).stats())
    }
}

impl std::fmt::Debug for CachedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedBackend")
            .field("inner", &self.inner.name())
            .field(
                "fingerprint",
                &format_args!("{:016x}", self.fingerprint.hash),
            )
            .field("ns", &self.ns)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::functional::FunctionalBackend;
    use maddpipe_core::config::MacroConfig;
    use proptest::prelude::*;

    fn program(ns: usize) -> MacroProgram {
        MacroProgram::random(2, ns, 42)
    }

    fn key_for(program: &MacroProgram, token: &Token) -> CacheKey {
        CacheKey::new(ProgramFingerprint::of(program), token)
    }

    fn token(ns: usize, fill: i8) -> Token {
        vec![[fill; SUBVECTOR_LEN]; ns]
    }

    #[test]
    fn fingerprint_is_stable_and_content_equal() {
        let p = program(2);
        let a = ProgramFingerprint::of(&p);
        let b = ProgramFingerprint::of(&p.clone());
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn fingerprint_differs_on_one_lut_word() {
        let p = program(2);
        let mut q = p.clone();
        q.luts[0][0][3] = q.luts[0][0][3].wrapping_add(1);
        assert_ne!(ProgramFingerprint::of(&p), ProgramFingerprint::of(&q));
    }

    #[test]
    fn different_programs_occupy_disjoint_key_spaces() {
        // Two programs differing in one LUT word: inserting under one
        // must not make the same token hit under the other.
        let p = program(2);
        let mut q = p.clone();
        q.luts[1][0][7] = q.luts[1][0][7].wrapping_add(1);
        let t = token(2, 5);
        let mut store = CacheStore::new(CacheConfig::default());
        store.insert(key_for(&p, &t), p.reference_output(&t));
        assert!(store.lookup(&key_for(&p, &t)).is_some());
        assert!(store.lookup(&key_for(&q, &t)).is_none());
    }

    #[test]
    fn hit_returns_exactly_inserted_bytes() {
        let p = program(2);
        let t = token(2, -3);
        let out = p.reference_output(&t);
        let mut store = CacheStore::new(CacheConfig::default());
        store.insert(key_for(&p, &t), out.clone());
        assert_eq!(store.lookup(&key_for(&p, &t)), Some(out));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 0, 1));
    }

    #[test]
    fn zero_entry_bound_disables_caching() {
        let p = program(1);
        let t = token(1, 1);
        let mut store = CacheStore::new(CacheConfig::default().with_max_entries(0));
        store.insert(key_for(&p, &t), vec![1, 2]);
        assert_eq!(store.resident_entries(), 0);
        assert!(store.lookup(&key_for(&p, &t)).is_none());
    }

    #[test]
    fn oversized_entry_is_skipped_not_thrashed() {
        let p = program(1);
        let small = token(1, 1);
        let mut store = CacheStore::new(CacheConfig::default().with_max_bytes(256));
        store.insert(key_for(&p, &small), vec![0; 4]);
        assert_eq!(store.resident_entries(), 1);
        // An entry that can never fit must not evict what is resident.
        store.insert(key_for(&p, &token(1, 2)), vec![0; 4096]);
        assert_eq!(store.resident_entries(), 1);
        assert!(store.lookup(&key_for(&p, &small)).is_some());
    }

    #[test]
    fn capacity_one_store_keeps_exactly_the_last_entry() {
        let p = program(1);
        let cfg = CacheConfig::default().with_max_entries(1);
        let mut store = CacheStore::new(cfg);
        for fill in 0..8i8 {
            let t = token(1, fill);
            store.insert(key_for(&p, &t), p.reference_output(&t));
            assert_eq!(store.resident_entries(), 1);
        }
        assert_eq!(store.stats().evictions, 7);
        assert!(store.lookup(&key_for(&p, &token(1, 7))).is_some());
        assert!(store.lookup(&key_for(&p, &token(1, 0))).is_none());
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let p = program(1);
        let mut store = CacheStore::new(CacheConfig::default().with_max_entries(2));
        let hot = token(1, 1);
        store.insert(key_for(&p, &hot), vec![1]);
        store.insert(key_for(&p, &token(1, 2)), vec![2]);
        // Touch the hot entry so its reference bit is set; the next
        // insert must evict the cold one.
        assert!(store.lookup(&key_for(&p, &hot)).is_some());
        store.insert(key_for(&p, &token(1, 3)), vec![3]);
        assert!(store.lookup(&key_for(&p, &hot)).is_some());
        assert!(store.lookup(&key_for(&p, &token(1, 2))).is_none());
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
        assert_eq!(result.tokens[0].outputs, p.reference_output(&t));
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
                result.tokens.pop();
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
        assert!(
            cold.tokens[0].latency.is_some(),
            "miss keeps the measurement"
        );
        let warm = backend.run_batch(&batch).unwrap();
        assert_eq!(warm.tokens[0].outputs, cold.tokens[0].outputs);
        assert!(warm.tokens[0].latency.is_none() && warm.tokens[0].energy.is_none());
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
            let fp = ProgramFingerprint::of(&p);
            let config = CacheConfig {
                max_entries,
                // Floor high enough that at least one entry fits.
                max_bytes: ENTRY_OVERHEAD_BYTES + SUBVECTOR_LEN + 16 + extra_bytes,
            };
            let mut store = CacheStore::new(config);
            for (fill, do_insert) in ops {
                let t = token(1, fill);
                let key = CacheKey::new(fp.clone(), &t);
                let expect = p.reference_output(&t);
                if do_insert {
                    store.insert(key, expect);
                } else if let Some(got) = store.lookup(&key) {
                    prop_assert_eq!(got, expect);
                }
                prop_assert!(store.resident_entries() <= config.max_entries);
                prop_assert!(store.resident_bytes() <= config.max_bytes);
                let s = store.stats();
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
