//! The delta-simulation skeleton cache and its accounting object.
//!
//! [`DeltaCache`] is a process-local, size-bounded memo store for the
//! delta re-simulation path: the scheduler caches *schedule skeletons*
//! (a run's decision outcome and final policy state, replayed whole
//! when an equal run comes again) in it. Keys are
//! opaque byte strings built by the owning layer from every input that
//! can change the memoized result — the cache itself never interprets
//! them, it only stores `Arc<dyn Any>` values with an approximate byte
//! size and evicts least-recently-used entries past the bound.
//!
//! Like [`Registry`](crate::Registry) and [`Journal`](crate::Journal),
//! the default [`DeltaCache::disabled`] handle is a `None`: every hook
//! is a single branch, so call sites are free to leave in hot paths, and
//! `ExecCtx::default()` reproduces pre-delta behavior bit-for-bit.
//! Clones share the underlying store, which is what lets parallel
//! sweep workers reuse each other's skeletons.
//!
//! Determinism contract: a hit must replay to *byte-identical* results
//! (the owning layer guarantees this; see `hprc-sched`'s delta
//! module), so hit/miss patterns — which can vary with worker
//! interleaving at `--jobs > 1` — are never observable in artifacts.
//! The [`DeltaAccount`] counters are exact but interleaving-dependent;
//! deterministic surfaces (the `summary` experiment) therefore report
//! accounts from serial, private-cache runs only.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::Serialize;

/// Default size bound for a delta cache: generous enough to hold every
/// skeleton of a full `hprc-exp all` pass, small enough to stay
/// invisible next to the host's memory.
pub const DEFAULT_DELTA_BYTES: u64 = 64 * 1024 * 1024;

/// The accounting snapshot of one [`DeltaCache`], rendered by the
/// `summary` experiment. Every lookup is either a full hit or a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct DeltaAccount {
    /// Skeleton lookups performed.
    pub lookups: u64,
    /// Lookups answered entirely from a memoized skeleton (the whole
    /// run replayed from one earlier run with an equal trace and plan).
    pub full_hits: u64,
    /// Lookups that found no equal run and simulated longhand.
    pub misses: u64,
    /// Calls replayed from memoized decision traces instead of being
    /// re-simulated.
    pub calls_replayed: u64,
    /// Calls simulated longhand by misses.
    pub calls_resimulated: u64,
    /// Skeletons stored (including overwrites of a stale variant).
    pub stored: u64,
    /// Skeletons evicted by the size bound.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: u64,
    /// Approximate bytes currently held.
    pub bytes_held: u64,
}

/// One stored skeleton: the opaque value, its approximate size, and
/// the LRU tick of its last touch.
struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    tick: u64,
}

/// The mutable store behind an enabled cache.
struct Store {
    map: HashMap<Vec<u8>, Entry>,
    bytes_held: u64,
    tick: u64,
}

struct Shared {
    max_bytes: u64,
    store: Mutex<Store>,
    lookups: AtomicU64,
    full_hits: AtomicU64,
    misses: AtomicU64,
    calls_replayed: AtomicU64,
    calls_resimulated: AtomicU64,
    stored: AtomicU64,
    evictions: AtomicU64,
}

/// A shared, size-bounded skeleton store. `None` (the default) is the
/// disabled cache: every hook is one branch and nothing is ever
/// stored.
#[derive(Clone, Default)]
pub struct DeltaCache(Option<Arc<Shared>>);

impl std::fmt::Debug for DeltaCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("DeltaCache(disabled)"),
            Some(s) => {
                let store = s.store.lock();
                write!(
                    f,
                    "DeltaCache(entries: {}, bytes: {}/{})",
                    store.map.len(),
                    store.bytes_held,
                    s.max_bytes
                )
            }
        }
    }
}

impl DeltaCache {
    /// The disabled cache (the default): all hooks no-op.
    pub fn disabled() -> Self {
        DeltaCache(None)
    }

    /// An enabled cache bounded to approximately `max_bytes` of stored
    /// skeletons (least-recently-used eviction past the bound).
    pub fn new(max_bytes: u64) -> Self {
        DeltaCache(Some(Arc::new(Shared {
            max_bytes,
            store: Mutex::new(Store {
                map: HashMap::new(),
                bytes_held: 0,
                tick: 0,
            }),
            lookups: AtomicU64::new(0),
            full_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            calls_replayed: AtomicU64::new(0),
            calls_resimulated: AtomicU64::new(0),
            stored: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })))
    }

    /// An enabled cache with the default size bound.
    pub fn enabled() -> Self {
        Self::new(DEFAULT_DELTA_BYTES)
    }

    /// Whether skeletons are being cached at all.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Looks up a skeleton and marks it most-recently-used. Counts one
    /// lookup; the caller classifies the result via
    /// [`note_full_hit`](DeltaCache::note_full_hit) or
    /// [`note_miss`](DeltaCache::note_miss) once it has matched the
    /// stored runs against its own.
    pub fn get(&self, key: &[u8]) -> Option<Arc<dyn Any + Send + Sync>> {
        let shared = self.0.as_ref()?;
        shared.lookups.fetch_add(1, Ordering::Relaxed);
        let mut store = shared.store.lock();
        store.tick += 1;
        let tick = store.tick;
        let entry = store.map.get_mut(key)?;
        entry.tick = tick;
        Some(Arc::clone(&entry.value))
    }

    /// Stores (or replaces) a skeleton under `key`, then evicts
    /// least-recently-used entries until the byte bound holds again —
    /// the entry just stored is never its own eviction victim, so a
    /// single oversized skeleton still caches.
    pub fn put(&self, key: Vec<u8>, value: Arc<dyn Any + Send + Sync>, bytes: u64) {
        let Some(shared) = self.0.as_ref() else {
            return;
        };
        shared.stored.fetch_add(1, Ordering::Relaxed);
        let mut store = shared.store.lock();
        store.tick += 1;
        let tick = store.tick;
        if let Some(old) = store.map.insert(key.clone(), Entry { value, bytes, tick }) {
            store.bytes_held -= old.bytes;
        }
        store.bytes_held += bytes;
        while store.bytes_held > shared.max_bytes && store.map.len() > 1 {
            let victim = store
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    if let Some(e) = store.map.remove(&k) {
                        store.bytes_held -= e.bytes;
                        shared.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
    }

    /// Records a whole-run replay of `calls` memoized calls.
    pub fn note_full_hit(&self, calls: u64) {
        if let Some(s) = &self.0 {
            s.full_hits.fetch_add(1, Ordering::Relaxed);
            s.calls_replayed.fetch_add(calls, Ordering::Relaxed);
        }
    }

    /// Records a miss that re-simulated `calls` calls longhand.
    pub fn note_miss(&self, calls: u64) {
        if let Some(s) = &self.0 {
            s.misses.fetch_add(1, Ordering::Relaxed);
            s.calls_resimulated.fetch_add(calls, Ordering::Relaxed);
        }
    }

    /// The current accounting snapshot, or `None` for a disabled
    /// cache.
    pub fn account(&self) -> Option<DeltaAccount> {
        let s = self.0.as_ref()?;
        let store = s.store.lock();
        Some(DeltaAccount {
            lookups: s.lookups.load(Ordering::Relaxed),
            full_hits: s.full_hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            calls_replayed: s.calls_replayed.load(Ordering::Relaxed),
            calls_resimulated: s.calls_resimulated.load(Ordering::Relaxed),
            stored: s.stored.load(Ordering::Relaxed),
            evictions: s.evictions.load(Ordering::Relaxed),
            entries: store.map.len() as u64,
            bytes_held: store.bytes_held,
        })
    }
}

/// Canonical little-endian byte packing helpers for delta cache keys
/// and policy state encodings. One shared vocabulary keeps every
/// layer's encoding collision-free by construction (length-prefixed
/// variable parts, fixed-width scalars).
pub mod bytes {
    /// Appends a `u64` little-endian.
    pub fn put_u64(v: &mut Vec<u8>, x: u64) {
        v.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn put_f64(v: &mut Vec<u8>, x: f64) {
        v.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_slice(v: &mut Vec<u8>, s: &[u8]) {
        put_u64(v, s.len() as u64);
        v.extend_from_slice(s);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(v: &mut Vec<u8>, s: &str) {
        put_slice(v, s.as_bytes());
    }

    /// Reads a `u64` at `*pos`, advancing it. `None` past the end.
    pub fn get_u64(v: &[u8], pos: &mut usize) -> Option<u64> {
        let end = pos.checked_add(8)?;
        let bytes: [u8; 8] = v.get(*pos..end)?.try_into().ok()?;
        *pos = end;
        Some(u64::from_le_bytes(bytes))
    }

    /// Reads an `f64` bit pattern at `*pos`, advancing it.
    pub fn get_f64(v: &[u8], pos: &mut usize) -> Option<f64> {
        get_u64(v, pos).map(f64::from_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_cache_is_inert() {
        let c = DeltaCache::disabled();
        assert!(!c.is_enabled());
        c.put(vec![1], Arc::new(7u64), 100);
        assert!(c.get(&[1]).is_none());
        assert!(c.account().is_none());
        c.note_full_hit(10);
        c.note_miss(10);
    }

    #[test]
    fn put_get_roundtrip_through_any() {
        let c = DeltaCache::new(1024);
        c.put(b"k".to_vec(), Arc::new(vec![1u32, 2, 3]), 12);
        let v = c.get(b"k").expect("stored");
        let v = v.downcast_ref::<Vec<u32>>().expect("type");
        assert_eq!(v, &vec![1, 2, 3]);
        assert!(c.get(b"other").is_none());
    }

    #[test]
    fn clones_share_the_store() {
        let a = DeltaCache::new(1024);
        let b = a.clone();
        a.put(b"k".to_vec(), Arc::new(1u8), 1);
        assert!(b.get(b"k").is_some());
        let acct = b.account().unwrap();
        assert_eq!(acct.entries, 1);
        assert_eq!(acct.lookups, 1);
    }

    #[test]
    fn lru_eviction_honors_the_byte_bound() {
        let c = DeltaCache::new(100);
        c.put(b"a".to_vec(), Arc::new(0u8), 40);
        c.put(b"b".to_vec(), Arc::new(1u8), 40);
        // Touch `a` so `b` is the LRU victim.
        assert!(c.get(b"a").is_some());
        c.put(b"c".to_vec(), Arc::new(2u8), 40);
        assert!(c.get(b"b").is_none(), "LRU entry evicted");
        assert!(c.get(b"a").is_some() && c.get(b"c").is_some());
        let acct = c.account().unwrap();
        assert_eq!(acct.evictions, 1);
        assert_eq!(acct.entries, 2);
        assert_eq!(acct.bytes_held, 80);
    }

    #[test]
    fn oversized_entry_still_caches_and_never_self_evicts() {
        let c = DeltaCache::new(10);
        c.put(b"big".to_vec(), Arc::new(0u8), 500);
        assert!(c.get(b"big").is_some());
        assert_eq!(c.account().unwrap().entries, 1);
        // A second entry evicts the first (it is the only other one).
        c.put(b"big2".to_vec(), Arc::new(1u8), 500);
        assert!(c.get(b"big").is_none());
        assert!(c.get(b"big2").is_some());
    }

    #[test]
    fn replacing_a_key_does_not_leak_bytes() {
        let c = DeltaCache::new(1000);
        c.put(b"k".to_vec(), Arc::new(0u8), 400);
        c.put(b"k".to_vec(), Arc::new(1u8), 300);
        let acct = c.account().unwrap();
        assert_eq!(acct.bytes_held, 300);
        assert_eq!(acct.entries, 1);
        assert_eq!(acct.stored, 2);
    }

    #[test]
    fn account_tallies_hits_and_misses() {
        let c = DeltaCache::new(1024);
        c.note_full_hit(300);
        c.note_miss(300);
        let a = c.account().unwrap();
        assert_eq!(a.full_hits, 1);
        assert_eq!(a.misses, 1);
        assert_eq!(a.calls_replayed, 300);
        assert_eq!(a.calls_resimulated, 300);
    }

    #[test]
    fn byte_helpers_roundtrip() {
        use super::bytes::*;
        let mut v = Vec::new();
        put_u64(&mut v, 7);
        put_f64(&mut v, 1.5);
        put_str(&mut v, "lru");
        let mut pos = 0;
        assert_eq!(get_u64(&v, &mut pos), Some(7));
        assert_eq!(get_f64(&v, &mut pos), Some(1.5));
        assert_eq!(get_u64(&v, &mut pos), Some(3));
        assert_eq!(&v[pos..pos + 3], b"lru");
    }
}
