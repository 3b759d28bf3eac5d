//! Per-model forecast result cache with a horizon-aware TTL.
//!
//! Serving the same window twice is common under real traffic: dashboards
//! poll, retries re-ask, and many consumers watch the same sensors. Since
//! a compiled plan is a pure function of its input window (weights held
//! fixed between retraining admissions), a forecast can be answered from
//! cache **bit-identically** — the cache stores the exact output tensor
//! and keys on the exact input bit pattern, so a hit is indistinguishable
//! from a fresh [`crate::ExecPlan::try_run`].
//!
//! Two eviction axes:
//!
//! * **Horizon TTL** — a forecast made from a window at origin `o` covers
//!   steps `o+1 ..= o+Q`. Once the newest window origin the cache has
//!   seen advances to `o + Q` or beyond, that forecast lies entirely in
//!   the past and the entry is dropped (`cache_expired`). Origins are
//!   logical window positions supplied by the caller, not wall-clock —
//!   callers that never supply origins (always `0`) simply never expire
//!   entries and rely on the LRU cap alone.
//! * **Byte cap** — inputs + outputs are accounted per entry; inserting
//!   past the cap evicts least-recently-used entries (`cache_evict`)
//!   until the new entry fits. An entry larger than the whole cap is
//!   never stored.

use cts_obs::serve as counters;
use cts_tensor::Tensor;
use std::collections::HashMap;

/// Content identity of one (sanitized) request window: shape plus the
/// exact `f32` bit pattern, pre-hashed for bucket lookup.
///
/// Built once per request with [`ForecastCache::key`] so the same bits
/// are not re-hashed between lookup and insert.
#[derive(Clone, Debug)]
pub struct CacheKey {
    hash: u64,
    shape: Vec<usize>,
    bits: Vec<u32>,
}

/// One cached forecast.
struct Entry {
    key: CacheKey,
    out_shape: Vec<usize>,
    out_bits: Vec<u32>,
    /// Window origin the forecast was made from (TTL clock position).
    origin: u64,
    /// Logical LRU clock value of the last hit or insert.
    last_used: u64,
    /// Accounted size: input bits + output bits.
    bytes: usize,
}

/// LRU + horizon-TTL cache of forecasts for one model replica.
///
/// Lives on a single serving worker thread (one per model per shard), so
/// it needs no interior synchronization; the deterministic request→shard
/// assignment in [`crate::ServeFront`] guarantees a given window content
/// always consults the same replica, so replicas never duplicate entries.
pub struct ForecastCache {
    /// Hash → entries with that hash (collision bucket).
    buckets: HashMap<u64, Vec<Entry>>,
    byte_cap: usize,
    horizon: u64,
    bytes: usize,
    entries: usize,
    /// Newest window origin observed in any lookup or insert.
    latest_origin: u64,
    /// Monotonic logical clock for LRU ordering.
    tick: u64,
}

/// FNV-1a over the shape and the window's `f32` bit pattern.
fn content_hash(shape: &[usize], bits: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(shape.len() as u64);
    for &d in shape {
        eat(d as u64);
    }
    for &w in bits {
        eat(u64::from(w));
    }
    h
}

impl ForecastCache {
    /// Cache bounded by `byte_cap` bytes with forecasts valid for
    /// `horizon` window-origin steps.
    pub fn new(byte_cap: usize, horizon: usize) -> Self {
        Self {
            buckets: HashMap::new(),
            byte_cap,
            horizon: horizon.max(1) as u64,
            bytes: 0,
            entries: 0,
            latest_origin: 0,
            tick: 0,
        }
    }

    /// Content key for a (sanitized) request window.
    pub fn key(x: &Tensor) -> CacheKey {
        let shape = x.shape().to_vec();
        let bits: Vec<u32> = x.data().iter().map(|v| v.to_bits()).collect();
        let hash = content_hash(&shape, &bits);
        CacheKey { hash, shape, bits }
    }

    /// Look up a forecast for `key` at window origin `origin`. Advances
    /// the TTL clock (expiring stale entries) and, on a hit, the entry's
    /// LRU position. Records `cache_hit`/`cache_miss`.
    pub fn lookup(&mut self, key: &CacheKey, origin: u64) -> Option<Tensor> {
        self.advance_origin(origin);
        self.tick += 1;
        let tick = self.tick;
        let hit = self.buckets.get_mut(&key.hash).and_then(|bucket| {
            bucket
                .iter_mut()
                .find(|e| e.key.shape == key.shape && e.key.bits == key.bits)
                .map(|e| {
                    e.last_used = tick;
                    Tensor::from_vec(
                        e.out_shape.clone(),
                        e.out_bits.iter().map(|&b| f32::from_bits(b)).collect(),
                    )
                })
        });
        match &hit {
            Some(_) => counters::record_cache_hit(),
            None => counters::record_cache_miss(),
        }
        hit
    }

    /// Store the forecast `y` for `key`, made from a window at `origin`.
    /// Evicts LRU entries to fit under the byte cap; an entry that alone
    /// exceeds the cap is silently skipped.
    pub fn insert(&mut self, key: CacheKey, y: &Tensor, origin: u64) {
        self.advance_origin(origin);
        // A forecast already in the past would expire on the next
        // advance; don't store it.
        if self.latest_origin.saturating_sub(origin) >= self.horizon {
            return;
        }
        let entry_bytes = (key.bits.len() + y.len()) * std::mem::size_of::<u32>();
        if entry_bytes > self.byte_cap {
            return;
        }
        // Replace an existing entry for the same content (refreshes its
        // origin — a newer identical window extends the TTL).
        self.remove_matching(&key, false);
        while self.bytes + entry_bytes > self.byte_cap {
            if !self.evict_lru() {
                break;
            }
        }
        self.tick += 1;
        self.bytes += entry_bytes;
        self.entries += 1;
        let entry = Entry {
            out_shape: y.shape().to_vec(),
            out_bits: y.data().iter().map(|v| v.to_bits()).collect(),
            origin,
            last_used: self.tick,
            bytes: entry_bytes,
            key,
        };
        self.buckets.entry(entry.key.hash).or_default().push(entry);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Accounted bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Advance the TTL clock to (at least) `origin` and drop every entry
    /// whose forecast now lies entirely in the past.
    fn advance_origin(&mut self, origin: u64) {
        if origin <= self.latest_origin {
            return;
        }
        self.latest_origin = origin;
        let horizon = self.horizon;
        let mut freed = 0usize;
        let mut expired = 0usize;
        self.buckets.retain(|_, bucket| {
            bucket.retain(|e| {
                let stale = origin.saturating_sub(e.origin) >= horizon;
                if stale {
                    freed += e.bytes;
                    expired += 1;
                }
                !stale
            });
            !bucket.is_empty()
        });
        self.bytes -= freed;
        self.entries -= expired;
        for _ in 0..expired {
            counters::record_cache_expired();
        }
    }

    /// Remove the entry matching `key`, if any. Counts it as an eviction
    /// when `count` is set.
    fn remove_matching(&mut self, key: &CacheKey, count: bool) {
        if let Some(bucket) = self.buckets.get_mut(&key.hash) {
            if let Some(pos) = bucket
                .iter()
                .position(|e| e.key.shape == key.shape && e.key.bits == key.bits)
            {
                let e = bucket.swap_remove(pos);
                self.bytes -= e.bytes;
                self.entries -= 1;
                if count {
                    counters::record_cache_evict();
                }
            }
            if bucket.is_empty() {
                self.buckets.remove(&key.hash);
            }
        }
    }

    /// Evict the least-recently-used entry. Returns false when empty.
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .buckets
            .values()
            .flatten()
            .min_by_key(|e| e.last_used)
            .map(|e| e.key.clone());
        match victim {
            Some(key) => {
                self.remove_matching(&key, true);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(fill: f32) -> Tensor {
        Tensor::full([1, 2, 3], fill)
    }

    fn forecast(fill: f32) -> Tensor {
        Tensor::full([1, 2], fill)
    }

    #[test]
    fn hit_returns_exact_bits_and_miss_on_different_content() {
        let _gate = crate::testlock::counters();
        cts_obs::serve::reset();
        let mut cache = ForecastCache::new(1 << 20, 12);
        let x = window(1.25);
        let y = forecast(-0.5);
        let key = ForecastCache::key(&x);
        assert!(cache.lookup(&key, 0).is_none());
        cache.insert(key.clone(), &y, 0);
        let hit = cache.lookup(&key, 0).expect("cached");
        assert_eq!(hit.shape(), y.shape());
        assert!(hit
            .data()
            .iter()
            .zip(y.data())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // Different content (same shape) misses.
        let other = ForecastCache::key(&window(1.26));
        assert!(cache.lookup(&other, 0).is_none());
        let snap = cts_obs::serve::snapshot();
        assert_eq!(snap.cache_hit, 1);
        assert_eq!(snap.cache_miss, 2);
    }

    #[test]
    fn nan_and_negative_zero_are_distinct_contents() {
        let mut cache = ForecastCache::new(1 << 20, 12);
        let mut a = window(0.0);
        let mut b = window(0.0);
        b.data_mut()[0] = -0.0;
        a.data_mut()[1] = f32::NAN;
        let (ka, kb) = (ForecastCache::key(&a), ForecastCache::key(&b));
        cache.insert(ka.clone(), &forecast(1.0), 0);
        assert!(cache.lookup(&kb, 0).is_none(), "-0.0 aliased 0.0");
        assert!(
            cache.lookup(&ka, 0).is_some(),
            "NaN window did not match itself"
        );
    }

    #[test]
    fn horizon_ttl_expires_past_forecasts() {
        let _gate = crate::testlock::counters();
        cts_obs::serve::reset();
        let mut cache = ForecastCache::new(1 << 20, 4); // Q = 4
        let key = ForecastCache::key(&window(2.0));
        cache.insert(key.clone(), &forecast(9.0), 10);
        // Origin 13: forecast covers 11..=14, still partially ahead.
        assert!(cache.lookup(&key, 13).is_some());
        // Origin 14: forecast covers 11..=14, now entirely in the past.
        assert!(cache.lookup(&key, 14).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cts_obs::serve::snapshot().cache_expired, 1);
        // Inserting an already-stale forecast is a no-op.
        cache.insert(key.clone(), &forecast(9.0), 10);
        assert!(cache.is_empty());
    }

    #[test]
    fn byte_cap_evicts_lru_first() {
        let _gate = crate::testlock::counters();
        cts_obs::serve::reset();
        let per_entry = (6 + 2) * 4; // input 6 f32 + output 2 f32
        let mut cache = ForecastCache::new(per_entry * 2, 100);
        let keys: Vec<CacheKey> = (0..3)
            .map(|i| ForecastCache::key(&window(i as f32)))
            .collect();
        cache.insert(keys[0].clone(), &forecast(0.0), 0);
        cache.insert(keys[1].clone(), &forecast(1.0), 0);
        assert_eq!(cache.len(), 2);
        // Touch entry 0 so entry 1 is the LRU victim.
        assert!(cache.lookup(&keys[0], 0).is_some());
        cache.insert(keys[2].clone(), &forecast(2.0), 0);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&keys[1], 0).is_none(), "LRU entry survived");
        assert!(cache.lookup(&keys[0], 0).is_some());
        assert!(cache.lookup(&keys[2], 0).is_some());
        assert_eq!(cts_obs::serve::snapshot().cache_evict, 1);
        assert!(cache.bytes() <= per_entry * 2);
        // An entry alone above the cap is skipped.
        let mut tiny = ForecastCache::new(4, 100);
        tiny.insert(keys[0].clone(), &forecast(0.0), 0);
        assert!(tiny.is_empty());
    }

    #[test]
    fn reinsert_same_content_refreshes_instead_of_duplicating() {
        let mut cache = ForecastCache::new(1 << 20, 8);
        let key = ForecastCache::key(&window(5.0));
        cache.insert(key.clone(), &forecast(1.0), 0);
        cache.insert(key.clone(), &forecast(1.0), 3);
        assert_eq!(cache.len(), 1);
        // The refreshed origin (3) keeps it alive past the original TTL.
        assert!(cache.lookup(&key, 9).is_some());
        assert!(cache.lookup(&key, 11).is_none());
    }
}
