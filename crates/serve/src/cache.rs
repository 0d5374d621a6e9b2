//! Sharded per-sensor forecast cache with TTL expiry.
//!
//! A served forecast is a pure function of (model version, sensor,
//! horizon, window contents), so the cache key is exactly that tuple —
//! the window enters as a 64-bit FNV-1a fingerprint of its f32 bits.
//! Any of the three invalidation events changes the key or removes the
//! entry: a new observation changes the fingerprint (and the replica
//! that applied it drops the superseded window's entries with
//! [`ForecastCache::purge_window`]), a hot swap changes the version
//! (plus an explicit [`ForecastCache::purge_version`] sweep to free the
//! dead entries), and wall-clock expiry is enforced
//! on read because a forecast for step t+1 stops being useful once
//! step t+1 has arrived — the TTL is tied to the forecast step length.
//! Reads only *check* expiry; reclamation happens in the periodic
//! [`ForecastCache::sweep`] the reactor loop drives, keeping removal
//! (and its shard-lock write traffic) off the request path.
//!
//! An entry is the finished answer, not its ingredients: beside the
//! values it holds the encoded `"cache":"hit"` response body as shared
//! bytes. The body is a function of key and values, so
//! [`ForecastCache::put`] encodes it once — on the thread that primes
//! the cache, which in the server is the otherwise idle replica — and
//! every hit is [`ForecastCache::get_body`]: probe, bump a refcount,
//! done. With the two purges a live (version, window) pair keeps at
//! most N·U entries resident.
//!
//! Shards are independent `Mutex<HashMap>`s picked by key hash, so IO
//! workers serving different sensors rarely contend on one lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::proto;

/// Cache key: everything a forecast depends on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// `FrozenStwa::frozen_at` store version of the serving snapshot.
    pub version: u64,
    pub sensor: u32,
    pub horizon: u32,
    /// FNV-1a over the input window's f32 bit patterns.
    pub window_fp: u64,
}

struct Entry {
    values: Arc<Vec<f32>>,
    /// `proto::forecast_body(key.., "hit", values)`, ready to frame.
    body: Arc<[u8]>,
    expires: Instant,
}

/// The sharded cache. Cheap to clone-by-Arc at the server level; all
/// methods take `&self`.
pub struct ForecastCache {
    shards: Vec<Mutex<HashMap<CacheKey, Entry>>>,
    ttl: Duration,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ForecastCache {
    /// `shards` is rounded up to a power of two so shard selection is a
    /// mask, not a division.
    pub fn new(shards: usize, ttl: Duration) -> ForecastCache {
        let n = shards.max(1).next_power_of_two();
        ForecastCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            ttl,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, Entry>> {
        let mut h = fnv1a64(&key.window_fp.to_le_bytes());
        h ^= (key.sensor as u64) << 32 | key.horizon as u64;
        h ^= key.version.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h as usize) & (self.shards.len() - 1)]
    }

    /// Read one field of a live entry. An expired entry counts as a
    /// miss but is *not* removed here — the periodic
    /// [`ForecastCache::sweep`] reclaims it, so the hot read path never
    /// mutates a shard.
    fn probe<T>(&self, key: &CacheKey, field: impl FnOnce(&Entry) -> T) -> Option<T> {
        let shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.get(key) {
            Some(e) if e.expires > Instant::now() => {
                let v = field(e);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The values of a live entry.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<f32>>> {
        self.probe(key, |e| Arc::clone(&e.values))
    }

    /// The encoded `"cache":"hit"` response body of a live entry —
    /// what a hit sends, byte for byte
    /// `proto::forecast_body(sensor, horizon, version, window_fp, "hit", values)`.
    pub fn get_body(&self, key: &CacheKey) -> Option<Arc<[u8]>> {
        self.probe(key, |e| Arc::clone(&e.body))
    }

    /// Insert (or replace) the entry for `key`, encoding its hit body.
    pub fn put(&self, key: CacheKey, values: Arc<Vec<f32>>) {
        let body = proto::forecast_body(
            key.sensor,
            key.horizon,
            key.version,
            key.window_fp,
            "hit",
            &values,
        );
        let entry = Entry {
            values,
            body: body.into(),
            expires: Instant::now() + self.ttl,
        };
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, entry);
    }

    /// Drop every entry frozen under `version` — called after a hot
    /// swap so dead-version entries don't sit around until TTL.
    pub fn purge_version(&self, version: u64) {
        self.purge(|k| k.version == version);
    }

    /// Drop every entry computed on the window fingerprinted
    /// `window_fp` and return how many went — called once an
    /// observation has superseded that window, whose key can then never
    /// be probed again. Idempotent.
    pub fn purge_window(&self, window_fp: u64) -> usize {
        self.purge(|k| k.window_fp == window_fp)
    }

    fn purge(&self, dead: impl Fn(&CacheKey) -> bool) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            let before = shard.len();
            shard.retain(|k, _| !dead(k));
            removed += before - shard.len();
        }
        removed
    }

    /// Drop expired entries everywhere and return how many were
    /// reclaimed (maintenance; correctness never depends on it because
    /// `get` checks expiry).
    pub fn sweep(&self) -> usize {
        let now = Instant::now();
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            let before = shard.len();
            shard.retain(|_, e| e.expires > now);
            removed += before - shard.len();
        }
        removed
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// FNV-1a over arbitrary bytes — the window fingerprint hash. Stable
/// across runs (unlike `DefaultHasher`), so fingerprints are
/// reproducible in logs and tests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint an f32 window by its exact bit patterns: two windows
/// collide only if every sample is bitwise identical, which is exactly
/// the cache-correctness condition for a bitwise-deterministic model.
pub fn fingerprint_f32(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(version: u64, sensor: u32, horizon: u32, fp: u64) -> CacheKey {
        CacheKey {
            version,
            sensor,
            horizon,
            window_fp: fp,
        }
    }

    #[test]
    fn hit_after_put_miss_after_ttl() {
        let cache = ForecastCache::new(4, Duration::from_millis(30));
        let k = key(1, 3, 2, 0xabc);
        assert!(cache.get(&k).is_none());
        cache.put(k, Arc::new(vec![1.0, 2.0]));
        assert_eq!(cache.get(&k).unwrap().as_slice(), &[1.0, 2.0]);
        std::thread::sleep(Duration::from_millis(40));
        assert!(cache.get(&k).is_none(), "expired entry must not serve");
        assert_eq!(cache.len(), 1, "reads never remove; the sweep does");
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 2));
        assert_eq!(cache.sweep(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn expired_entries_stop_counting_as_hits_before_any_sweep() {
        let cache = ForecastCache::new(2, Duration::from_millis(20));
        for s in 0..6u32 {
            cache.put(key(1, s, 1, 9), Arc::new(vec![s as f32]));
        }
        std::thread::sleep(Duration::from_millis(30));
        // No sweep has run: every entry is still resident, yet none may
        // serve — each read is a miss, counted as such.
        assert_eq!(cache.len(), 6);
        for s in 0..6u32 {
            assert!(cache.get(&key(1, s, 1, 9)).is_none());
        }
        assert_eq!(cache.stats(), (0, 6));
        assert_eq!(cache.sweep(), 6);
        assert!(cache.is_empty());
    }

    #[test]
    fn keys_differ_by_every_component() {
        let cache = ForecastCache::new(4, Duration::from_secs(60));
        let base = key(1, 0, 1, 7);
        cache.put(base, Arc::new(vec![1.0]));
        for other in [
            key(2, 0, 1, 7),
            key(1, 1, 1, 7),
            key(1, 0, 2, 7),
            key(1, 0, 1, 8),
        ] {
            assert!(
                cache.get(&other).is_none(),
                "{other:?} must not alias {base:?}"
            );
        }
        assert!(cache.get(&base).is_some());
    }

    #[test]
    fn purge_version_removes_only_that_version() {
        let cache = ForecastCache::new(2, Duration::from_secs(60));
        for s in 0..10u32 {
            cache.put(key(1, s, 1, 5), Arc::new(vec![s as f32]));
            cache.put(key(2, s, 1, 5), Arc::new(vec![s as f32]));
        }
        assert_eq!(cache.len(), 20);
        cache.purge_version(1);
        assert_eq!(cache.len(), 10);
        for s in 0..10u32 {
            assert!(cache.get(&key(1, s, 1, 5)).is_none());
            assert!(cache.get(&key(2, s, 1, 5)).is_some());
        }
    }

    #[test]
    fn purge_window_removes_only_that_window_and_is_idempotent() {
        let cache = ForecastCache::new(4, Duration::from_secs(60));
        for s in 0..10u32 {
            cache.put(key(1, s, 1, 5), Arc::new(vec![s as f32]));
            cache.put(key(2, s, 1, 5), Arc::new(vec![s as f32]));
            cache.put(key(2, s, 1, 6), Arc::new(vec![s as f32]));
        }
        assert_eq!(cache.purge_window(5), 20, "every version's entries on that window");
        assert_eq!(cache.purge_window(5), 0);
        assert_eq!(cache.len(), 10);
        for s in 0..10u32 {
            assert!(cache.get_body(&key(1, s, 1, 5)).is_none());
            assert!(cache.get_body(&key(2, s, 1, 6)).is_some());
        }
    }

    #[test]
    fn an_entry_holds_the_encoded_hit_body_and_expires_with_its_values() {
        let cache = ForecastCache::new(4, Duration::from_millis(30));
        let k = key(7, 3, 2, 0xdead_beef_cafe_f00d);
        let values = vec![0.1f32, -0.0, 1.0e-40];
        assert!(cache.get_body(&k).is_none());
        cache.put(k, Arc::new(values.clone()));
        let body = cache.get_body(&k).expect("just inserted");
        assert_eq!(
            &body[..],
            &proto::forecast_body(3, 2, 7, 0xdead_beef_cafe_f00d, "hit", &values)[..]
        );
        assert_eq!(cache.stats(), (1, 1), "body reads count like value reads");
        std::thread::sleep(Duration::from_millis(40));
        // Resident until a sweep, but refused on read.
        assert!(cache.get_body(&k).is_none(), "expired body must not serve");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn sweep_reaps_expired_entries() {
        let cache = ForecastCache::new(2, Duration::from_millis(20));
        for s in 0..8u32 {
            cache.put(key(1, s, 1, 5), Arc::new(vec![0.0]));
        }
        std::thread::sleep(Duration::from_millis(30));
        cache.sweep();
        assert!(cache.is_empty());
    }

    #[test]
    fn fingerprint_is_bit_exact() {
        let a = fingerprint_f32(&[1.0, 2.0, 3.0]);
        let b = fingerprint_f32(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        assert_ne!(a, fingerprint_f32(&[1.0, 2.0, 3.000001]));
        // 0.0 and -0.0 compare equal as floats but are different bits —
        // the fingerprint must distinguish them (the model may not).
        assert_ne!(fingerprint_f32(&[0.0]), fingerprint_f32(&[-0.0]));
        // Stable constant: locks the hash against accidental change.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn shards_are_safe_under_concurrent_mixed_traffic() {
        let cache = Arc::new(ForecastCache::new(8, Duration::from_secs(60)));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..500u32 {
                        let k = key(1, (t * 500 + i) % 64, 1 + i % 3, i as u64);
                        cache.put(k, Arc::new(vec![t as f32, i as f32]));
                        let got = cache.get(&k).expect("just inserted");
                        assert_eq!(got[0], t as f32);
                    }
                });
            }
        });
        assert!(cache.len() <= 64 * 3 * 500);
    }
}
