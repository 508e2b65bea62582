//! Engine sessions: a keyed LRU cache of prepared [`Deconvolver`] engines.
//!
//! Building a [`Deconvolver`] is the expensive half of a fit — design
//! matrix assembly, the constraint rows, the banded penalty factor and
//! the unit-weight eigenbasis of the λ scan all happen once per
//! (kernel, config) *family*, after which each series costs only its
//! scan and solve. A long-running
//! service therefore wants to build each family once and share the
//! engine across requests. [`EngineCache`] does exactly that: a
//! bounded, thread-safe, least-recently-used map from canonical
//! [`EngineKey`]s to `Arc<Deconvolver>`.
//!
//! ## Key canonicalization
//!
//! An [`EngineKey`] is derived from everything that determines the
//! prepared engine: the full [`DeconvolutionConfig`] (basis size,
//! constraint toggles, positivity grid, λ-selection strategy) and the
//! full kernel contents (φ centers, bin width, times, and the
//! `Q(φ, t)` matrix entry by entry). Floats are keyed by IEEE-754 bit
//! pattern with two normalizations so that semantically equal values
//! collide: `-0.0` keys as `+0.0`, and every NaN keys as the canonical
//! quiet NaN. Two kernels estimated from different populations never
//! share a key (their `Q` entries differ), while a re-decoded copy of
//! the same kernel always does — exactly the behavior a wire-facing
//! cache needs. The 64-bit FNV-1a hash over the canonical words is
//! precomputed once; equality compares the words themselves, so hash
//! collisions cannot alias two families.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cellsync_popsim::PhaseKernel;

use crate::config::LambdaSelection;
use crate::{DeconvolutionConfig, Deconvolver, Result};

/// Canonical identity of a prepared engine family: one
/// (kernel, [`DeconvolutionConfig`]) pair, hashable and cheap to clone
/// (the canonical words live behind an `Arc`).
#[derive(Clone)]
pub struct EngineKey {
    hash: u64,
    words: Arc<[u64]>,
}

/// Canonical bit pattern of a float for keying: `-0.0` keys as `+0.0`
/// and all NaNs key as one canonical NaN, so semantically equal configs
/// and kernels collide.
fn canon_bits(v: f64) -> u64 {
    if v == 0.0 {
        0.0f64.to_bits()
    } else if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// 64-bit FNV-1a over the canonical words.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for shift in (0..64).step_by(8) {
            h ^= (w >> shift) & 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl EngineKey {
    /// Derives the canonical key of a (kernel, config) family.
    pub fn new(kernel: &PhaseKernel, config: &DeconvolutionConfig) -> Self {
        let q = kernel.q();
        let mut words = Vec::with_capacity(
            16 + kernel.phi_centers().len() + kernel.times().len() + q.as_slice().len(),
        );

        // Config words. Discriminant tags keep differently-shaped
        // selections from ever aliasing on identical parameter words.
        words.push(config.basis_size() as u64);
        words.push(u64::from(config.positivity()));
        words.push(u64::from(config.conservation()));
        words.push(u64::from(config.rate_continuity()));
        match config.lambda() {
            LambdaSelection::Fixed(l) => {
                words.push(0);
                words.push(canon_bits(*l));
            }
            LambdaSelection::Gcv {
                log10_min,
                log10_max,
                points,
            } => {
                words.push(1);
                words.push(canon_bits(*log10_min));
                words.push(canon_bits(*log10_max));
                words.push(*points as u64);
            }
            LambdaSelection::KFold {
                folds,
                log10_min,
                log10_max,
                points,
                seed,
            } => {
                words.push(2);
                words.push(*folds as u64);
                words.push(canon_bits(*log10_min));
                words.push(canon_bits(*log10_max));
                words.push(*points as u64);
                words.push(*seed);
            }
        }

        // Kernel words. Lengths precede the payloads so concatenated
        // sections cannot alias across boundaries.
        words.push(kernel.phi_centers().len() as u64);
        words.extend(kernel.phi_centers().iter().copied().map(canon_bits));
        words.push(canon_bits(kernel.bin_width()));
        words.push(kernel.times().len() as u64);
        words.extend(kernel.times().iter().copied().map(canon_bits));
        words.push(q.rows() as u64);
        words.push(q.cols() as u64);
        words.extend(q.as_slice().iter().copied().map(canon_bits));

        let hash = fnv1a(&words);
        EngineKey {
            hash,
            words: words.into(),
        }
    }

    /// The precomputed FNV-1a hash of the canonical words.
    pub fn hash_value(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for EngineKey {
    fn eq(&self, other: &Self) -> bool {
        // Hash first (cheap reject), then the full canonical words, so a
        // hash collision can never alias two engine families.
        self.hash == other.hash && self.words == other.words
    }
}

impl Eq for EngineKey {}

impl Hash for EngineKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl std::fmt::Debug for EngineKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EngineKey({:016x})", self.hash)
    }
}

/// A point-in-time snapshot of [`EngineCache`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a prepared engine.
    pub hits: u64,
    /// Lookups that had to build (both racers of a build race count).
    pub misses: u64,
    /// Engines dropped off the cold end of the LRU list.
    pub evictions: u64,
    /// Engines currently cached.
    pub entries: usize,
    /// Maximum number of cached engines.
    pub capacity: usize,
}

/// A bounded, thread-safe LRU cache of prepared [`Deconvolver`] engines.
///
/// Lookups and insertions serialize on one mutex, but engine *builds*
/// run outside it: a miss releases the lock, builds, then re-checks on
/// insert. If two threads race to build the same key, the loser
/// discards its engine and adopts the winner's, so every caller holding
/// a given key sees the **same** `Arc` (pointer equality) — the
/// guarantee that makes warm-cache fits bit-identical to each other.
pub struct EngineCache {
    capacity: usize,
    /// Front = most recently used.
    entries: Mutex<Vec<(EngineKey, Arc<Deconvolver>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl EngineCache {
    /// Creates a cache holding at most `capacity` engines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "EngineCache capacity must be positive");
        EngineCache {
            capacity,
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the cached engine for `key`, building and inserting it
    /// via `build` on a miss. The returned `Arc` is shared: repeated
    /// calls with equal keys return pointers to the same engine until
    /// it is evicted.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error; nothing is inserted on failure.
    pub fn get_or_build(
        &self,
        key: &EngineKey,
        build: impl FnOnce() -> Result<Deconvolver>,
    ) -> Result<Arc<Deconvolver>> {
        if let Some(engine) = self.lookup(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(engine);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build()?);

        let mut entries = self.entries.lock().expect("engine cache poisoned");
        // Re-check under the lock: a concurrent builder may have landed
        // first. Adopt its engine so same-key callers share one Arc.
        if let Some(pos) = entries.iter().position(|(k, _)| k == key) {
            let entry = entries.remove(pos);
            let engine = Arc::clone(&entry.1);
            entries.insert(0, entry);
            return Ok(engine);
        }
        entries.insert(0, (key.clone(), Arc::clone(&built)));
        if entries.len() > self.capacity {
            entries.pop();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(built)
    }

    /// Returns the cached engine for `key` (marking it most recently
    /// used) without counting a hit or building on a miss.
    fn lookup(&self, key: &EngineKey) -> Option<Arc<Deconvolver>> {
        let mut entries = self.entries.lock().expect("engine cache poisoned");
        let pos = entries.iter().position(|(k, _)| k == key)?;
        let entry = entries.remove(pos);
        let engine = Arc::clone(&entry.1);
        entries.insert(0, entry);
        Some(engine)
    }

    /// Whether `key` is currently cached (does not touch LRU order or
    /// counters).
    pub fn contains(&self, key: &EngineKey) -> bool {
        self.entries
            .lock()
            .expect("engine cache poisoned")
            .iter()
            .any(|(k, _)| k == key)
    }

    /// Number of engines currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("engine cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The maximum number of cached engines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshots the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
        }
    }
}

impl std::fmt::Debug for EngineCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FitRequest, ForwardModel, PhaseProfile};
    use cellsync_popsim::{CellCycleParams, InitialCondition, KernelEstimator, Population};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn kernel(seed: u64, n_times: usize) -> PhaseKernel {
        let params = CellCycleParams::caulobacter().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let pop =
            Population::synchronized(400, &params, InitialCondition::UniformSwarmer, &mut rng)
                .unwrap()
                .simulate_until(150.0)
                .unwrap();
        let times: Vec<f64> = (0..n_times)
            .map(|i| 150.0 * i as f64 / (n_times - 1) as f64)
            .collect();
        KernelEstimator::new(32)
            .unwrap()
            .estimate(&pop, &times)
            .unwrap()
    }

    fn config(basis: usize) -> DeconvolutionConfig {
        DeconvolutionConfig::builder()
            .basis_size(basis)
            .lambda(1e-5)
            .build()
            .unwrap()
    }

    #[test]
    fn equal_inputs_give_equal_keys() {
        let k = kernel(1, 8);
        let a = EngineKey::new(&k, &config(8));
        let b = EngineKey::new(&k.clone(), &config(8));
        assert_eq!(a, b);
        assert_eq!(a.hash_value(), b.hash_value());
    }

    #[test]
    fn differing_config_or_kernel_changes_key() {
        let k = kernel(1, 8);
        let base = EngineKey::new(&k, &config(8));
        assert_ne!(base, EngineKey::new(&k, &config(10)));
        let other_cfg = DeconvolutionConfig::builder()
            .basis_size(8)
            .lambda(1e-4)
            .build()
            .unwrap();
        assert_ne!(base, EngineKey::new(&k, &other_cfg));
        let positivity_off = DeconvolutionConfig::builder()
            .basis_size(8)
            .positivity(false)
            .lambda(1e-5)
            .build()
            .unwrap();
        assert_ne!(base, EngineKey::new(&k, &positivity_off));
        assert_ne!(base, EngineKey::new(&kernel(2, 8), &config(8)));
    }

    #[test]
    fn negative_zero_keys_as_positive_zero() {
        let k = kernel(1, 8);
        let a = EngineKey::new(&k, &config(8));
        let neg_zero_lambda = DeconvolutionConfig::builder()
            .basis_size(8)
            .lambda(-0.0)
            .build()
            .unwrap();
        let zero_lambda = DeconvolutionConfig::builder()
            .basis_size(8)
            .lambda(0.0)
            .build()
            .unwrap();
        assert_eq!(
            EngineKey::new(&k, &neg_zero_lambda),
            EngineKey::new(&k, &zero_lambda)
        );
        // And the 1e-5 λ differs from both.
        assert_ne!(a, EngineKey::new(&k, &zero_lambda));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let k1 = kernel(1, 8);
        let k2 = kernel(2, 8);
        let k3 = kernel(3, 8);
        let cfg = config(8);
        let key1 = EngineKey::new(&k1, &cfg);
        let key2 = EngineKey::new(&k2, &cfg);
        let key3 = EngineKey::new(&k3, &cfg);

        let cache = EngineCache::new(2);
        cache
            .get_or_build(&key1, || Deconvolver::new(k1.clone(), cfg.clone()))
            .unwrap();
        cache
            .get_or_build(&key2, || Deconvolver::new(k2.clone(), cfg.clone()))
            .unwrap();
        // Touch key1 so key2 becomes the LRU entry.
        cache
            .get_or_build(&key1, || panic!("key1 must be cached"))
            .unwrap();
        // Inserting key3 must evict key2, not key1.
        cache
            .get_or_build(&key3, || Deconvolver::new(k3.clone(), cfg.clone()))
            .unwrap();
        assert!(cache.contains(&key1));
        assert!(!cache.contains(&key2));
        assert!(cache.contains(&key3));

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.capacity, 2);
    }

    #[test]
    fn same_key_hit_returns_identical_arc() {
        let k = kernel(1, 8);
        let cfg = config(8);
        let key = EngineKey::new(&k, &cfg);
        let cache = EngineCache::new(4);
        let first = cache
            .get_or_build(&key, || Deconvolver::new(k.clone(), cfg.clone()))
            .unwrap();
        let second = cache
            .get_or_build(&key, || panic!("must not rebuild on a hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn failed_build_inserts_nothing() {
        let k = kernel(1, 8);
        let key = EngineKey::new(&k, &config(8));
        let cache = EngineCache::new(2);
        let err = cache.get_or_build(&key, || {
            Err(crate::DeconvError::InvalidConfig("synthetic failure"))
        });
        assert!(err.is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn concurrent_same_key_access_shares_one_engine() {
        let k = kernel(1, 8);
        let cfg = config(8);
        let key = EngineKey::new(&k, &cfg);
        let cache = EngineCache::new(2);
        let engines: Vec<Arc<Deconvolver>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (cache, key, k, cfg) = (&cache, &key, &k, &cfg);
                    scope.spawn(move || {
                        cache
                            .get_or_build(key, || Deconvolver::new(k.clone(), cfg.clone()))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Whoever won the build race, every thread must end up holding
        // the same engine.
        for e in &engines[1..] {
            assert!(Arc::ptr_eq(&engines[0], e));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits + stats.misses, 8);
        assert!(stats.misses >= 1);
    }

    #[test]
    fn cached_engine_fit_is_bit_identical_to_cold_engine() {
        let k = kernel(1, 10);
        let cfg = DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda_selection(crate::LambdaSelection::Gcv {
                log10_min: -6.0,
                log10_max: 0.0,
                points: 9,
            })
            .build()
            .unwrap();
        let truth =
            PhaseProfile::from_fn(100, |phi| 1.5 + (2.0 * std::f64::consts::PI * phi).sin())
                .unwrap();
        let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        let request = FitRequest::new(g.clone());

        let cold = Deconvolver::new(k.clone(), cfg.clone())
            .unwrap()
            .fit_request(&request)
            .unwrap();

        let cache = EngineCache::new(2);
        let key = EngineKey::new(&k, &cfg);
        let engine = cache
            .get_or_build(&key, || Deconvolver::new(k.clone(), cfg.clone()))
            .unwrap();
        // Fit twice through the cache: the warm fit reuses the engine the
        // first fit used and must reproduce the cold fit bit for bit.
        for _ in 0..2 {
            let warm = cache
                .get_or_build(&key, || panic!("cached"))
                .unwrap()
                .fit_request(&request)
                .unwrap();
            assert_eq!(warm.result().alpha(), cold.result().alpha());
            assert_eq!(warm.result().lambda(), cold.result().lambda());
            assert_eq!(warm.result().predicted(), cold.result().predicted());
        }
        drop(engine);
    }
}
