//! Per-endpoint serving counters: request/error totals and a lock-free
//! log-linear latency histogram from which p50/p99 are read.
//!
//! The histogram trades resolution for zero contention: every
//! power-of-two octave of microseconds is split into 8 linear
//! sub-buckets, each an `AtomicU64`, so the record path on the hot
//! serving threads is two relaxed atomic increments. Reported percentiles
//! are the upper bound of the bucket containing the percentile rank — at
//! worst a 12.5 % overestimate, which is the right direction to err for a
//! latency SLO.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cellsync_wire::{EndpointStatsWire, StatsWire};

use crate::batch::BatchCounters;
use cellsync::session::CacheStats;

/// Linear sub-buckets per octave (a power of two).
const SUB_BUCKETS: usize = 8;
/// `log₂ SUB_BUCKETS`.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Values below `SUB_BUCKETS` get one bucket each; every octave above
/// (`2^o ≤ v < 2^(o+1)` for `o` from `SUB_BITS` to 63) gets
/// `SUB_BUCKETS`.
const BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

/// Lock-free log-linear histogram of microsecond latencies.
#[derive(Debug)]
pub struct LatencyHistogram {
    /// `buckets[b]` counts samples with `bucket(us) == b`.
    buckets: [AtomicU64; BUCKETS],
}

/// The bucket of `us`: its own below `SUB_BUCKETS`; else its octave `o`
/// and the `SUB_BITS` bits after its leading one.
fn bucket(us: u64) -> usize {
    if us < SUB_BUCKETS as u64 {
        return us as usize;
    }
    let octave = u64::BITS - 1 - us.leading_zeros();
    let sub = (us >> (octave - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
    SUB_BUCKETS * (octave - SUB_BITS + 1) as usize + sub
}

/// Upper bound (inclusive) of a bucket, the value percentiles report.
fn bucket_upper(b: usize) -> u64 {
    if b < SUB_BUCKETS {
        return b as u64;
    }
    let lead = (SUB_BUCKETS + b % SUB_BUCKETS + 1) as u128;
    u64::try_from((lead << (b / SUB_BUCKETS - 1)) - 1).unwrap_or(u64::MAX)
}

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, us: u64) {
        self.buckets[bucket(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// The value at percentile `p ∈ (0, 1]`: the upper bound of the
    /// bucket containing the `⌈p·total⌉`-th smallest sample (0 when no
    /// samples were recorded).
    pub fn percentile(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (b, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= target {
                return bucket_upper(b);
            }
        }
        bucket_upper(BUCKETS - 1)
    }
}

/// Counters for one endpoint.
#[derive(Debug)]
pub struct EndpointStats {
    name: &'static str,
    requests: AtomicU64,
    errors: AtomicU64,
    latency: LatencyHistogram,
}

impl EndpointStats {
    fn new(name: &'static str) -> Self {
        EndpointStats {
            name,
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }

    /// Records one served request (`is_error` = the response carried an
    /// error payload).
    pub fn record(&self, elapsed: Duration, is_error: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if is_error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.latency.record(us);
    }

    fn snapshot(&self) -> EndpointStatsWire {
        EndpointStatsWire {
            name: self.name.to_string(),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            p50_us: self.latency.percentile(0.50),
            p99_us: self.latency.percentile(0.99),
        }
    }
}

/// Point-in-time load gauges the server reads at snapshot time (they
/// live on the server's admission path, not in these counters).
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadGauges {
    /// Requests currently admitted and not yet answered.
    pub inflight: u64,
    /// Jobs currently in the batch queue.
    pub queue_depth: u64,
    /// The batch queue's capacity bound.
    pub queue_capacity: u64,
}

/// All serving counters: one [`EndpointStats`] per endpoint plus the
/// server start time for uptime and the resilience counters the
/// admission/deadline paths bump.
#[derive(Debug)]
pub struct ServerStats {
    start: Instant,
    /// `POST /fit` counters.
    pub fit: EndpointStats,
    /// `GET /stats` counters.
    pub stats: EndpointStats,
    /// `GET /healthz` counters.
    pub healthz: EndpointStats,
    /// Everything else (unknown routes, bad methods, parse failures).
    pub other: EndpointStats,
    /// Requests shed at admission (in-flight limit reached). The
    /// `/stats` `shed` field is this plus the batch queue's own sheds.
    pub shed: AtomicU64,
    /// Fits that resolved `deadline_exceeded` (partial work accounted:
    /// the budget was spent in λ-grid points / replicates / QP
    /// iterations before the token fired).
    pub deadline_exceeded: AtomicU64,
}

impl ServerStats {
    /// Fresh counters with uptime starting now.
    pub fn new() -> Self {
        ServerStats {
            start: Instant::now(),
            fit: EndpointStats::new("fit"),
            stats: EndpointStats::new("stats"),
            healthz: EndpointStats::new("healthz"),
            other: EndpointStats::new("other"),
            shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
        }
    }

    /// Assembles the `/stats` payload from the endpoint counters plus
    /// the engine-cache, batch-queue, and load-gauge readings.
    pub fn snapshot(&self, cache: CacheStats, batch: BatchCounters, load: LoadGauges) -> StatsWire {
        StatsWire {
            uptime_ms: u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX),
            endpoints: vec![
                self.fit.snapshot(),
                self.stats.snapshot(),
                self.healthz.snapshot(),
                self.other.snapshot(),
            ],
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries as u64,
            cache_capacity: cache.capacity as u64,
            batches: batch.batches,
            batched_requests: batch.batched_requests,
            max_batch: batch.max_batch,
            shed: self.shed.load(Ordering::Relaxed) + batch.shed,
            inflight: load.inflight,
            queue_depth: load.queue_depth,
            queue_capacity: load.queue_capacity,
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            expired_in_queue: batch.expired_in_queue,
            panics_caught: batch.panics_caught,
        }
    }
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn percentiles_bound_the_samples() {
        let h = LatencyHistogram::new();
        // 99 fast samples and one slow outlier.
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        let p100 = h.percentile(1.0);
        // p50/p99 live in the fast bucket (upper bound 127), the max in
        // the outlier's bucket.
        assert!((100..200).contains(&p50), "p50 = {p50}");
        assert_eq!(p99, p50);
        assert!(p100 >= 1_000_000, "p100 = {p100}");
        assert!(p100 < 2_100_000, "p100 = {p100}");
    }

    #[test]
    fn percentiles_resolve_within_an_eighth_of_an_octave() {
        // A log₂ histogram reports 8 191 µs for samples at 4 200 µs; the
        // sub-buckets bound the overestimate at 12.5 %.
        let h = LatencyHistogram::new();
        for _ in 0..1_000 {
            h.record(4_200);
        }
        let p50 = h.percentile(0.50);
        assert!((4_200..=4_725).contains(&p50), "p50 = {p50}");
        // Every bucket's upper bound holds its samples and overestimates
        // them by at most 12.5 %.
        for us in [
            1,
            7,
            8,
            9,
            15,
            16,
            100,
            1_023,
            1_024,
            4_200,
            1 << 40,
            u64::MAX,
        ] {
            let upper = bucket_upper(bucket(us));
            assert!(upper >= us, "{us}: upper {upper}");
            assert!(upper as f64 <= us as f64 * 1.125, "{us}: upper {upper}");
        }
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        let h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn endpoint_counts_errors_separately() {
        let e = EndpointStats::new("fit");
        e.record(Duration::from_micros(10), false);
        e.record(Duration::from_micros(20), true);
        let snap = e.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.errors, 1);
        assert!(snap.p50_us >= 10);
    }

    #[test]
    fn snapshot_merges_resilience_counters() {
        let stats = ServerStats::new();
        stats.shed.fetch_add(2, Ordering::Relaxed);
        stats.deadline_exceeded.fetch_add(3, Ordering::Relaxed);
        let batch = BatchCounters {
            shed: 5,
            expired_in_queue: 1,
            panics_caught: 4,
            ..BatchCounters::default()
        };
        let load = LoadGauges {
            inflight: 7,
            queue_depth: 9,
            queue_capacity: 64,
        };
        let wire = stats.snapshot(CacheStats::default(), batch, load);
        // Admission sheds and queue sheds merge into one wire counter.
        assert_eq!(wire.shed, 7);
        assert_eq!(wire.inflight, 7);
        assert_eq!(wire.queue_depth, 9);
        assert_eq!(wire.queue_capacity, 64);
        assert_eq!(wire.deadline_exceeded, 3);
        assert_eq!(wire.expired_in_queue, 1);
        assert_eq!(wire.panics_caught, 4);
    }
}
