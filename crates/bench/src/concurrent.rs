//! Concurrent load generation against the query service.
//!
//! Replays the Figure-15 workload (the full evaluation suite) from N
//! client threads against one shared [`service::Service`], and reports
//! throughput plus a latency distribution. Latencies here are *exact*
//! (every request's duration is kept and sorted), unlike the service's own
//! bucketed histogram — the load generator is the measuring instrument,
//! the histogram is the cheap always-on telemetry.
//!
//! The second entry point, [`cached_vs_uncached`], quantifies what the
//! plan cache buys: the same workload through the same service, with the
//! cache warm versus a cache too small to ever hit (compile every time).
//!
//! The third, [`hot_swap_soak`], is the correctness gauntlet for the
//! catalog's epoch-versioned hot swap: client threads hammer the service
//! while a background thread keeps republishing the default database, and
//! every response is byte-compared against a single-threaded reference for
//! the snapshot the service *says* it ran on (the response's epoch picks
//! the reference). Any failed request or any answer from the wrong
//! snapshot is a defect, not noise.

use baselines::Engine;
use queries::all_queries;
use service::catalog::DEFAULT_DB;
use service::{Service, ServiceConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmldb::Database;

use crate::batch::{client_rng, skewed_pick};

/// One load run's results.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Client threads that generated the load.
    pub threads: usize,
    /// Requests that completed successfully.
    pub ok: u64,
    /// Requests that failed (compile/execute/deadline/rejected).
    pub errors: u64,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
    /// Sorted per-request latencies (successful requests only).
    pub latencies: Vec<Duration>,
}

impl LoadReport {
    /// Successful requests per wall-clock second.
    pub fn qps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ok as f64 / self.elapsed.as_secs_f64()
    }

    /// Exact latency quantile over the successful requests (`q` in `[0,1]`).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let rank = ((self.latencies.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.latencies[rank]
    }

    /// One-line summary: `threads=8 ok=184 err=0 qps=412.3 p50=1.2ms p95=8.0ms max=11.1ms`.
    pub fn summary(&self) -> String {
        format!(
            "threads={} ok={} err={} qps={:.1} p50={:.1?} p95={:.1?} max={:.1?}",
            self.threads,
            self.ok,
            self.errors,
            self.qps(),
            self.quantile(0.50),
            self.quantile(0.95),
            self.latencies.last().copied().unwrap_or(Duration::ZERO),
        )
    }
}

/// Replays the full workload `rounds` times from each of `threads` client
/// threads against `svc`. Requests run one at a time per client (closed
/// loop); the service's worker pool is the concurrency limiter.
pub fn run_load(svc: &Service, threads: usize, rounds: usize) -> LoadReport {
    let texts: Vec<&'static str> = all_queries().iter().map(|q| q.text).collect();
    let errors = AtomicU64::new(0);
    let started = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let texts = &texts;
                let errors = &errors;
                s.spawn(move || {
                    let mut mine = Vec::with_capacity(rounds * texts.len());
                    for round in 0..rounds {
                        // Stagger start positions so the clients don't hit
                        // the same query in lock-step.
                        let offset = (t + round) % texts.len();
                        for i in 0..texts.len() {
                            let q = texts[(offset + i) % texts.len()];
                            let begun = Instant::now();
                            match svc.execute(q) {
                                Ok(_) => mine.push(begun.elapsed()),
                                Err(_) => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    LoadReport {
        threads,
        ok: latencies.len() as u64,
        errors: errors.into_inner(),
        elapsed,
        latencies,
    }
}

/// Cached-vs-uncached comparison on one database, both sides through
/// identical service machinery so plan reuse is the *only* difference:
///
/// * **cached** — a normally-sized plan cache, warmed with one full pass,
///   so every measured request is a cache hit;
/// * **uncached** — a capacity-1 cache cycled by the 23-query workload, so
///   every request misses and recompiles (the compile-every-time life).
///
/// Returns `(cached, uncached)`. The gap this shows is the compile share
/// of the request — large for small databases (lookup-style serving),
/// shrinking as execution grows with the scale factor.
pub fn cached_vs_uncached(
    db: Arc<Database>,
    threads: usize,
    rounds: usize,
) -> (LoadReport, LoadReport) {
    let config = ServiceConfig { workers: threads, queue_depth: threads * 4, ..Default::default() };
    let warm_svc = Service::new(Arc::clone(&db), config.clone());
    let _warm = run_load(&warm_svc, 1, 1); // one pass fills the plan cache
    let cached = run_load(&warm_svc, threads, rounds);
    let cold_svc =
        Service::new(Arc::clone(&db), ServiceConfig { plan_cache_capacity: 1, ..config });
    let uncached = run_load(&cold_svc, threads, rounds);
    (cached, uncached)
}

/// One hot-swap soak run's results.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Client threads that generated the load.
    pub threads: usize,
    /// Snapshot swaps the background thread published during the run.
    pub swaps: u64,
    /// Requests whose answer byte-matched the reference for their epoch.
    pub ok: u64,
    /// Requests that failed outright.
    pub errors: u64,
    /// Requests that answered from the *wrong* snapshot (stale plan or
    /// torn swap) — must be zero for the hot swap to be sound.
    pub stale: u64,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
}

impl SoakReport {
    /// Whether the run saw neither failures nor wrong-snapshot answers.
    pub fn clean(&self) -> bool {
        self.errors == 0 && self.stale == 0
    }

    /// One-line summary:
    /// `threads=4 swaps=17 ok=184 err=0 stale=0 elapsed=1.3s`.
    pub fn summary(&self) -> String {
        format!(
            "threads={} swaps={} ok={} err={} stale={} elapsed={:.1?}",
            self.threads, self.swaps, self.ok, self.errors, self.stale, self.elapsed
        )
    }
}

/// Replays the workload from `threads` clients while a background thread
/// hot-swaps the default database every `swap_every`, alternating between
/// two XMark variants (scale `factor` and `factor * 2`).
///
/// The epoch→variant mapping is fixed by construction: the run starts on
/// variant 0 at epoch 0 and the s-th swap publishes variant `s % 2` at
/// epoch `s`, so epoch parity names the snapshot. Each response's output
/// is compared byte-for-byte against a single-threaded TLC reference for
/// the variant its `db_epoch` selects; a mismatch means a plan compiled
/// against one snapshot was executed against another.
pub fn hot_swap_soak(
    factor: f64,
    threads: usize,
    rounds: usize,
    swap_every: Duration,
) -> SoakReport {
    let config = ServiceConfig { workers: threads, queue_depth: threads * 4, ..Default::default() };
    hot_swap_soak_with(factor, threads, rounds, swap_every, config, None)
}

/// [`hot_swap_soak`] with an explicit service configuration and an optional
/// seeded skewed query mix.
///
/// The configuration knob exists so the soak can run with the match cache
/// engaged (the default [`ServiceConfig`]) *or* in
/// per-request mode — the epoch-parity byte check is the property test that
/// a cached pattern match never survives a snapshot swap. With
/// `mix_seed: Some(seed)` each client replays the reproducible skewed mix
/// of [`crate::batch`] instead of the round-robin sweep, so hot templates
/// are in flight on several clients at once while the snapshot changes
/// under them — the worst case for a stale cache entry.
pub fn hot_swap_soak_with(
    factor: f64,
    threads: usize,
    rounds: usize,
    swap_every: Duration,
    config: ServiceConfig,
    mix_seed: Option<u64>,
) -> SoakReport {
    let variants: [Arc<Database>; 2] =
        [Arc::new(crate::setup(factor)), Arc::new(crate::setup(factor * 2.0))];
    let texts: Vec<&'static str> = all_queries().iter().map(|q| q.text).collect();
    // Per-variant reference answers, computed single-threaded up front.
    let refs: Vec<Vec<String>> = variants
        .iter()
        .map(|db| {
            texts.iter().map(|q| baselines::run(Engine::Tlc, q, db).expect("reference")).collect()
        })
        .collect();
    let svc = Service::new(Arc::clone(&variants[0]), config);
    let stop = AtomicBool::new(false);
    let swaps = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let stale = AtomicU64::new(0);
    let started = Instant::now();
    let ok: u64 = std::thread::scope(|s| {
        let swapper = s.spawn(|| {
            let mut epoch = 0u64;
            while !stop.load(Ordering::Relaxed) {
                epoch += 1;
                let entry = svc
                    .install(DEFAULT_DB, Arc::clone(&variants[(epoch % 2) as usize]))
                    .expect("swap default db");
                // The swapper is the only publisher, so the catalog's epoch
                // must track its counter exactly — this is what makes epoch
                // parity a valid variant witness for the clients.
                assert_eq!(entry.epoch(), epoch, "unexpected concurrent publisher");
                swaps.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(swap_every);
            }
        });
        let clients: Vec<_> = (0..threads)
            .map(|t| {
                let texts = &texts;
                let refs = &refs;
                let svc = &svc;
                let errors = &errors;
                let stale = &stale;
                s.spawn(move || {
                    let mut rng = mix_seed.map(|seed| client_rng(seed, t));
                    let mut mine = 0u64;
                    for round in 0..rounds {
                        let offset = (t + round) % texts.len();
                        for i in 0..texts.len() {
                            // Seeded skewed mix when requested, the
                            // staggered round-robin sweep otherwise.
                            let qi = match &mut rng {
                                Some(rng) => skewed_pick(rng, texts.len()),
                                None => (offset + i) % texts.len(),
                            };
                            match svc.execute(texts[qi]) {
                                Ok(resp) => {
                                    let expect = &refs[(resp.db_epoch % 2) as usize][qi];
                                    if resp.output == *expect {
                                        mine += 1;
                                    } else {
                                        stale.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                Err(_) => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                    mine
                })
            })
            .collect();
        let ok = clients.into_iter().map(|h| h.join().expect("client thread")).sum();
        stop.store(true, Ordering::Relaxed);
        swapper.join().expect("swapper thread");
        ok
    });
    SoakReport {
        threads,
        swaps: swaps.into_inner(),
        ok,
        errors: errors.into_inner(),
        stale: stale.into_inner(),
        elapsed: started.elapsed(),
    }
}

/// The full `BENCH_concurrent.json` document for one cached-vs-uncached
/// comparison (hand-rolled; the workspace carries no serialization
/// dependency).
pub fn comparison_json(
    cached: &LoadReport,
    uncached: &LoadReport,
    factor: f64,
    rounds: usize,
) -> String {
    let speedup = if uncached.qps() > 0.0 { cached.qps() / uncached.qps() } else { 0.0 };
    format!(
        "{{\"experiment\":\"concurrent\",\"factor\":{factor},\"threads\":{},\"rounds\":{rounds},\
         \"cached\":{},\"uncached\":{},\"speedup\":{speedup:.2}}}\n",
        cached.threads,
        crate::rw::load_report_json(cached),
        crate::rw::load_report_json(uncached),
    )
}

/// The full `BENCH_hotswap.json` document for one soak run.
pub fn soak_json(report: &SoakReport, factor: f64, rounds: usize, swap_every: Duration) -> String {
    format!(
        "{{\"experiment\":\"hotswap\",\"factor\":{factor},\"threads\":{},\"rounds\":{rounds},\
         \"swap_ms\":{},\"swaps\":{},\"ok\":{},\"errors\":{},\"stale\":{},\
         \"elapsed_us\":{},\"clean\":{}}}\n",
        report.threads,
        swap_every.as_millis(),
        report.swaps,
        report.ok,
        report.errors,
        report.stale,
        report.elapsed.as_micros(),
        report.clean(),
    )
}

/// Renders the comparison as a small text table.
pub fn render_comparison(cached: &LoadReport, uncached: &LoadReport, factor: f64) -> String {
    let speedup = if uncached.qps() > 0.0 { cached.qps() / uncached.qps() } else { f64::INFINITY };
    format!(
        "Concurrent replay of the evaluation workload, XMark factor {factor}\n\
         cached plans   : {}\n\
         compile always : {}\n\
         throughput gain from the plan cache: {speedup:.2}x\n",
        cached.summary(),
        uncached.summary(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let report = LoadReport {
            threads: 1,
            ok: 4,
            errors: 0,
            elapsed: Duration::from_secs(1),
            latencies: (1..=4).map(Duration::from_millis).collect(),
        };
        assert_eq!(report.quantile(0.0), Duration::from_millis(1));
        assert_eq!(report.quantile(1.0), Duration::from_millis(4));
        assert_eq!(report.qps(), 4.0);
    }

    #[test]
    fn hot_swap_soak_is_clean_on_a_tiny_database() {
        // Swap aggressively (every 5ms) so plenty of requests straddle a
        // publish; factor is tiny to keep the test fast.
        let report = hot_swap_soak(0.0005, 4, 2, Duration::from_millis(5));
        assert!(report.clean(), "soak saw defects: {}", report.summary());
        assert_eq!(report.ok, 4 * 2 * all_queries().len() as u64);
        assert!(report.swaps >= 1, "the swapper never ran");
    }

    #[test]
    fn cached_soak_stays_clean_across_mixes_and_swaps() {
        // The property the epoch-keyed match cache must uphold: with the
        // cache fully engaged, every answer still
        // byte-matches the single-threaded reference for its epoch, across
        // different seeded skewed mixes and concurrent snapshot swaps.
        for seed in [1u64, 97] {
            let config = ServiceConfig { workers: 2, queue_depth: 64, ..Default::default() };
            let report =
                hot_swap_soak_with(0.0005, 4, 2, Duration::from_millis(5), config, Some(seed));
            assert!(report.clean(), "seed {seed} saw defects: {}", report.summary());
            assert_eq!(report.ok, 4 * 2 * all_queries().len() as u64);
            assert!(report.swaps >= 1, "the swapper never ran");
        }
    }

    #[test]
    fn load_run_completes_the_whole_workload() {
        let db = Arc::new(crate::setup(0.001));
        let svc = Service::new(Arc::clone(&db), ServiceConfig::default());
        let report = run_load(&svc, 2, 1);
        let expected = 2 * all_queries().len() as u64;
        assert_eq!(report.ok + report.errors, expected);
        assert_eq!(report.errors, 0, "workload queries must all succeed");
        assert_eq!(report.latencies.len() as u64, report.ok);
    }
}
