//! The hot-swap soak: correctness of the catalog's epoch-versioned
//! snapshot swap under concurrent load.
//!
//! [`hot_swap_soak`] is the gauntlet: client threads hammer one shared
//! [`service::Service`] while a background thread keeps republishing the
//! default database, and every response is byte-compared against a
//! single-threaded reference for the snapshot the service *says* it ran on
//! (the response's epoch picks the reference). Any failed request or any
//! answer from the wrong snapshot is a defect, not noise.
//! [`hot_swap_soak_with`] runs the same soak with an explicit service
//! configuration and, optionally, a seeded skewed query mix
//! ([`skewed_pick`]) in place of the round-robin sweep.
//!
//! This module measures no throughput or latency: the serving benchmark
//! is `perfbench` (see `BENCHMARK.json`), whose `hot_mix` workload replays
//! the same skewed mix end to end over the wire.

use baselines::Engine;
use queries::all_queries;
use service::catalog::DEFAULT_DB;
use service::{Service, ServiceConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmark::rng::{RngExt, SeedableRng, StdRng};
use xmldb::Database;

/// Percentage of the skewed mix's traffic aimed at the hot set.
const HOT_TRAFFIC_PCT: u32 = 80;

/// Workload indices forming the hot set — x15, x16, x17 and x10a:
/// templates whose cost is dominated by their cacheable Select/Filter
/// spine (deep path chains, the x10a twig) rather than by serialization,
/// so a warm match cache removes most of the request. Fixed, so every run
/// agrees on what "hot" means (`perfbench`'s `hot_mix` uses the same set).
const HOT_SET: [usize; 4] = [14, 15, 16, 22];

/// Draws the next query index of the skewed mix: `HOT_TRAFFIC_PCT`% of
/// draws pick uniformly from `HOT_SET`, the rest uniformly from the whole
/// workload. Falls back to uniform when the workload is smaller than the
/// hot set assumes.
pub fn skewed_pick(rng: &mut StdRng, n: usize) -> usize {
    let max_hot = HOT_SET.iter().copied().max().expect("hot set non-empty");
    if n > max_hot && rng.random_range(0..100u32) < HOT_TRAFFIC_PCT {
        HOT_SET[rng.random_range(0..HOT_SET.len())]
    } else {
        rng.random_range(0..n)
    }
}

/// Per-client RNG: one base seed, decorrelated per client with a splitmix
/// increment so runs are reproducible but clients do not march in step.
pub fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
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
/// of [`skewed_pick`] instead of the round-robin sweep, so hot templates
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_pick_is_skewed_and_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = all_queries().len();
        let mut hot = 0u32;
        for _ in 0..2_000 {
            let qi = skewed_pick(&mut rng, n);
            assert!(qi < n);
            if HOT_SET.contains(&qi) {
                hot += 1;
            }
        }
        // 80% targeted + a sliver of uniform tail landing in the hot set.
        assert!((1_400..1_900).contains(&hot), "hot draws: {hot}");
        // Tiny workloads fall back to uniform without panicking.
        for _ in 0..100 {
            assert!(skewed_pick(&mut rng, 3) < 3);
        }
    }

    #[test]
    fn client_rngs_are_reproducible_and_decorrelated() {
        let a: Vec<u64> = (0..8).map(|_| client_rng(42, 0).next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| client_rng(42, 0).next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(client_rng(42, 0).next_u64(), client_rng(42, 1).next_u64());
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
}
