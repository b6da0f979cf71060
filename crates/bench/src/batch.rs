//! The `experiments batch` workload: what the epoch-keyed pattern-match
//! cache buys under realistic skewed traffic.
//!
//! Many closed-loop clients replay a **seeded, skewed query mix** — a small
//! hot set of templates receives most of the traffic, the rest of the
//! evaluation workload fills the tail — against two services that differ
//! in one setting:
//!
//! * **cached** — the default configuration, match cache on;
//! * **uncached** — match cache disabled (`match_cache_bytes = 0`); the
//!   plan cache stays on in both, so the cached/uncached delta isolates
//!   match caching, not compilation.
//!
//! The cached side is bracketed by the counting allocator
//! ([`crate::alloc`]), so the report carries its measured heap allocations
//! per request — a deterministic figure `check_qps.sh` gates from above.
//!
//! Every answer from every service is byte-compared against a
//! single-threaded reference computed up front; any mismatch is a
//! correctness defect, not noise. The report carries QPS / exact latency
//! quantiles for every side and the match-cache hit rate. Hot-swap
//! staleness is covered by the companion soak
//! ([`crate::concurrent::hot_swap_soak_with`] with a seeded mix), which
//! runs the same skewed traffic while the snapshot is republished under it.

use crate::concurrent::LoadReport;
use baselines::Engine;
use queries::all_queries;
use service::{Service, ServiceConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xmark::rng::{RngExt, SeedableRng, StdRng};
use xmldb::Database;

/// Percentage of the traffic aimed at the hot set.
const HOT_TRAFFIC_PCT: u32 = 80;

/// Workload indices forming the hot set — x15, x16, x17 and x10a:
/// templates whose cost is dominated by their cacheable Select/Filter
/// spine (deep path chains, the x10a twig) rather than by serialization,
/// so a warm match cache removes most of the request. Fixed, so every run
/// and the CI smoke agree on what "hot" means.
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

/// One cached / uncached comparison.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The default side: match cache on.
    pub cached: LoadReport,
    /// The match cache disabled.
    pub uncached: LoadReport,
    /// Answers (any side) that did not byte-match the single-threaded
    /// reference. Must be zero.
    pub mismatches: u64,
    /// Match-cache hit rate of the cached side, in `[0, 1]`.
    pub hit_rate: f64,
    /// Measured heap allocations per request of the cached side (0.0 when
    /// the counting allocator is not registered in this build).
    pub allocs_per_request: f64,
}

impl BatchReport {
    /// Cached QPS over uncached QPS — what the match cache buys.
    pub fn speedup(&self) -> f64 {
        if self.uncached.qps() > 0.0 {
            self.cached.qps() / self.uncached.qps()
        } else {
            f64::INFINITY
        }
    }

    /// No mismatched answers and no failed requests on any side.
    pub fn clean(&self) -> bool {
        self.mismatches == 0 && self.cached.errors == 0 && self.uncached.errors == 0
    }

    /// The `BENCH_batch.json` document for this comparison (hand-rolled;
    /// the workspace carries no serialization dependency).
    pub fn to_json(&self, factor: f64, clients: usize, requests: usize, seed: u64) -> String {
        format!(
            "{{\"experiment\":\"batch\",\"factor\":{factor},\"clients\":{clients},\
             \"requests\":{requests},\"seed\":{seed},\
             \"cached\":{},\"uncached\":{},\"speedup\":{:.2},\
             \"match_cache_hit_rate\":{:.4},\"allocs_per_request\":{:.1},\
             \"mismatches\":{}}}\n",
            crate::rw::load_report_json(&self.cached),
            crate::rw::load_report_json(&self.uncached),
            self.speedup(),
            self.hit_rate,
            self.allocs_per_request,
            self.mismatches,
        )
    }

    /// The text block `experiments batch` prints.
    pub fn render(&self, factor: f64) -> String {
        format!(
            "Skewed-mix replay ({HOT_TRAFFIC_PCT}% of traffic on {} hot queries), XMark factor {factor}\n\
             cached  : {}\n\
             uncached: {}\n\
             throughput gain from the match cache: {:.2}x\n\
             match cache hit rate: {:.1}%\n\
             heap allocs/request (cached): {:.0}\n\
             byte mismatches vs single-threaded reference: {}\n",
            HOT_SET.len(),
            self.cached.summary(),
            self.uncached.summary(),
            self.speedup(),
            self.hit_rate * 100.0,
            self.allocs_per_request,
            self.mismatches,
        )
    }
}

/// Replays the skewed mix from `clients` closed-loop threads, `requests`
/// requests each, byte-checking every answer against `refs`.
///
/// Before the clock starts, every template is executed once so the timed
/// window measures warm steady state: plan-cache compiles and (where
/// enabled) match-cache cold misses all land in the warmup, not in the
/// comparison.
pub(crate) fn run_mix(
    svc: &Service,
    clients: usize,
    requests: usize,
    seed: u64,
    texts: &[&str],
    refs: &[String],
    mismatches: &AtomicU64,
) -> LoadReport {
    for text in texts {
        let _ = svc.execute(text);
    }
    let errors = AtomicU64::new(0);
    let started = Instant::now();
    let mut latencies: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let errors = &errors;
                s.spawn(move || {
                    let mut rng = client_rng(seed, t);
                    let mut mine = Vec::with_capacity(requests);
                    for _ in 0..requests {
                        let qi = skewed_pick(&mut rng, texts.len());
                        let begun = Instant::now();
                        match svc.execute(texts[qi]) {
                            Ok(resp) => {
                                if resp.output == refs[qi] {
                                    mine.push(begun.elapsed());
                                } else {
                                    mismatches.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
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
        threads: clients,
        ok: latencies.len() as u64,
        errors: errors.into_inner(),
        elapsed,
        latencies,
    }
}

/// Runs [`run_mix`] bracketed by the counting allocator: returns the load
/// report plus measured heap allocations per request (0.0 when counting
/// is not registered in this build). The warmup pass is inside the
/// bracket — it is identical on every side, so comparisons stay fair.
fn counted_mix(
    svc: &Service,
    clients: usize,
    requests: usize,
    seed: u64,
    texts: &[&str],
    refs: &[String],
    mismatches: &AtomicU64,
) -> (LoadReport, f64) {
    let before = crate::alloc::allocations();
    let report = run_mix(svc, clients, requests, seed, texts, refs, mismatches);
    let after = crate::alloc::allocations();
    let total = (clients * requests).max(1) as f64;
    let per_request = if after > before { (after - before) as f64 / total } else { 0.0 };
    (report, per_request)
}

/// The `experiments batch` experiment: identical skewed traffic through
/// the cached and uncached configurations, against the same
/// database, every answer byte-checked. Workers are kept below the client
/// count so requests queue, as they do under load.
pub fn cached_vs_uncached(factor: f64, clients: usize, requests: usize, seed: u64) -> BatchReport {
    let db = Arc::new(crate::setup(factor));
    cached_vs_uncached_on(db, clients, requests, seed)
}

/// [`cached_vs_uncached`] over an already-built database.
pub fn cached_vs_uncached_on(
    db: Arc<Database>,
    clients: usize,
    requests: usize,
    seed: u64,
) -> BatchReport {
    let texts: Vec<&'static str> = all_queries().iter().map(|q| q.text).collect();
    let refs: Vec<String> = texts
        .iter()
        .map(|q| baselines::run(Engine::Tlc, q, &db).expect("single-threaded reference"))
        .collect();
    let workers = (clients / 2).clamp(1, 4);
    let cached_cfg =
        ServiceConfig { workers, queue_depth: clients.max(4) * 4, ..ServiceConfig::default() };
    let uncached_cfg = ServiceConfig { match_cache_bytes: 0, ..cached_cfg.clone() };
    let mismatches = AtomicU64::new(0);

    let cached_svc = Service::new(Arc::clone(&db), cached_cfg);
    let (cached, allocs_per_request) =
        counted_mix(&cached_svc, clients, requests, seed, &texts, &refs, &mismatches);
    let cache = cached_svc.match_cache_stats().expect("match cache enabled");
    let lookups = cache.hits + cache.misses;
    let hit_rate = if lookups == 0 { 0.0 } else { cache.hits as f64 / lookups as f64 };

    let uncached_svc = Service::new(db, uncached_cfg);
    let uncached = run_mix(&uncached_svc, clients, requests, seed, &texts, &refs, &mismatches);

    BatchReport {
        cached,
        uncached,
        mismatches: mismatches.into_inner(),
        hit_rate,
        allocs_per_request,
    }
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
    fn batch_experiment_is_clean_and_hits_the_match_cache() {
        let report = cached_vs_uncached(0.0005, 4, 30, 7);
        assert!(report.clean(), "defects: {}", report.render(0.0005));
        assert_eq!(report.cached.ok + report.uncached.ok, 2 * 4 * 30);
        assert!(report.hit_rate > 0.0, "hot set never hit the match cache");
        assert!(report.allocs_per_request > 0.0, "counting allocator not active");
        let rendered = report.render(0.0005);
        assert!(rendered.contains("match cache hit rate"), "{rendered}");
        assert!(rendered.contains("heap allocs/request"), "{rendered}");
        let json = report.to_json(0.0005, 4, 30, 7);
        assert!(json.contains("\"uncached\":"), "{json}");
        assert!(json.contains("\"allocs_per_request\":"), "{json}");
    }
}
