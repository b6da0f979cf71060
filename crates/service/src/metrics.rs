//! The service's metrics registry.
//!
//! Aggregates three things across every request the service handles:
//!
//! * **latency** — a fixed-bucket log₂ histogram of per-request wall-clock
//!   times, from which count / mean / p50 / p95 / max are derived. Buckets
//!   are powers of two in microseconds (1 µs … ~64 s), so recording is two
//!   integer ops and the registry never allocates on the hot path;
//! * **plan cache** traffic — hits, misses, evictions (mirrored out of the
//!   cache so one report covers everything);
//! * **executor work** — the rolled-up [`ExecStats`] counters (index probes,
//!   nodes inspected, pattern matches, …) summed over all executions.
//!
//! Everything lives behind one `Mutex`; recording takes it for nanoseconds.
//! The per-query breakdown is capped so a hostile workload cannot grow the
//! registry without bound — overflow queries aggregate under `(other)`.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;
use tlc::ExecStats;

/// Number of log₂ buckets: bucket `i` covers `[2^i, 2^(i+1))` microseconds.
const BUCKETS: usize = 27; // 2^26 µs ≈ 67 s in the top finite bucket

/// Cap on distinct per-query entries; the rest fold into `(other)`.
const MAX_QUERY_ENTRIES: usize = 256;

/// Fixed-bucket latency histogram with exact count / sum / max.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_micros: u64,
    max_micros: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum_micros: 0, max_micros: 0 }
    }
}

impl Histogram {
    /// Records one latency observation.
    pub fn record(&mut self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - micros.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_micros = self.sum_micros.saturating_add(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, or zero when empty.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.sum_micros / self.count)
    }

    /// Largest observation.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_micros)
    }

    /// Latency at quantile `q` (e.g. `0.5`, `0.95`), upper bucket bound —
    /// the histogram answers "no more than" with one-bucket resolution.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                // Upper bound of bucket i, clamped by the true max.
                let upper = 1u64 << (i + 1).min(63);
                return Duration::from_micros(upper.min(self.max_micros.max(1)));
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn absorb(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_micros = self.sum_micros.saturating_add(other.sum_micros);
        self.max_micros = self.max_micros.max(other.max_micros);
    }
}

/// What happened to a request, for the outcome counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Executed and produced a result.
    Ok,
    /// Aborted on its wall-clock deadline.
    Deadline,
    /// Rejected at admission (queue full).
    Rejected,
    /// Compilation or execution error.
    Error,
    /// Admitted, but the caller stopped waiting for the reply (its
    /// client-side wait deadline expired); the job still ran or will run
    /// on a worker, its result discarded.
    Abandoned,
    /// The work panicked on its worker; the panic was contained there and
    /// the request answered with an internal error.
    Panicked,
}

/// Per-database counters: plan-cache traffic split by catalog name, plus
/// the hot-swap activity (`swaps`, and how many cached plans each swap
/// invalidated). Keyed by database name in [`Snapshot::per_db`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbCounters {
    /// Plan-cache hits for this database.
    pub hits: u64,
    /// Plan-cache misses for this database.
    pub misses: u64,
    /// Snapshot hot swaps published for this database.
    pub swaps: u64,
    /// Cached plans invalidated by those swaps (superseded epochs purged).
    pub invalidated: u64,
    /// In-place updates committed against this database.
    pub updates: u64,
    /// Cached plans carried (re-seeded) into post-update epochs because
    /// their footprint was provably disjoint from the mutation.
    pub plans_seeded: u64,
    /// Match-cache entries carried into post-update epochs.
    pub matches_seeded: u64,
    /// Of [`DbCounters::matches_seeded`], the entries only the *per-chain*
    /// precise footprints could prove safe — the whole-plan conservative
    /// footprint would have dropped them.
    pub matches_extra: u64,
    /// Compiled plans the liveness analysis rewrote (dead classes pruned)
    /// before caching.
    pub plans_pruned: u64,
    /// Operators (redundant DupElims, emptied Selects) the pruning pass
    /// removed outright across those plans.
    pub ops_eliminated: u64,
    /// Lint warnings raised while compiling plans for this database.
    pub lints: u64,
    /// Store records commits copied because an older epoch shared their
    /// arena chunk ([`xmldb::UpdateSummary::records_copied`]).
    pub records_copied: u64,
    /// Cached plans whose carry set a commit had to compute; each plan's
    /// set is computed once and reused by every later commit.
    pub carry_sets_computed: u64,
}

#[derive(Debug, Default)]
struct QueryEntry {
    latency: Histogram,
    exec: ExecStats,
}

#[derive(Debug, Default)]
struct Inner {
    latency: Histogram,
    queue_wait: Histogram,
    per_query: HashMap<Box<str>, QueryEntry>,
    per_db: HashMap<Box<str>, DbCounters>,
    exec: ExecStats,
    ok: u64,
    deadline: u64,
    rejected: u64,
    errored: u64,
    abandoned: u64,
    panicked: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    commit: Histogram,
}

/// Thread-safe metrics registry; one per [`crate::Service`].
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

impl Metrics {
    /// Fresh, zeroed registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one served request: its end-to-end latency, the executor
    /// counters it accumulated, and which query it was (`label` is the
    /// normalized query text).
    pub fn record_request(&self, label: &str, latency: Duration, stats: &ExecStats) {
        let mut m = self.inner.lock().unwrap();
        m.latency.record(latency);
        m.exec.absorb(stats);
        m.ok += 1;
        let entry = if m.per_query.len() >= MAX_QUERY_ENTRIES && !m.per_query.contains_key(label) {
            m.per_query.entry("(other)".into()).or_default()
        } else {
            m.per_query.entry(label.into()).or_default()
        };
        entry.latency.record(latency);
        entry.exec.absorb(stats);
    }

    /// Records a non-success outcome.
    pub fn record_outcome(&self, outcome: Outcome) {
        let mut m = self.inner.lock().unwrap();
        match outcome {
            Outcome::Ok => m.ok += 1,
            Outcome::Deadline => m.deadline += 1,
            Outcome::Rejected => m.rejected += 1,
            Outcome::Error => m.errored += 1,
            Outcome::Abandoned => m.abandoned += 1,
            Outcome::Panicked => m.panicked += 1,
        }
    }

    /// Records one request's submit→dequeue wait in the worker queue. Kept
    /// separate from [`Metrics::record_request`] because queue time is also
    /// measured for requests that never execute (deadline-expired in queue,
    /// failed execution) — queue pressure must count every admitted request.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.inner.lock().unwrap().queue_wait.record(wait);
    }

    /// Records plan-cache traffic for one lookup against database `db`
    /// (`evictions` is the delta, not a total).
    pub fn record_cache(&self, db: &str, hit: bool, evictions: u64) {
        let mut m = self.inner.lock().unwrap();
        if hit {
            m.cache_hits += 1;
        } else {
            m.cache_misses += 1;
        }
        m.cache_evictions += evictions;
        let entry = m.per_db.entry(db.into()).or_default();
        if hit {
            entry.hits += 1;
        } else {
            entry.misses += 1;
        }
    }

    /// Records one snapshot hot swap of database `db` and how many cached
    /// plans (superseded epochs) the swap invalidated.
    pub fn record_swap(&self, db: &str, invalidated: u64) {
        let mut m = self.inner.lock().unwrap();
        let entry = m.per_db.entry(db.into()).or_default();
        entry.swaps += 1;
        entry.invalidated += invalidated;
    }

    /// Records one committed in-place update against `db` and how many
    /// plan-cache entries / match-cache entries the selective-invalidation
    /// pass carried into the new epoch instead of dropping.
    /// `matches_extra` is the subset of `matches_seeded` that only the
    /// per-chain precise footprints — not the conservative whole-plan
    /// check — could justify carrying.
    pub fn record_update(
        &self,
        db: &str,
        plans_seeded: u64,
        matches_seeded: u64,
        matches_extra: u64,
    ) {
        let mut m = self.inner.lock().unwrap();
        let entry = m.per_db.entry(db.into()).or_default();
        entry.updates += 1;
        entry.plans_seeded += plans_seeded;
        entry.matches_seeded += matches_seeded;
        entry.matches_extra += matches_extra;
    }

    /// Records one committed update's wall time (clone, mutate, publish,
    /// carry and purge, under the commit lock), the store records it had
    /// to copy, and how many carry sets it computed.
    pub fn record_commit(
        &self,
        db: &str,
        took: Duration,
        records_copied: u64,
        carry_sets_computed: u64,
    ) {
        let mut m = self.inner.lock().unwrap();
        m.commit.record(took);
        let entry = m.per_db.entry(db.into()).or_default();
        entry.records_copied += records_copied;
        entry.carry_sets_computed += carry_sets_computed;
    }

    /// Records one compile-time analysis of a plan bound to `db`: whether
    /// the liveness pass pruned it, how many operators the pruning removed,
    /// and how many lint warnings the plan carries.
    pub fn record_analysis(&self, db: &str, pruned: bool, ops_eliminated: u64, lints: u64) {
        let mut m = self.inner.lock().unwrap();
        let entry = m.per_db.entry(db.into()).or_default();
        entry.plans_pruned += u64::from(pruned);
        entry.ops_eliminated += ops_eliminated;
        entry.lints += lints;
    }

    /// Point-in-time copy of the aggregate numbers.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.inner.lock().unwrap();
        let mut per_db: Vec<(String, DbCounters)> =
            m.per_db.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        per_db.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            latency: m.latency.clone(),
            queue_wait: m.queue_wait.clone(),
            exec: m.exec,
            ok: m.ok,
            deadline: m.deadline,
            rejected: m.rejected,
            errored: m.errored,
            abandoned: m.abandoned,
            panicked: m.panicked,
            cache_hits: m.cache_hits,
            cache_misses: m.cache_misses,
            cache_evictions: m.cache_evictions,
            commit: m.commit.clone(),
            per_db,
        }
    }

    /// Renders the full text report: aggregate latency distribution,
    /// outcome and cache counters, rolled-up executor work, and a per-query
    /// latency table sorted by total time spent.
    pub fn report(&self) -> String {
        let m = self.inner.lock().unwrap();
        let mut out = String::new();
        out.push_str("== service metrics ==\n");
        out.push_str(&format!(
            "requests: {} ok, {} deadline-exceeded, {} rejected, {} errored, {} abandoned, {} panicked\n",
            m.ok, m.deadline, m.rejected, m.errored, m.abandoned, m.panicked
        ));
        let lookups = m.cache_hits + m.cache_misses;
        let rate = if lookups == 0 { 0.0 } else { m.cache_hits as f64 / lookups as f64 * 100.0 };
        out.push_str(&format!(
            "plan cache: {} hits / {} lookups ({rate:.1}% hit rate), {} evictions\n",
            m.cache_hits, lookups, m.cache_evictions
        ));
        let mut dbs: Vec<(&Box<str>, &DbCounters)> = m.per_db.iter().collect();
        dbs.sort_by(|a, b| a.0.cmp(b.0));
        for (name, c) in dbs {
            out.push_str(&format!(
                "  db {name}: {} hits / {} lookups, {} swap(s), {} plan(s) invalidated\n",
                c.hits,
                c.hits + c.misses,
                c.swaps,
                c.invalidated
            ));
            if c.updates > 0 {
                out.push_str(&format!(
                    "  db {name}: {} update(s), {} plan(s) and {} match entr(ies) carried across epochs\n",
                    c.updates, c.plans_seeded, c.matches_seeded
                ));
                out.push_str(&format!(
                    "  db {name}: {} store record(s) copied by commits, {} carry set(s) computed\n",
                    c.records_copied, c.carry_sets_computed
                ));
            }
            if c.plans_pruned > 0 || c.ops_eliminated > 0 || c.lints > 0 || c.matches_extra > 0 {
                out.push_str(&format!(
                    "  db {name}: analyzer pruned {} plan(s) ({} operator(s) eliminated), {} lint(s) raised, {} match entr(ies) carried by precise footprints alone\n",
                    c.plans_pruned, c.ops_eliminated, c.lints, c.matches_extra
                ));
            }
        }
        out.push_str(&format!(
            "latency: count={} mean={:?} p50={:?} p95={:?} max={:?}\n",
            m.latency.count(),
            m.latency.mean(),
            m.latency.quantile(0.50),
            m.latency.quantile(0.95),
            m.latency.max()
        ));
        out.push_str(&format!(
            "queue wait: count={} mean={:?} p50={:?} p95={:?} max={:?}\n",
            m.queue_wait.count(),
            m.queue_wait.mean(),
            m.queue_wait.quantile(0.50),
            m.queue_wait.quantile(0.95),
            m.queue_wait.max()
        ));
        let e = &m.exec;
        out.push_str(&format!(
            "executor: {} pattern matches, {} probes, {} nodes inspected, {} candidate fetches, {} structural-join comparisons, {} trees built, {} subtrees materialized, {} join steps\n",
            e.pattern_matches, e.probes, e.nodes_inspected, e.candidate_fetches,
            e.struct_cmps, e.trees_built, e.subtrees_materialized, e.join_steps
        ));
        out.push_str(&format!(
            "executor match cache: {} hits / {} misses\n",
            e.match_cache_hits, e.match_cache_misses
        ));
        if m.commit.count() > 0 {
            out.push_str(&format!(
                "commits: count={} mean={:?} p50={:?} p95={:?} max={:?}\n",
                m.commit.count(),
                m.commit.mean(),
                m.commit.quantile(0.50),
                m.commit.quantile(0.95),
                m.commit.max()
            ));
        }
        if !m.per_query.is_empty() {
            out.push_str(&format!(
                "{:>8} {:>10} {:>10} {:>10} {:>10}  query\n",
                "count", "mean", "p50", "p95", "max"
            ));
            let mut rows: Vec<(&Box<str>, &QueryEntry)> = m.per_query.iter().collect();
            rows.sort_by_key(|(_, e)| std::cmp::Reverse(e.latency.sum_micros));
            for (label, entry) in rows {
                let h = &entry.latency;
                // Labels keep constructor-text whitespace; one row each.
                let mut shown: String =
                    label.chars().take(60).map(|c| if c.is_control() { ' ' } else { c }).collect();
                if label.chars().count() > 60 {
                    shown.pop();
                    shown.push('…');
                }
                out.push_str(&format!(
                    "{:>8} {:>10} {:>10} {:>10} {:>10}  {}\n",
                    h.count(),
                    fmt(h.mean()),
                    fmt(h.quantile(0.50)),
                    fmt(h.quantile(0.95)),
                    fmt(h.max()),
                    shown
                ));
            }
        }
        out
    }
}

/// Aggregate counters captured by [`Metrics::snapshot`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Aggregate latency histogram.
    pub latency: Histogram,
    /// Submit→dequeue wait histogram (queue pressure, separate from
    /// execution latency; counts every admitted request, including those
    /// that expired in the queue).
    pub queue_wait: Histogram,
    /// Rolled-up executor counters.
    pub exec: ExecStats,
    /// Requests that produced a result.
    pub ok: u64,
    /// Requests aborted on deadline.
    pub deadline: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests that failed to compile or execute.
    pub errored: u64,
    /// Requests whose caller gave up waiting (client-side wait deadline).
    pub abandoned: u64,
    /// Requests whose work panicked on a worker (contained there and
    /// answered with [`crate::ServiceError::Internal`]).
    pub panicked: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plan-cache evictions.
    pub cache_evictions: u64,
    /// Per-commit wall time of [`crate::Service::apply_update`].
    pub commit: Histogram,
    /// Per-database counters, sorted by database name.
    pub per_db: Vec<(String, DbCounters)>,
}

impl Snapshot {
    /// This database's counters, if any request touched it.
    pub fn db(&self, name: &str) -> Option<&DbCounters> {
        self.per_db.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }
}

impl Snapshot {
    /// Cache hit rate in `[0, 1]`; zero when no lookups happened.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

fn fmt(d: Duration) -> String {
    let micros = d.as_micros();
    if micros < 1_000 {
        format!("{micros}µs")
    } else if micros < 1_000_000 {
        format!("{:.2}ms", micros as f64 / 1e3)
    } else {
        format!("{:.3}s", micros as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let mut h = Histogram::default();
        for micros in [100u64, 200, 300, 400, 100_000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), Duration::from_micros(100_000));
        // p50 upper bound must cover 300 µs but stay well under the outlier.
        let p50 = h.quantile(0.5);
        assert!(p50 >= Duration::from_micros(300), "{p50:?}");
        assert!(p50 <= Duration::from_micros(1024), "{p50:?}");
        // p95 of five observations is the outlier's bucket.
        assert!(h.quantile(0.95) >= Duration::from_micros(100_000));
        let mean = h.mean();
        assert!(mean >= Duration::from_micros(20_000) && mean <= Duration::from_micros(21_000));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.95), Duration::ZERO);
    }

    #[test]
    fn report_contains_cache_and_latency_lines() {
        let m = Metrics::new();
        m.record_cache("main", false, 0);
        m.record_cache("main", true, 0);
        m.record_request("FOR $x ...", Duration::from_millis(2), &ExecStats::new());
        let r = m.report();
        assert!(r.contains("50.0% hit rate"), "{r}");
        assert!(r.contains("p95"), "{r}");
        assert!(r.contains("FOR $x ..."), "{r}");
    }

    #[test]
    fn per_db_counters_split_by_name_and_track_swaps() {
        let m = Metrics::new();
        m.record_cache("a", false, 0);
        m.record_cache("a", true, 0);
        m.record_cache("b", false, 0);
        m.record_swap("a", 3);
        m.record_swap("a", 2);
        m.record_outcome(Outcome::Abandoned);
        m.record_outcome(Outcome::Panicked);
        let s = m.snapshot();
        assert_eq!((s.abandoned, s.panicked), (1, 1));
        assert_eq!(
            s.db("a"),
            Some(&DbCounters {
                hits: 1,
                misses: 1,
                swaps: 2,
                invalidated: 5,
                ..Default::default()
            })
        );
        assert_eq!(s.db("b"), Some(&DbCounters { misses: 1, ..Default::default() }));
        assert_eq!(s.db("c"), None);
        let r = m.report();
        assert!(r.contains("db a: 1 hits / 2 lookups, 2 swap(s), 5 plan(s) invalidated"), "{r}");
        assert!(r.contains("1 abandoned, 1 panicked"), "{r}");
    }

    #[test]
    fn update_counters_track_seeding() {
        let m = Metrics::new();
        m.record_update("a", 3, 7, 2);
        m.record_update("a", 1, 0, 0);
        let s = m.snapshot();
        let c = s.db("a").unwrap();
        assert_eq!((c.updates, c.plans_seeded, c.matches_seeded, c.matches_extra), (2, 4, 7, 2));
        let r = m.report();
        assert!(r.contains("db a: 2 update(s), 4 plan(s) and 7 match entr(ies) carried"), "{r}");
        assert!(r.contains("2 match entr(ies) carried by precise footprints alone"), "{r}");
    }

    #[test]
    fn analysis_counters_only_report_when_nonzero() {
        let m = Metrics::new();
        m.record_cache("a", false, 0);
        assert!(!m.report().contains("analyzer pruned"), "no analysis recorded yet");
        m.record_analysis("a", true, 2, 3);
        m.record_analysis("a", false, 0, 1);
        let c = m.snapshot();
        let c = c.db("a").unwrap();
        assert_eq!((c.plans_pruned, c.ops_eliminated, c.lints), (1, 2, 4));
        let r = m.report();
        assert!(
            r.contains(
                "db a: analyzer pruned 1 plan(s) (2 operator(s) eliminated), 4 lint(s) raised"
            ),
            "{r}"
        );
    }

    #[test]
    fn per_query_table_is_capped() {
        let m = Metrics::new();
        for i in 0..(MAX_QUERY_ENTRIES + 50) {
            m.record_request(&format!("q{i}"), Duration::from_micros(10), &ExecStats::new());
        }
        let inner = m.inner.lock().unwrap();
        assert!(inner.per_query.len() <= MAX_QUERY_ENTRIES + 1);
        assert!(inner.per_query.contains_key("(other)"));
    }

    #[test]
    fn per_query_rows_stay_on_one_line() {
        let m = Metrics::new();
        m.record_request("RETURN <a>x\n  y</a>", Duration::from_micros(10), &ExecStats::new());
        m.record_request(&"z".repeat(70), Duration::from_micros(10), &ExecStats::new());
        let report = m.report();
        assert!(report.contains("  RETURN <a>x   y</a>\n"), "{report}");
        assert!(report.contains(&format!("  {}…\n", "z".repeat(59))), "{report}");
    }
}
