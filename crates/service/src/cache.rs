//! The LRU plan cache: normalized query text → compiled, optimized plan.
//!
//! The evaluation workload (x1…x20, Q1, Q2) is a repeated-template
//! workload: the same query texts arrive over and over. Compiling a query
//! (parse → translate → rewrite/optimize) costs the same every time while
//! the plan never changes for a fixed database schema, so the service
//! compiles once and executes many.
//!
//! **Keying.** The key is `(database name, epoch, whitespace-normalized
//! query text)`, composed by [`plan_key`]. The text component collapses
//! whitespace runs to one space and trims the ends, so the same query sent
//! indented, on one line, or with trailing newlines shares one entry.
//! Nothing semantic (no parse) happens during keying — a cache probe on a
//! miss costs one string scan. The database name and **epoch** components
//! exist because compiled plans bind the tag ids of the store they were
//! compiled against: after a catalog hot swap (see [`crate::catalog`]) the
//! same text against the same name must key differently, so a stale plan
//! can never be served against the new store.
//!
//! **Eviction.** Bounded LRU. Values are `Arc`ed, so evicting an entry that
//! a request is still executing merely drops the cache's reference; the
//! in-flight execution keeps the plan alive and completes normally. On a
//! hot swap the service additionally purges the superseded epoch's entries
//! eagerly ([`LruCache::purge_where`]) — they could never be *served*
//! again (the key mismatch guarantees that), but they would otherwise
//! squat in the LRU until capacity pressure evicted them.
//!
//! The same [`LruCache`] (with its optional byte budget) and the same
//! `(database, epoch)` key-prefix scheme also back the **pattern-match
//! cache** ([`MatchStore`] / [`ScopedMatchCache`]): APT-fingerprint chain
//! keys → materialized result-tree sets, consulted by the executor through
//! [`tlc::MatchCache`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Collapses whitespace runs to single spaces and trims the ends — the
/// cache-key canonicalization.
pub fn normalize_query(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_ws = true; // leading whitespace is dropped
    for c in text.chars() {
        if c.is_whitespace() {
            if !in_ws {
                out.push(' ');
                in_ws = true;
            }
        } else {
            out.push(c);
            in_ws = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Composes the cache key for `normalized` query text compiled against one
/// published snapshot of database `db` at `epoch`. The `\u{1}` separator
/// cannot occur in a database name (the catalog validates names to
/// printable ASCII), so a query string can never forge another database's
/// key prefix.
pub fn plan_key(db: &str, epoch: u64, normalized: &str) -> String {
    format!("{db}\u{1}{epoch}\u{1}{normalized}")
}

/// The key prefix shared by every entry of database `db` at `epoch`; keys
/// for other epochs of the same database match [`db_prefix`] but not this.
pub fn epoch_prefix(db: &str, epoch: u64) -> String {
    format!("{db}\u{1}{epoch}\u{1}")
}

/// The key prefix shared by every entry of database `db`, any epoch.
pub fn db_prefix(db: &str) -> String {
    format!("{db}\u{1}")
}

/// A plan-cache value: the compiled, verified plan plus its
/// lazily-computed carry set.
///
/// The carry set is computed at most once per cache entry: the first
/// commit that sees the entry computes it, and every later commit the
/// entry is carried through (the footprint-disjointness carry in
/// [`crate::Service::apply_update`]) reuses it, since the whole
/// `CachedPlan` is the `Arc`ed cache value.
#[derive(Debug)]
pub struct CachedPlan {
    plan: Arc<tlc::Plan>,
    carry: OnceLock<CarrySet>,
}

impl CachedPlan {
    /// Wraps a freshly compiled plan; the carry set is computed on demand.
    pub fn new(plan: Arc<tlc::Plan>) -> CachedPlan {
        CachedPlan { plan, carry: OnceLock::new() }
    }

    /// The plan's [`CarrySet`], computing it on first call. The flag is
    /// `true` exactly when this call did the computing, so the caller can
    /// count computations without double counting.
    pub(crate) fn carry_set(&self) -> (&CarrySet, bool) {
        let mut computed = false;
        let set = self.carry.get_or_init(|| {
            computed = true;
            CarrySet::new(&self.plan)
        });
        (set, computed)
    }

    /// The verified logical plan.
    pub fn plan(&self) -> &Arc<tlc::Plan> {
        &self.plan
    }

    /// Compatibility accessor from the removed register-IR backend: always
    /// `(None, None)` — no program, no compile time — so callers take their
    /// tree-walker branch.
    pub fn program(&self) -> (Option<Arc<tlc::vm::Program>>, Option<Duration>) {
        (None, None)
    }
}

/// Everything a commit needs to decide which of a cached plan's cache
/// entries survive a mutation: the plan's whole read footprint and, per
/// match-cache chain key, the footprint of exactly that chain
/// ([`tlc::match_chain_footprints`]). Both are static properties of the
/// plan, so one computation serves every epoch the plan lives through.
#[derive(Debug)]
pub(crate) struct CarrySet {
    footprint: tlc::Footprint,
    chains: Vec<(String, tlc::Footprint)>,
}

/// What one mutation leaves of one cached plan ([`CarrySet::decide`]).
#[derive(Debug)]
pub(crate) struct CarryDecision<'a> {
    /// The plan itself carries into the new epoch.
    pub plan: bool,
    /// Chain keys whose match entries carry into the new epoch.
    pub chains: Vec<&'a str>,
    /// The whole-plan footprint could not justify `chains`; only the
    /// per-chain footprints could.
    pub precise_only: bool,
}

impl CarrySet {
    /// Computes the whole-plan and per-chain footprints of `plan`.
    pub(crate) fn new(plan: &tlc::Plan) -> CarrySet {
        CarrySet { footprint: tlc::plan_footprint(plan), chains: tlc::match_chain_footprints(plan) }
    }

    /// Decides what survives a mutation of document `doc` that changed
    /// `affected_tags` and renumbered `renumbered` pre-existing nodes.
    ///
    /// A plan survives when its footprint is disjoint from the mutation:
    /// plans bind tag ids and document names, never node ordinals. Match entries additionally embed node ordinals,
    /// so a chain entry survives only if its chain never reads `doc`, or
    /// the mutation renumbered nothing and the chain's footprint is
    /// disjoint from it. Every chain's footprint is a subset of the plan's,
    /// so when the plan's footprint passes that test all chains do.
    pub(crate) fn decide(
        &self,
        doc: &str,
        affected_tags: &[xmldb::TagId],
        renumbered: usize,
    ) -> CarryDecision<'_> {
        let survives = |fp: &tlc::Footprint| {
            !fp.docs.contains(doc) || (renumbered == 0 && !fp.overlaps(doc, affected_tags))
        };
        let whole = survives(&self.footprint);
        CarryDecision {
            plan: !self.footprint.overlaps(doc, affected_tags),
            chains: self
                .chains
                .iter()
                .filter(|(_, fp)| whole || survives(fp))
                .map(|(key, _)| key.as_str())
                .collect(),
            precise_only: !whole,
        }
    }
}

/// Counters the cache maintains; read through [`LruCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Sum of the resident entries' declared costs (0 unless weighted
    /// inserts are used).
    pub bytes: usize,
    /// Configured byte budget; 0 means entry count is the only bound.
    pub byte_budget: usize,
}

/// One resident entry: the shared value, its recency stamp, and the byte
/// cost it was inserted with (0 for unweighted inserts).
#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    stamp: u64,
    cost: usize,
}

/// A bounded least-recently-used map from normalized query text to shared
/// values. Recency is tracked with a monotonic stamp per entry plus an
/// ordered stamp → key index, so get/insert are O(log n).
///
/// Two bounds compose: a maximum entry *count* (always on) and an optional
/// **byte budget** ([`LruCache::with_byte_budget`]) under which each entry
/// carries a caller-declared cost and inserts evict the LRU tail until the
/// resident total fits. The byte budget exists for the match cache, whose
/// values (materialized result-tree sets) vary in size by orders of
/// magnitude — counting entries alone would let a few giant results hold
/// the memory of thousands of small ones.
#[derive(Debug)]
pub struct LruCache<V> {
    capacity: usize,
    byte_budget: Option<usize>,
    bytes: usize,
    next_stamp: u64,
    entries: HashMap<Box<str>, Entry<V>>,
    by_stamp: std::collections::BTreeMap<u64, Box<str>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> LruCache<V> {
        LruCache {
            capacity: capacity.max(1),
            byte_budget: None,
            bytes: 0,
            next_stamp: 0,
            entries: HashMap::new(),
            by_stamp: std::collections::BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Creates a cache bounded by both entry count and a byte budget over
    /// the costs passed to [`LruCache::insert_weighted`]. An entry whose
    /// cost alone exceeds the budget is declined rather than cached.
    pub fn with_byte_budget(capacity: usize, budget: usize) -> LruCache<V> {
        let mut cache = LruCache::new(capacity);
        cache.byte_budget = Some(budget.max(1));
        cache
    }

    fn touch(&mut self, key: &str) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(e) = self.entries.get_mut(key) {
            self.by_stamp.remove(&e.stamp);
            e.stamp = stamp;
            self.by_stamp.insert(stamp, key.into());
        }
    }

    /// Looks `key` up (already normalized), refreshing its recency.
    pub fn get(&mut self, key: &str) -> Option<Arc<V>> {
        match self.entries.get(key) {
            Some(e) => {
                let v = Arc::clone(&e.value);
                self.hits += 1;
                self.touch(key);
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` under `key` (already normalized) with cost 0,
    /// evicting the least recently used entry if at capacity. Returns the
    /// number of evictions performed.
    pub fn insert(&mut self, key: &str, value: Arc<V>) -> u64 {
        self.insert_weighted(key, value, 0)
    }

    /// Inserts `value` under `key` declaring `cost` bytes, evicting LRU
    /// entries until both the entry count and the byte budget (when
    /// configured) are satisfied. An entry larger than the whole budget is
    /// declined — caching it would empty the cache for one unlikely-to-fit
    /// tenant. Returns the number of evictions performed.
    pub fn insert_weighted(&mut self, key: &str, value: Arc<V>, cost: usize) -> u64 {
        if self.byte_budget.is_some_and(|b| cost > b) {
            return 0;
        }
        if self.entries.contains_key(key) {
            // Replace in place, refresh recency, re-cost.
            let stamp_key = key.to_owned();
            self.touch(&stamp_key);
            if let Some(e) = self.entries.get_mut(key) {
                self.bytes = self.bytes - e.cost + cost;
                e.value = value;
                e.cost = cost;
            }
            return self.evict_while_over_budget();
        }
        let mut evicted = 0;
        if self.entries.len() >= self.capacity {
            evicted += self.evict_oldest();
        }
        while self.byte_budget.is_some_and(|b| self.bytes + cost > b) && !self.entries.is_empty() {
            evicted += self.evict_oldest();
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.bytes += cost;
        self.entries.insert(key.into(), Entry { value, stamp, cost });
        self.by_stamp.insert(stamp, key.into());
        evicted
    }

    fn evict_oldest(&mut self) -> u64 {
        let Some(oldest) = self.by_stamp.keys().next().copied() else { return 0 };
        let victim = self.by_stamp.remove(&oldest).expect("stamp present");
        if let Some(e) = self.entries.remove(&victim) {
            self.bytes -= e.cost;
        }
        self.evictions += 1;
        1
    }

    /// Used after an in-place replacement grows an entry: the replaced key
    /// holds the newest stamp, so the loop sheds colder entries first and
    /// terminates because a sole remaining entry's cost fits the budget
    /// (oversized costs were declined up front).
    fn evict_while_over_budget(&mut self) -> u64 {
        let mut evicted = 0;
        while self.byte_budget.is_some_and(|b| self.bytes > b) && self.entries.len() > 1 {
            evicted += self.evict_oldest();
        }
        evicted
    }

    /// Looks `key` up without refreshing recency or counting a hit/miss,
    /// returning the value and its declared cost. This is the inspection
    /// path used when *carrying* entries across an update epoch — a carry
    /// is bookkeeping, not workload traffic, so it must not skew the hit
    /// rate or the LRU order.
    pub fn peek(&self, key: &str) -> Option<(Arc<V>, usize)> {
        self.entries.get(key).map(|e| (Arc::clone(&e.value), e.cost))
    }

    /// Snapshots every resident entry whose key starts with `prefix`, as
    /// `(key, value)` pairs. Like [`LruCache::peek`], this touches neither
    /// the counters nor the recency order; it exists so the service can
    /// enumerate one epoch's entries and decide which survive a mutation.
    pub fn collect_prefixed(&self, prefix: &str) -> Vec<(Box<str>, Arc<V>)> {
        self.entries
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, e)| (k.clone(), Arc::clone(&e.value)))
            .collect()
    }

    /// Removes every entry whose key satisfies `pred`, returning how many
    /// were dropped. This is the hot-swap invalidation hook: after a new
    /// epoch is published, the service purges the superseded epoch's plans
    /// in one sweep. Not counted as evictions — eviction measures capacity
    /// pressure, invalidation measures swaps.
    pub fn purge_where(&mut self, pred: impl Fn(&str) -> bool) -> u64 {
        let victims: Vec<Box<str>> = self.entries.keys().filter(|k| pred(k)).cloned().collect();
        for key in &victims {
            if let Some(e) = self.entries.remove(key) {
                self.by_stamp.remove(&e.stamp);
                self.bytes -= e.cost;
            }
        }
        victims.len() as u64
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.entries.len(),
            capacity: self.capacity,
            bytes: self.bytes,
            byte_budget: self.byte_budget.unwrap_or(0),
        }
    }
}

/// Entry-count ceiling for the match store; the byte budget is the bound
/// that actually matters, this just caps index bookkeeping.
const MATCH_STORE_MAX_ENTRIES: usize = 65_536;

/// The service-wide **pattern-match cache**: APT-fingerprint chain keys
/// (see [`tlc::match_chain_key`]) → materialized result-tree sets, shared
/// by every worker and byte-budgeted because values vary in size by orders
/// of magnitude.
///
/// Keys are scoped with the same `(database, epoch)` prefix scheme as plan
/// keys ([`epoch_prefix`]), which is the whole soundness story: a hot swap
/// bumps the epoch, so entries matched against the superseded snapshot can
/// never be *served* again, and [`MatchStore::purge_where`] drops them
/// eagerly at swap time (counted as invalidations, not evictions).
#[derive(Debug)]
pub struct MatchStore {
    inner: Mutex<LruCache<Vec<tlc::ResultTree>>>,
    invalidated: AtomicU64,
    seeded: AtomicU64,
}

impl MatchStore {
    /// A store bounded by `byte_budget` over the approximate heap size of
    /// the cached result trees.
    pub fn new(byte_budget: usize) -> MatchStore {
        MatchStore {
            inner: Mutex::new(LruCache::with_byte_budget(MATCH_STORE_MAX_ENTRIES, byte_budget)),
            invalidated: AtomicU64::new(0),
            seeded: AtomicU64::new(0),
        }
    }

    /// Current cache counters (hits, misses, evictions, bytes, budget).
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap().stats()
    }

    /// Entries dropped by invalidation sweeps so far.
    pub fn invalidated(&self) -> u64 {
        self.invalidated.load(Ordering::Relaxed)
    }

    /// Entries carried into a later epoch by [`MatchStore::carry`] so far.
    pub fn seeded(&self) -> u64 {
        self.seeded.load(Ordering::Relaxed)
    }

    /// Carries match entries across an update epoch: for each bare chain
    /// key in `chain_keys`, if `{from_prefix}{key}` is resident its value
    /// is re-inserted under `{to_prefix}{key}` at the same cost. Returns
    /// how many entries were carried. The caller is responsible for only
    /// passing chain keys whose entries provably survive the mutation (see
    /// [`tlc::match_chain_footprints`] and [`tlc::Footprint`]); this method is
    /// pure key plumbing.
    pub fn carry<K: AsRef<str>>(
        &self,
        from_prefix: &str,
        to_prefix: &str,
        chain_keys: &[K],
    ) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let mut carried = 0u64;
        for key in chain_keys.iter().map(AsRef::as_ref) {
            if let Some((value, cost)) = inner.peek(&format!("{from_prefix}{key}")) {
                inner.insert_weighted(&format!("{to_prefix}{key}"), value, cost);
                carried += 1;
            }
        }
        drop(inner);
        self.seeded.fetch_add(carried, Ordering::Relaxed);
        carried
    }

    /// Invalidation sweep: removes every entry whose key satisfies `pred`,
    /// returning how many were dropped.
    pub fn purge_where(&self, pred: impl Fn(&str) -> bool) -> u64 {
        let dropped = self.inner.lock().unwrap().purge_where(pred);
        self.invalidated.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }
}

/// A [`MatchStore`] view scoped to one `(database, epoch)` snapshot — the
/// object handed to the executor as its [`tlc::MatchCache`]. The executor
/// keys by APT-fingerprint chain alone; the scope prefixes every key, so
/// two databases (or two epochs of one) can never exchange entries even
/// when their queries fingerprint identically.
#[derive(Debug)]
pub struct ScopedMatchCache {
    store: Arc<MatchStore>,
    prefix: String,
}

impl ScopedMatchCache {
    /// A view of `store` for database `db` at `epoch`.
    pub fn new(store: Arc<MatchStore>, db: &str, epoch: u64) -> ScopedMatchCache {
        ScopedMatchCache { store, prefix: epoch_prefix(db, epoch) }
    }
}

impl tlc::MatchCache for ScopedMatchCache {
    fn get(&self, key: &str) -> Option<Arc<Vec<tlc::ResultTree>>> {
        self.store.inner.lock().unwrap().get(&format!("{}{key}", self.prefix))
    }

    fn put(&self, key: &str, trees: &[tlc::ResultTree]) {
        let cost = std::mem::size_of::<Vec<tlc::ResultTree>>()
            + trees.iter().map(tlc::ResultTree::approx_bytes).sum::<usize>();
        self.store.inner.lock().unwrap().insert_weighted(
            &format!("{}{key}", self.prefix),
            Arc::new(trees.to_vec()),
            cost,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_collapses_whitespace() {
        assert_eq!(normalize_query("  FOR  $x\n\tIN doc  "), "FOR $x IN doc");
        assert_eq!(normalize_query("a b"), "a b");
        assert_eq!(normalize_query(""), "");
        assert_eq!(normalize_query("   \n\t "), "");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: LruCache<i32> = LruCache::new(2);
        c.insert("a", Arc::new(1));
        c.insert("b", Arc::new(2));
        assert!(c.get("a").is_some()); // refresh a: b is now LRU
        c.insert("c", Arc::new(3)); // evicts b
        assert!(c.get("a").is_some());
        assert!(c.get("b").is_none());
        assert!(c.get("c").is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
    }

    #[test]
    fn evicted_value_survives_while_referenced() {
        let mut c: LruCache<String> = LruCache::new(1);
        c.insert("a", Arc::new("alive".to_string()));
        let held = c.get("a").unwrap();
        c.insert("b", Arc::new("other".to_string())); // evicts a
        assert!(c.get("a").is_none());
        assert_eq!(&*held, "alive"); // the Arc keeps it usable
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut c: LruCache<i32> = LruCache::new(2);
        c.insert("a", Arc::new(1));
        assert_eq!(c.insert("a", Arc::new(9)), 0);
        assert_eq!(*c.get("a").unwrap(), 9);
        assert_eq!(c.stats().len, 1);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn plan_keys_separate_databases_and_epochs() {
        let text = "FOR $x IN doc RETURN $x";
        assert_ne!(plan_key("a", 0, text), plan_key("b", 0, text));
        assert_ne!(plan_key("a", 0, text), plan_key("a", 1, text));
        assert!(plan_key("a", 3, text).starts_with(&epoch_prefix("a", 3)));
        assert!(plan_key("a", 3, text).starts_with(&db_prefix("a")));
        assert!(!plan_key("a", 3, text).starts_with(&epoch_prefix("a", 2)));
        // "ab" must not look like a stale entry of database "a".
        assert!(!plan_key("ab", 0, text).starts_with(&db_prefix("a")));
    }

    #[test]
    fn purge_drops_matching_entries_only() {
        let mut c: LruCache<i32> = LruCache::new(8);
        c.insert(&plan_key("a", 0, "q1"), Arc::new(1));
        c.insert(&plan_key("a", 0, "q2"), Arc::new(2));
        c.insert(&plan_key("a", 1, "q1"), Arc::new(3));
        c.insert(&plan_key("b", 0, "q1"), Arc::new(4));
        let stale =
            |k: &str| k.starts_with(&db_prefix("a")) && !k.starts_with(&epoch_prefix("a", 1));
        assert_eq!(c.purge_where(stale), 2);
        assert!(c.get(&plan_key("a", 0, "q1")).is_none());
        assert!(c.get(&plan_key("a", 1, "q1")).is_some());
        assert!(c.get(&plan_key("b", 0, "q1")).is_some());
        let s = c.stats();
        assert_eq!(s.len, 2);
        assert_eq!(s.evictions, 0, "invalidation is not eviction");
        // Purged stamps are gone too: inserting past capacity still evicts
        // exactly one live entry.
        for i in 0..7 {
            c.insert(&format!("fill{i}"), Arc::new(i));
        }
        assert_eq!(c.stats().len, 8);
    }

    #[test]
    fn byte_budget_evicts_lru_until_the_new_entry_fits() {
        let mut c: LruCache<i32> = LruCache::with_byte_budget(16, 100);
        assert_eq!(c.insert_weighted("a", Arc::new(1), 40), 0);
        assert_eq!(c.insert_weighted("b", Arc::new(2), 40), 0);
        assert!(c.get("a").is_some()); // refresh a: b is now LRU
                                       // 40 + 40 + 30 > 100 → evicts b (the LRU), keeps a.
        assert_eq!(c.insert_weighted("c", Arc::new(3), 30), 1);
        assert!(c.get("a").is_some());
        assert!(c.get("b").is_none());
        assert!(c.get("c").is_some());
        let s = c.stats();
        assert_eq!((s.bytes, s.byte_budget, s.len, s.evictions), (70, 100, 2, 1));
    }

    #[test]
    fn oversized_entries_are_declined_not_cached() {
        let mut c: LruCache<i32> = LruCache::with_byte_budget(16, 100);
        c.insert_weighted("small", Arc::new(1), 10);
        assert_eq!(c.insert_weighted("huge", Arc::new(2), 101), 0);
        assert!(c.get("huge").is_none());
        assert!(c.get("small").is_some(), "declining must not disturb residents");
        assert_eq!(c.stats().bytes, 10);
    }

    #[test]
    fn replacement_recosts_and_sheds_colder_entries() {
        let mut c: LruCache<i32> = LruCache::with_byte_budget(16, 100);
        c.insert_weighted("a", Arc::new(1), 30);
        c.insert_weighted("b", Arc::new(2), 30);
        c.insert_weighted("c", Arc::new(3), 30);
        // Re-insert c at a larger cost: a (coldest) goes, b and c stay.
        c.insert_weighted("c", Arc::new(4), 60);
        assert!(c.get("a").is_none());
        assert!(c.get("b").is_some());
        assert_eq!(*c.get("c").unwrap(), 4);
        assert_eq!(c.stats().bytes, 90);
    }

    #[test]
    fn purge_releases_bytes() {
        let mut c: LruCache<i32> = LruCache::with_byte_budget(16, 100);
        c.insert_weighted(&plan_key("a", 0, "q"), Arc::new(1), 40);
        c.insert_weighted(&plan_key("b", 0, "q"), Arc::new(2), 25);
        assert_eq!(c.purge_where(|k| k.starts_with(&db_prefix("a"))), 1);
        assert_eq!(c.stats().bytes, 25);
    }

    #[test]
    fn scoped_match_caches_isolate_databases_and_epochs() {
        use tlc::MatchCache as _;
        let store = Arc::new(MatchStore::new(1 << 20));
        let a0 = ScopedMatchCache::new(Arc::clone(&store), "a", 0);
        let a1 = ScopedMatchCache::new(Arc::clone(&store), "a", 1);
        let b0 = ScopedMatchCache::new(Arc::clone(&store), "b", 0);
        a0.put("Sfp", &[]);
        assert!(a0.get("Sfp").is_some());
        assert!(a1.get("Sfp").is_none(), "epochs must not share entries");
        assert!(b0.get("Sfp").is_none(), "databases must not share entries");
        // Swap `a` to epoch 1: purge its superseded entries only.
        let live = epoch_prefix("a", 1);
        let all = db_prefix("a");
        assert_eq!(store.purge_where(|k| k.starts_with(&all) && !k.starts_with(&live)), 1);
        assert_eq!(store.invalidated(), 1);
        assert!(a0.get("Sfp").is_none());
        assert_eq!(store.stats().bytes, 0);
    }

    #[test]
    fn peek_and_collect_disturb_neither_stats_nor_recency() {
        let mut c: LruCache<i32> = LruCache::new(2);
        c.insert("a", Arc::new(1));
        c.insert("b", Arc::new(2));
        assert_eq!(c.peek("a").map(|(v, cost)| (*v, cost)), Some((1, 0)));
        assert!(c.peek("zzz").is_none());
        let mut keys: Vec<Box<str>> = c.collect_prefixed("").into_iter().map(|(k, _)| k).collect();
        keys.sort();
        assert_eq!(keys, vec!["a".into(), "b".into()]);
        assert_eq!(c.collect_prefixed("a").len(), 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "peeks must not count as lookups");
        // `a` was peeked but not touched, so it is still the LRU victim.
        c.insert("c", Arc::new(3));
        assert!(c.peek("a").is_none());
        assert!(c.peek("b").is_some());
    }

    #[test]
    fn carry_copies_entries_under_the_new_epoch_prefix() {
        use tlc::MatchCache as _;
        let store = Arc::new(MatchStore::new(1 << 20));
        let e0 = ScopedMatchCache::new(Arc::clone(&store), "db", 0);
        let e1 = ScopedMatchCache::new(Arc::clone(&store), "db", 1);
        e0.put("Sfp", &[]);
        e0.put("Sother", &[]);
        let keys = vec!["Sfp".to_string(), "Snever-cached".to_string()];
        let carried = store.carry(&epoch_prefix("db", 0), &epoch_prefix("db", 1), &keys);
        assert_eq!(carried, 1, "only resident keys carry");
        assert_eq!(store.seeded(), 1);
        assert!(e1.get("Sfp").is_some(), "carried entry must serve the new epoch");
        assert!(e1.get("Sother").is_none(), "uncarried keys stay stale-only");
        // The old epoch's copies still exist until the caller purges them.
        assert!(e0.get("Sfp").is_some());
    }

    #[test]
    fn unweighted_cache_reports_zero_budget() {
        let mut c: LruCache<i32> = LruCache::new(2);
        c.insert("a", Arc::new(1));
        let s = c.stats();
        assert_eq!((s.bytes, s.byte_budget), (0, 0));
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let mut c: LruCache<i32> = LruCache::new(4);
        assert!(c.get("x").is_none());
        c.insert("x", Arc::new(1));
        assert!(c.get("x").is_some());
        assert!(c.get("x").is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }
}
