#![warn(missing_docs)]

//! # service — the concurrent query-service layer
//!
//! Everything below this crate evaluates one query at a time from scratch:
//! parse → translate → optimize → execute through `baselines::run`. This
//! crate turns that library into a long-lived, thread-safe **service** that
//! owns a catalog of named databases and serves many clients at once:
//!
//! * **catalog** ([`catalog`]) — a registry of named databases, each
//!   published through an epoch-versioned [`catalog::CatalogEntry`] that
//!   can be **hot-swapped** (reloaded from disk, replaced in memory)
//!   without dropping in-flight requests: work that resolved the old entry
//!   finishes against the old `Arc<Database>`, new requests see the new
//!   epoch. Queries route to a database by name; [`catalog::DEFAULT_DB`]
//!   is the one the service is constructed with.
//! * **plan cache** ([`cache`]) — a bounded LRU from `(database, epoch,
//!   whitespace-normalized query text)` to the compiled, optimized TLC
//!   plan. The evaluation workload is a repeated-template workload, so
//!   compile-once/execute-many removes the whole front half of the
//!   pipeline from the hot path. The epoch in the key is what makes hot
//!   swap sound: plans bind tag ids of the store they were compiled
//!   against, and a superseded epoch's entries can never be served again
//!   (they are also purged eagerly at swap time).
//! * **match cache** ([`cache::MatchStore`]) — an epoch-keyed,
//!   byte-budgeted LRU of *pattern-match results*: the executor consults it
//!   through [`tlc::MatchCache`] keyed by canonical APT fingerprints
//!   ([`tlc::match_chain_key`]), so repeated templates skip the structural
//!   joins entirely, not just compilation. Keys carry the same
//!   `(database, epoch)` prefix as plan keys, making stale hits across hot
//!   swaps impossible; swaps purge superseded entries eagerly.
//! * **worker pool** ([`pool`]) — a fixed set of executor threads behind a
//!   bounded admission queue. A full queue rejects new work immediately
//!   ([`ServiceError::Overloaded`]) instead of queueing without bound.
//!   Workers take one job at a time in admission order; a job that panics
//!   is contained on its worker and answered with
//!   [`ServiceError::Internal`].
//! * **deadlines** — every request can carry a wall-clock budget; time
//!   spent queued counts against it. The TLC executor checks the deadline
//!   between operators ([`tlc::execute_with_deadline`]), so an over-budget
//!   query aborts cleanly with [`ServiceError::DeadlineExceeded`] and frees
//!   its worker instead of wedging it. Independently, a caller can bound
//!   how long it *waits* for an admitted job
//!   ([`ServiceConfig::client_wait`]); giving up returns
//!   [`ServiceError::Abandoned`] while the worker finishes the job and
//!   discards the reply.
//! * **metrics** ([`metrics`]) — per-query latency histograms (count /
//!   mean / p50 / p95 / max), plan-cache hit rate, per-database hit/miss/
//!   swap/invalidation counters, and rolled-up [`tlc::ExecStats`]
//!   counters, dumped as a text report.
//!
//! The read path of every store is immutable after load, so any number of
//! workers share each `Arc<Database>` with no synchronization at all; the
//! only mutable state on the query path is the catalog's publish cell and
//! the cache/metrics registries. The compile-time assertions at the bottom
//! of this module pin the `Send + Sync` requirements the design rests on.
//!
//! ```
//! use std::sync::Arc;
//! let db = Arc::new(xmark::auction_database(0.001));
//! let svc = service::Service::new(db, service::ServiceConfig::default());
//! let q = r#"FOR $p IN document("auction.xml")//person RETURN $p/name"#;
//! let first = svc.execute(q).unwrap();
//! let second = svc.execute(q).unwrap(); // plan comes from the cache
//! assert!(!first.cache_hit && second.cache_hit);
//! assert_eq!(first.output, second.output);
//! ```

pub mod cache;
pub mod catalog;
pub mod manifest;
pub mod metrics;
pub mod pool;
pub mod protocol;

use baselines::Engine;
use cache::{CacheStats, CachedPlan, LruCache};
use catalog::{Catalog, CatalogEntry, CatalogError, DEFAULT_DB};
use metrics::{Metrics, Outcome, Snapshot};
use pool::{Pool, Reply, SubmitError};
use std::fmt;
use std::path::Path;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tlc::{ExecStats, Plan};
use xmldb::Database;

/// Configuration for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Engine used to compile and execute queries. Plan-based engines get
    /// plan caching; [`Engine::Nav`] is interpreted per request.
    pub engine: Engine,
    /// Executor threads.
    pub workers: usize,
    /// Bounded admission-queue depth (requests waiting beyond the ones
    /// being executed). Submissions past it fail with
    /// [`ServiceError::Overloaded`].
    pub queue_depth: usize,
    /// Plan-cache capacity in entries.
    pub plan_cache_capacity: usize,
    /// Wall-clock budget applied to requests that do not carry their own;
    /// `None` means unlimited.
    pub default_deadline: Option<Duration>,
    /// Client-side bound on how long a caller blocks waiting for an
    /// *admitted* job's reply. `None` parks until the reply arrives (the
    /// pre-catalog behavior); `Some(limit)` makes the caller give up with
    /// [`ServiceError::Abandoned`] after `limit` — the worker still runs
    /// the job to completion and discards the reply. Abandoned requests
    /// are counted in [`metrics::Snapshot::abandoned`].
    pub client_wait: Option<Duration>,
    /// Byte budget for the epoch-keyed pattern-match cache shared by all
    /// workers (approximate heap bytes of the cached result trees). `0`
    /// disables the cache entirely — every request then re-runs its
    /// structural matches, which is the right baseline for benchmarking.
    pub match_cache_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get()).min(8);
        ServiceConfig {
            engine: Engine::Tlc,
            workers,
            queue_depth: workers * 4,
            plan_cache_capacity: 128,
            default_deadline: None,
            client_wait: None,
            match_cache_bytes: 32 << 20,
        }
    }
}

/// Errors a request can come back with.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The query failed to parse or translate.
    Compile(tlc::Error),
    /// The plan failed during execution.
    Execute(tlc::Error),
    /// The request exceeded its wall-clock deadline (queued time included).
    DeadlineExceeded,
    /// The admission queue was full.
    Overloaded {
        /// The configured queue depth that was exhausted.
        queue_depth: usize,
    },
    /// The service is shutting down.
    ShuttingDown,
    /// A catalog operation failed (unknown database, bad name, load error).
    Catalog(CatalogError),
    /// The caller's client-side wait deadline expired before the admitted
    /// job replied; the job itself still runs, its result discarded.
    Abandoned {
        /// How long the caller waited before giving up.
        waited: Duration,
    },
    /// The operation is not supported for the configured engine (e.g.
    /// preparing a plan for the interpreted NAV engine).
    Unsupported(String),
    /// An in-place update ([`Service::apply_update`]) was rejected by the
    /// update engine or referenced an unknown document.
    Update(String),
    /// The request's work panicked on its worker. The panic was contained
    /// there: the worker and the caller's connection stay usable. Carries
    /// the panic message.
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Compile(e) => write!(f, "compile error: {e}"),
            ServiceError::Execute(e) => write!(f, "execution error: {e}"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::Overloaded { queue_depth } => {
                write!(f, "service overloaded (queue depth {queue_depth} exhausted)")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Catalog(e) => write!(f, "catalog error: {e}"),
            ServiceError::Abandoned { waited } => {
                write!(f, "caller abandoned the request after waiting {waited:?}")
            }
            ServiceError::Unsupported(m) => write!(f, "unsupported: {m}"),
            ServiceError::Update(m) => write!(f, "update error: {m}"),
            ServiceError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A compiled, cached plan: the result of [`Service::prepare`]. Cheap to
/// clone and valid for the service's lifetime — eviction from the cache
/// does not invalidate handles already given out, and a catalog hot swap
/// does not either: the handle pins the [`CatalogEntry`] (database
/// snapshot + epoch) it was compiled against, so executing it keeps
/// reading the snapshot its tag ids belong to even after a swap.
#[derive(Debug, Clone)]
pub struct PlanHandle {
    entry: Arc<CatalogEntry>,
    normalized: Arc<str>,
    cached: Arc<CachedPlan>,
}

impl PlanHandle {
    /// The normalized query text this plan was compiled from (the text
    /// component of the cache key).
    pub fn query(&self) -> &str {
        &self.normalized
    }

    /// The compiled plan.
    pub fn plan(&self) -> &Plan {
        self.cached.plan()
    }

    /// The catalog name of the database this plan binds.
    pub fn database(&self) -> &str {
        self.entry.name()
    }

    /// The epoch of the snapshot this plan was compiled against.
    pub fn epoch(&self) -> u64 {
        self.entry.epoch()
    }
}

/// One served request's result.
#[derive(Debug, Clone)]
pub struct Response {
    /// Serialized query result, byte-identical to what the single-threaded
    /// `baselines::run` produces for the same engine.
    pub output: String,
    /// Executor counters for this request.
    pub stats: ExecStats,
    /// Whether the plan came out of the cache (always `true` for
    /// [`Service::execute_prepared`], always `false` for NAV).
    pub cache_hit: bool,
    /// Catalog name of the database that served this request.
    pub db_name: Arc<str>,
    /// Epoch of the snapshot that served this request — the correctness
    /// witness for hot-swap tests: compare the output against the
    /// single-threaded reference for *this* epoch's store.
    pub db_epoch: u64,
    /// End-to-end time: admission + queue + execute + serialize.
    pub total_time: Duration,
}

type WorkResult = Result<(String, ExecStats), ServiceError>;

/// One node-level mutation for [`Service::apply_update`]. Documents are
/// addressed by logical name, nodes by their pre ordinal within the
/// document (the `pre` component of [`xmldb::NodeId`], as reported by
/// query results and the shell's node listings).
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Parse `xml` (one rooted fragment) and splice it in as the **last
    /// child** of the node at `parent`.
    Insert {
        /// Logical document name within the target database.
        doc: String,
        /// Pre ordinal of the element the fragment becomes a child of.
        parent: u32,
        /// The fragment text; must parse to a single rooted element.
        xml: String,
    },
    /// Remove the node at `pre` and its entire subtree.
    Delete {
        /// Logical document name within the target database.
        doc: String,
        /// Pre ordinal of the subtree root to remove.
        pre: u32,
    },
    /// Replace the text content of the node at `pre` (a text node, an
    /// attribute, or a leaf element).
    SetText {
        /// Logical document name within the target database.
        doc: String,
        /// Pre ordinal of the node whose content is replaced.
        pre: u32,
        /// The new content.
        text: String,
    },
}

impl UpdateOp {
    /// The logical document name the operation targets.
    pub fn doc(&self) -> &str {
        match self {
            UpdateOp::Insert { doc, .. }
            | UpdateOp::Delete { doc, .. }
            | UpdateOp::SetText { doc, .. } => doc,
        }
    }
}

/// What one committed update did: the new catalog entry, the update
/// engine's summary, and how the selective-invalidation pass treated the
/// caches (see [`Service::apply_update`]).
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// The entry published for the post-update epoch.
    pub entry: Arc<CatalogEntry>,
    /// The update engine's account of the mutation.
    pub summary: xmldb::UpdateSummary,
    /// Cached plans carried into the new epoch (footprint provably
    /// disjoint from the mutation).
    pub plans_seeded: u64,
    /// Match-cache entries carried into the new epoch.
    pub matches_seeded: u64,
    /// Of those, entries only the per-chain precise footprints could prove
    /// safe — the conservative whole-plan footprint would have dropped
    /// them.
    pub matches_extra: u64,
    /// Plan-cache entries of superseded epochs purged after seeding.
    pub plans_invalidated: u64,
    /// Cached plans whose carry set (the plan's whole and per-chain
    /// footprints) this commit had to compute
    /// (first commit to see the plan); every other plan reused its set.
    pub carry_sets_computed: u64,
}

/// The concurrent query service. See the crate docs for the architecture.
///
/// `Service` is `Send + Sync`; wrap it in an `Arc` to share across
/// connection handlers. Dropping it drains admitted requests and joins the
/// worker threads.
pub struct Service {
    catalog: Catalog,
    engine: Engine,
    cache: Mutex<LruCache<CachedPlan>>,
    matches: Option<Arc<cache::MatchStore>>,
    metrics: Metrics,
    pool: Pool<WorkResult>,
    default_deadline: Option<Duration>,
    client_wait: Option<Duration>,
    queue_depth: usize,
    /// Serializes [`Service::apply_update`] commits so two concurrent
    /// updates cannot clone the same base snapshot and silently lose one
    /// of the two mutations. Reads never take this lock.
    commit: Mutex<()>,
}

impl Service {
    /// Builds a service over a loaded database, registered in the catalog
    /// as [`DEFAULT_DB`].
    pub fn new(db: Arc<Database>, config: ServiceConfig) -> Service {
        let catalog = Catalog::new();
        catalog.register(DEFAULT_DB, db).expect("default name is valid");
        let matches = (config.match_cache_bytes > 0)
            .then(|| Arc::new(cache::MatchStore::new(config.match_cache_bytes)));
        Service {
            catalog,
            engine: config.engine,
            cache: Mutex::new(LruCache::new(config.plan_cache_capacity)),
            matches,
            metrics: Metrics::new(),
            pool: Pool::new(config.workers, config.queue_depth),
            default_deadline: config.default_deadline,
            client_wait: config.client_wait,
            queue_depth: config.queue_depth,
            commit: Mutex::new(()),
        }
    }

    /// The current snapshot of the default database ([`DEFAULT_DB`]).
    pub fn database(&self) -> Arc<Database> {
        Arc::clone(self.entry(DEFAULT_DB).expect("default db registered").database())
    }

    /// The name every session starts on.
    pub fn default_database(&self) -> &'static str {
        DEFAULT_DB
    }

    /// Whether `name` is a registered database.
    pub fn has_database(&self, name: &str) -> bool {
        self.catalog.contains(name)
    }

    /// Point-in-time listing of the catalog.
    pub fn databases(&self) -> Vec<catalog::CatalogRow> {
        self.catalog.list()
    }

    /// The catalog listing as text (`.catalog` in the wire protocol).
    pub fn catalog_report(&self) -> String {
        catalog::render(&self.catalog.list())
    }

    /// Loads a file (TLCX snapshot or XML) and publishes it under `name`,
    /// registering a new database or hot-swapping an existing one. Stale
    /// cached plans are invalidated before this returns.
    pub fn open(&self, name: &str, path: &Path) -> Result<Arc<CatalogEntry>, ServiceError> {
        let entry = self.catalog.open(name, path).map_err(ServiceError::Catalog)?;
        self.after_swap(&entry);
        Ok(entry)
    }

    /// Like [`Service::open`], but a *new* name is published at `epoch`
    /// instead of 0 — the manifest-restore path ([`crate::manifest`]),
    /// which keeps epochs monotonic across a server restart. Existing
    /// names hot-swap as usual (the epoch argument is ignored).
    pub fn open_at(
        &self,
        name: &str,
        path: &Path,
        epoch: u64,
    ) -> Result<Arc<CatalogEntry>, ServiceError> {
        // A restored first publication has nothing cached to purge and is
        // not a swap; only a pre-existing name takes the swap bookkeeping.
        let existed = self.catalog.contains(name);
        let entry = self.catalog.open_at(name, path, epoch).map_err(ServiceError::Catalog)?;
        if existed {
            self.after_swap(&entry);
        }
        Ok(entry)
    }

    /// Publishes an in-memory database under `name` (hot swap if the name
    /// exists). This is the programmatic equivalent of [`Service::open`].
    pub fn install(
        &self,
        name: &str,
        db: Arc<Database>,
    ) -> Result<Arc<CatalogEntry>, ServiceError> {
        let entry = self.catalog.register(name, db).map_err(ServiceError::Catalog)?;
        self.after_swap(&entry);
        Ok(entry)
    }

    /// Re-reads `name`'s source file and hot-swaps the result in. Returns
    /// the new entry and how many cached plans the swap invalidated.
    /// In-flight requests finish against the snapshot they resolved.
    pub fn reload(&self, name: &str) -> Result<(Arc<CatalogEntry>, u64), ServiceError> {
        let entry = self.catalog.reload(name).map_err(ServiceError::Catalog)?;
        let invalidated = self.after_swap(&entry);
        Ok((entry, invalidated))
    }

    /// Post-publish bookkeeping: purge plans *and match-cache entries* of
    /// superseded epochs (the epoch-keyed caches could never serve them,
    /// but they would squat in their LRUs) and record the swap. First
    /// registrations (epoch 0) are not swaps and purge nothing.
    fn after_swap(&self, entry: &CatalogEntry) -> u64 {
        if entry.epoch() == 0 {
            return 0;
        }
        let live = cache::epoch_prefix(entry.name(), entry.epoch());
        let all = cache::db_prefix(entry.name());
        let stale = |key: &str| key.starts_with(&all) && !key.starts_with(&live);
        let invalidated = self.cache.lock().unwrap().purge_where(stale);
        if let Some(store) = &self.matches {
            store.purge_where(stale);
        }
        self.metrics.record_swap(entry.name(), invalidated);
        invalidated
    }

    /// Unregisters `name` from the catalog and purges every cached plan
    /// and match-cache entry it owned, returning `(plans, match entries)`
    /// purged. The default database cannot be dropped — the service is
    /// constructed around it and every session starts there. In-flight
    /// requests holding the entry finish against their pinned snapshot.
    pub fn drop_database(&self, name: &str) -> Result<(u64, u64), ServiceError> {
        if name == DEFAULT_DB {
            return Err(ServiceError::Unsupported(format!(
                "cannot drop the default database {DEFAULT_DB:?}"
            )));
        }
        self.catalog.remove(name).map_err(ServiceError::Catalog)?;
        let prefix = cache::db_prefix(name);
        let plans = self.cache.lock().unwrap().purge_where(|k| k.starts_with(&prefix));
        let entries =
            self.matches.as_ref().map_or(0, |s| s.purge_where(|k| k.starts_with(&prefix)));
        Ok((plans, entries))
    }

    /// Commits one node-level mutation against database `db` as a
    /// **copy-on-write epoch**: the current snapshot is cloned, the update
    /// engine ([`xmldb::update`]) mutates the clone in place (maintaining
    /// both indexes incrementally), and the result is published as the
    /// next epoch. In-flight readers keep the snapshot they resolved;
    /// nothing they hold changes under them.
    ///
    /// The clone shares structure with the snapshot it came from (see
    /// [`xmldb::Database`]): the mutation copies only the arena chunks,
    /// posting lists and value partitions it changes, so a commit costs
    /// O(mutation) rather than O(database). Consecutive epochs share
    /// everything else.
    ///
    /// Unlike a wholesale hot swap, an update knows exactly what it
    /// touched, so the caches are **selectively** invalidated rather than
    /// flushed: every cached plan of the superseded epoch whose static
    /// [`tlc::Footprint`] is provably disjoint from the mutation — it
    /// never reads the mutated document, or none of the mutation's
    /// affected tags appears in its patterns — is carried into the new
    /// epoch's key space, together with its match-cache entries
    /// ([`tlc::match_chain_footprints`]). Match entries additionally embed node
    /// ordinals, so when the update had to renumber
    /// ([`xmldb::UpdateSummary::renumbered`]) nothing in the mutated
    /// document's match entries survives, while plans (which bind only tag
    /// ids and document names) still carry. Everything not carried is
    /// purged. The footprints come from each cached plan's
    /// carry set, computed once per plan rather than per commit.
    ///
    /// Updates serialize against each other on an internal commit lock;
    /// queries never take it.
    pub fn apply_update(&self, db: &str, op: &UpdateOp) -> Result<UpdateOutcome, ServiceError> {
        let _commit = self.commit.lock().unwrap();
        let started = Instant::now();
        let base = self.entry(db)?;
        let mut next: Database = (**base.database()).clone();
        let doc =
            next.document_by_name(op.doc()).map_err(|e| ServiceError::Update(e.to_string()))?;
        let summary = match op {
            UpdateOp::Insert { parent, xml, .. } => {
                xmldb::insert_subtree(&mut next, doc, *parent, xml)
            }
            UpdateOp::Delete { pre, .. } => xmldb::delete_subtree(&mut next, doc, *pre),
            UpdateOp::SetText { pre, text, .. } => xmldb::set_text(&mut next, doc, *pre, text),
        }
        .map_err(|e| ServiceError::Update(e.to_string()))?;
        let entry = self.catalog.register(db, Arc::new(next)).map_err(ServiceError::Catalog)?;
        // Seed the new epoch before purging the old one, so a plan or
        // match entry that survives is never even transiently absent.
        let old_prefix = cache::epoch_prefix(entry.name(), base.epoch());
        let new_prefix = cache::epoch_prefix(entry.name(), entry.epoch());
        let all = cache::db_prefix(entry.name());
        let stale = |key: &str| key.starts_with(&all) && !key.starts_with(&new_prefix);
        let mut plans_seeded = 0u64;
        let mut carry_sets_computed = 0u64;
        let mut carry_keys: Vec<String> = Vec::new();
        let mut extra_keys: Vec<String> = Vec::new();
        let plans_invalidated = {
            let mut plans = self.cache.lock().unwrap();
            for (key, cached) in plans.collect_prefixed(&old_prefix) {
                let (carry, computed) = cached.carry_set();
                carry_sets_computed += u64::from(computed);
                let decision = carry.decide(op.doc(), &summary.affected_tags, summary.renumbered);
                // Per-chain footprints can still prove chains of an
                // overlapping plan untouched; those count as extra.
                let keys = if decision.precise_only { &mut extra_keys } else { &mut carry_keys };
                keys.extend(decision.chains.iter().map(|k| k.to_string()));
                if decision.plan {
                    // Re-seeding the same `Arc<CachedPlan>` carries the
                    // carry set across the epoch for free.
                    let text = &key[old_prefix.len()..];
                    plans.insert(&format!("{new_prefix}{text}"), Arc::clone(&cached));
                    plans_seeded += 1;
                }
            }
            plans.purge_where(stale)
        };
        let (matches_seeded, matches_extra) = self.matches.as_ref().map_or((0, 0), |store| {
            carry_keys.sort();
            carry_keys.dedup();
            extra_keys.sort();
            extra_keys.dedup();
            extra_keys.retain(|k| carry_keys.binary_search(k).is_err());
            let carried = store.carry(&old_prefix, &new_prefix, &carry_keys);
            let extra = store.carry(&old_prefix, &new_prefix, &extra_keys);
            store.purge_where(stale);
            (carried + extra, extra)
        });
        self.metrics.record_swap(entry.name(), plans_invalidated);
        self.metrics.record_update(entry.name(), plans_seeded, matches_seeded, matches_extra);
        self.metrics.record_commit(
            entry.name(),
            started.elapsed(),
            summary.records_copied as u64,
            carry_sets_computed,
        );
        Ok(UpdateOutcome {
            entry,
            summary,
            plans_seeded,
            matches_seeded,
            matches_extra,
            plans_invalidated,
            carry_sets_computed,
        })
    }

    /// The published entry (current snapshot and epoch) of database `db`.
    pub fn entry(&self, db: &str) -> Result<Arc<CatalogEntry>, ServiceError> {
        self.catalog.resolve(db).map_err(ServiceError::Catalog)
    }

    /// Compiles `query` against database `db` and renders its
    /// static-analysis report ([`explain`], `.explain` in the wire
    /// protocol), recording the prune and lint counts in the metrics.
    pub fn explain(&self, db: &str, query: &str) -> Result<String, ServiceError> {
        let entry = self.entry(db)?;
        let report = explain(self.engine, entry.database(), query)?;
        self.metrics.record_analysis(
            entry.name(),
            report.pruned,
            report.ops_eliminated,
            report.lints,
        );
        Ok(report.text)
    }

    /// The configured engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Compiles `query` against the default database (or fetches its
    /// cached plan) without executing it.
    ///
    /// The returned handle can be executed any number of times with
    /// [`Service::execute_prepared`]; textually different spellings of the
    /// same query (whitespace aside) share one cache entry. The handle
    /// pins the snapshot it was compiled against, so it stays valid — and
    /// keeps answering from that snapshot — across hot swaps.
    pub fn prepare(&self, query: &str) -> Result<PlanHandle, ServiceError> {
        self.prepare_on(DEFAULT_DB, query)
    }

    /// Like [`Service::prepare`] against a named catalog database.
    pub fn prepare_on(&self, db: &str, query: &str) -> Result<PlanHandle, ServiceError> {
        self.prepare_inner(db, query).map(|(handle, _)| handle)
    }

    /// Like [`Service::prepare_on`], also reporting whether the plan was
    /// cached.
    fn prepare_inner(&self, db: &str, query: &str) -> Result<(PlanHandle, bool), ServiceError> {
        if self.engine == Engine::Nav {
            return Err(ServiceError::Unsupported(
                "NAV is interpreted per request; nothing to prepare".into(),
            ));
        }
        let entry = self.entry(db)?;
        let normalized = cache::normalize_query(query);
        let key = cache::plan_key(entry.name(), entry.epoch(), &normalized);
        if let Some(cached) = self.cache.lock().unwrap().get(&key) {
            self.metrics.record_cache(entry.name(), true, 0);
            return Ok((PlanHandle { entry, normalized: normalized.into(), cached }, true));
        }
        // Compile outside the cache lock: compilation is the expensive part,
        // and holding the lock would serialize concurrent misses. Two racing
        // misses both compile; the loser's insert replaces in place, which
        // is harmless (plans for the same text and epoch are
        // interchangeable). A swap racing this compile is harmless too: the
        // entry we resolved pins the old snapshot, the insert lands under
        // the old epoch's key, and no later lookup (which keys on the new
        // epoch) can retrieve it.
        let plan = Arc::new(
            baselines::plan_for(self.engine, query, entry.database())
                .map_err(ServiceError::Compile)?,
        );
        // Gate the cache behind the static LC dataflow analysis: a plan that
        // fails verification would be served to every later request for the
        // same text, so a poisoned plan must never enter the LRU.
        tlc::analyze::verify(&plan).map_err(|e| ServiceError::Compile(tlc::Error::Analyze(e)))?;
        // Liveness-prune the compiled plan before caching — for every
        // engine, not just the optimizing ones: the rewrite only removes
        // provably dead work and is re-verified here, and the equivalence
        // suite pins byte-identical output. Lints are counted against the
        // *unpruned* plan (they describe what the user wrote).
        let lints = tlc::lint(&plan, entry.database()).len() as u64;
        let (pruned, report) = tlc::prune_with_report(&plan);
        let changed = report.changed() && tlc::analyze::verify(&pruned).is_ok();
        self.metrics.record_analysis(entry.name(), changed, report.ops_eliminated() as u64, lints);
        let plan = if changed { Arc::new(pruned) } else { plan };
        let cached = Arc::new(CachedPlan::new(plan));
        let evictions = self.cache.lock().unwrap().insert(&key, Arc::clone(&cached));
        self.metrics.record_cache(entry.name(), false, evictions);
        Ok((PlanHandle { entry, normalized: normalized.into(), cached }, false))
    }

    /// Compiles (through the plan cache) and executes `query` against the
    /// default database under the default deadline.
    pub fn execute(&self, query: &str) -> Result<Response, ServiceError> {
        self.execute_opts(DEFAULT_DB, query, self.default_deadline)
    }

    /// Like [`Service::execute`] against a named catalog database.
    pub fn execute_on(&self, db: &str, query: &str) -> Result<Response, ServiceError> {
        self.execute_opts(db, query, self.default_deadline)
    }

    /// Like [`Service::execute`] with an explicit wall-clock budget for
    /// this request alone.
    pub fn execute_with_deadline(
        &self,
        query: &str,
        budget: Duration,
    ) -> Result<Response, ServiceError> {
        self.execute_opts(DEFAULT_DB, query, Some(budget))
    }

    /// Like [`Service::execute_on`] with an explicit wall-clock budget.
    pub fn execute_on_with_deadline(
        &self,
        db: &str,
        query: &str,
        budget: Duration,
    ) -> Result<Response, ServiceError> {
        self.execute_opts(db, query, Some(budget))
    }

    fn execute_opts(
        &self,
        db: &str,
        query: &str,
        budget: Option<Duration>,
    ) -> Result<Response, ServiceError> {
        if self.engine == Engine::Nav {
            // Interpreted engine: no plan, no cache; the deadline still
            // guards queue time (checked at dequeue).
            let text = query.to_string();
            let label = cache::normalize_query(query);
            return self.run_on_snapshot(db, &label, budget, move |snapshot| {
                baselines::run(Engine::Nav, &text, snapshot).map_err(ServiceError::Execute)
            });
        }
        let admitted = Instant::now();
        let deadline = budget.map(|b| admitted + b);
        let (handle, cached) = self.prepare_inner(db, query)?;
        self.execute_handle(&handle, cached, admitted, deadline)
    }

    /// Runs `work` over the current snapshot of database `db` on the worker
    /// pool, as one request labelled `label`: the same admission, deadline,
    /// panic containment and metrics path a query takes. The resolved entry
    /// pins the snapshot for the whole run. The interpreted NAV engine is
    /// served through this; `work` returns the reply text.
    pub fn run_on_snapshot<F>(
        &self,
        db: &str,
        label: &str,
        budget: Option<Duration>,
        work: F,
    ) -> Result<Response, ServiceError>
    where
        F: FnOnce(&Database) -> Result<String, ServiceError> + Send + 'static,
    {
        let admitted = Instant::now();
        let deadline = budget.map(|b| admitted + b);
        let entry = self.entry(db)?;
        let snapshot = Arc::clone(entry.database());
        let work: Box<dyn FnOnce() -> WorkResult + Send> =
            Box::new(move || work(&snapshot).map(|out| (out, ExecStats::new())));
        self.dispatch(label.to_string(), false, &entry, admitted, deadline, work)
    }

    /// Executes a prepared plan under the default deadline, against the
    /// snapshot the handle was compiled on (hot swaps do not redirect it).
    pub fn execute_prepared(&self, handle: &PlanHandle) -> Result<Response, ServiceError> {
        let admitted = Instant::now();
        let deadline = self.default_deadline.map(|b| admitted + b);
        self.execute_handle(handle, true, admitted, deadline)
    }

    fn execute_handle(
        &self,
        handle: &PlanHandle,
        cached: bool,
        admitted: Instant,
        deadline: Option<Instant>,
    ) -> Result<Response, ServiceError> {
        let db = Arc::clone(handle.entry.database());
        let plan = Arc::clone(handle.cached.plan());
        // The executor sees the match store through a view scoped to this
        // request's `(database, epoch)` — the scoping, not the executor,
        // is what makes serving across hot swaps impossible.
        let match_cache: Option<Arc<dyn tlc::MatchCache>> = self.matches.as_ref().map(|store| {
            Arc::new(cache::ScopedMatchCache::new(
                Arc::clone(store),
                handle.entry.name(),
                handle.entry.epoch(),
            )) as Arc<dyn tlc::MatchCache>
        });
        let work: Box<dyn FnOnce() -> WorkResult + Send> = Box::new(move || {
            let mut ctx = tlc::ExecCtx::new();
            ctx.deadline = deadline;
            ctx.cache = match_cache;
            match tlc::execute_with_ctx(&db, &plan, &mut ctx) {
                Ok(trees) => Ok((tlc::serialize_results(&db, &trees), ctx.stats)),
                Err(tlc::Error::DeadlineExceeded) => Err(ServiceError::DeadlineExceeded),
                Err(other) => Err(ServiceError::Execute(other)),
            }
        });
        self.dispatch(
            handle.normalized.to_string(),
            cached,
            &handle.entry,
            admitted,
            deadline,
            work,
        )
    }

    fn dispatch(
        &self,
        label: String,
        cache_hit: bool,
        entry: &Arc<CatalogEntry>,
        admitted: Instant,
        deadline: Option<Instant>,
        work: Box<dyn FnOnce() -> WorkResult + Send>,
    ) -> Result<Response, ServiceError> {
        let rx = self.pool.submit(deadline, work).map_err(|e| match e {
            SubmitError::QueueFull => {
                self.metrics.record_outcome(Outcome::Rejected);
                ServiceError::Overloaded { queue_depth: self.queue_depth }
            }
            SubmitError::Disconnected => ServiceError::ShuttingDown,
        })?;
        // Wait for the reply — bounded when a client-side wait deadline is
        // configured. Giving up leaves the job to finish on its worker
        // (the reply channel is buffered, so the worker never blocks on a
        // departed caller).
        let reply = match self.client_wait {
            None => rx.recv().map_err(|_| ServiceError::ShuttingDown)?,
            Some(limit) => match rx.recv_timeout(limit) {
                Ok(reply) => reply,
                Err(RecvTimeoutError::Timeout) => {
                    self.metrics.record_outcome(Outcome::Abandoned);
                    return Err(ServiceError::Abandoned { waited: limit });
                }
                Err(RecvTimeoutError::Disconnected) => return Err(ServiceError::ShuttingDown),
            },
        };
        let total_time = admitted.elapsed();
        match reply {
            Reply::Done { value: Ok((output, stats)), queue_wait } => {
                self.metrics.record_queue_wait(queue_wait);
                self.metrics.record_request(&label, total_time, &stats);
                Ok(Response {
                    output,
                    stats,
                    cache_hit,
                    db_name: entry.shared_name(),
                    db_epoch: entry.epoch(),
                    total_time,
                })
            }
            Reply::Done { value: Err(e), queue_wait } => {
                self.metrics.record_queue_wait(queue_wait);
                self.metrics.record_outcome(match e {
                    ServiceError::DeadlineExceeded => Outcome::Deadline,
                    _ => Outcome::Error,
                });
                Err(e)
            }
            Reply::ExpiredInQueue { queue_wait } => {
                self.metrics.record_queue_wait(queue_wait);
                self.metrics.record_outcome(Outcome::Deadline);
                Err(ServiceError::DeadlineExceeded)
            }
            Reply::Panicked { message, queue_wait } => {
                self.metrics.record_queue_wait(queue_wait);
                self.metrics.record_outcome(Outcome::Panicked);
                Err(ServiceError::Internal(message))
            }
        }
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().unwrap().stats()
    }

    /// Match-cache counters, or `None` when the cache is disabled
    /// (`match_cache_bytes == 0`).
    pub fn match_cache_stats(&self) -> Option<CacheStats> {
        self.matches.as_ref().map(|s| s.stats())
    }

    /// Dispatch counters from the worker pool (one job per dispatch).
    pub fn batch_stats(&self) -> pool::BatchStats {
        self.pool.batch_stats()
    }

    /// Aggregate metrics snapshot.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// The full text metrics report (`.metrics` in the wire protocol):
    /// request/cache/latency counters, match-cache and worker-pool lines,
    /// followed by the catalog listing.
    pub fn metrics_report(&self) -> String {
        let mut report = self.metrics.report();
        match self.match_cache_stats() {
            Some(s) => {
                let lookups = s.hits + s.misses;
                let rate = if lookups == 0 { 0.0 } else { s.hits as f64 / lookups as f64 * 100.0 };
                let invalidated = self.matches.as_ref().map_or(0, |m| m.invalidated());
                report.push_str(&format!(
                    "match cache: {} hits / {lookups} lookups ({rate:.1}% hit rate), {} evictions, {invalidated} invalidated, {} entr(ies), {}/{} bytes\n",
                    s.hits, s.evictions, s.len, s.bytes, s.byte_budget
                ));
            }
            None => report.push_str("match cache: disabled\n"),
        }
        report.push_str(&format!(
            "worker pool: {} worker(s), {} job(s) dispatched\n",
            self.pool.workers(),
            self.pool.batch_stats().jobs
        ));
        report.push_str(&self.catalog_report());
        report
    }

    /// Number of executor threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }
}

/// A static-analysis report, as `.explain` prints it, plus the counts the
/// service records in its metrics.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The report text, one section per `== heading ==`.
    pub text: String,
    /// Class-liveness pruning would change the plan.
    pub pruned: bool,
    /// Operators pruning eliminates.
    pub ops_eliminated: u64,
    /// Lint warnings raised.
    pub lints: u64,
}

/// Compiles `query` with `engine` against `db` and renders the
/// static-analysis view shared by the service's and the shell's
/// `.explain`: the compiled plan, its inferred type (per-class
/// cardinalities, root, order), its read-effect footprint, what
/// class-liveness pruning removes, and every lint warning. No plan cache is
/// involved, so the report always describes the *unpruned* translation of
/// what the user wrote.
pub fn explain(engine: Engine, db: &Database, query: &str) -> Result<Explain, ServiceError> {
    if engine == Engine::Nav {
        return Err(ServiceError::Unsupported(
            "NAV is interpreted per request; nothing to explain".into(),
        ));
    }
    let plan = baselines::plan_for(engine, query, db).map_err(ServiceError::Compile)?;
    let t = tlc::analyze(&plan).map_err(|e| ServiceError::Compile(tlc::Error::Analyze(e)))?;
    let fp = tlc::plan_footprint(&plan);
    let (pruned, report) = tlc::prune_with_report(&plan);
    let lints = tlc::lint(&plan, db);
    let interner = db.interner();
    let mut out = String::new();
    out.push_str(&format!(
        "== plan ({} operator(s), engine {engine:?}) ==\n{}",
        plan.operator_count(),
        plan.display(Some(db))
    ));
    let classes: Vec<String> = t.classes.iter().map(|(l, c)| format!("{l}:{c:?}")).collect();
    out.push_str(&format!(
        "== type ==\nclasses: {}\nroot: {}\norder: {:?}\n",
        if classes.is_empty() { "(none)".to_string() } else { classes.join(" ") },
        t.root.map_or_else(|| "(none)".to_string(), |r| r.to_string()),
        t.order
    ));
    out.push_str("== footprint ==\n");
    out.push_str(&format!("docs: {}\n", join_or_none(fp.docs.iter().cloned())));
    for (doc, tags) in &fp.doc_tags {
        let names = join_or_none(tags.iter().map(|&t| interner.name(t).to_string()));
        out.push_str(&format!("tags[{doc}]: {names}\n"));
    }
    out.push_str(&format!(
        "steps: {} child, {} descendant; {} value predicate(s)\n",
        fp.child_steps,
        fp.descendant_steps,
        fp.preds.len()
    ));
    out.push_str("== liveness ==\n");
    if report.changed() {
        out.push_str(&format!(
            "pruned: {} DupElim(s) removed, {} select(s) eliminated, {} star subtree(s) dropped, {} dead Project column(s)\n",
            report.dupelims_removed,
            report.selects_eliminated,
            report.star_subtrees_pruned,
            report.dead_project_columns.len()
        ));
        out.push_str(&format!("pruned plan:\n{}", pruned.display(Some(db))));
    } else {
        out.push_str("nothing to prune\n");
    }
    out.push_str("== lints ==\n");
    if lints.is_empty() {
        out.push_str("no warnings\n");
    } else {
        for l in &lints {
            out.push_str(&format!("{l}\n"));
        }
    }
    Ok(Explain {
        text: out,
        pruned: report.changed(),
        ops_eliminated: report.ops_eliminated() as u64,
        lints: lints.len() as u64,
    })
}

fn join_or_none(items: impl Iterator<Item = String>) -> String {
    let v: Vec<String> = items.collect();
    if v.is_empty() {
        "(none)".to_string()
    } else {
        v.join(", ")
    }
}

// The concurrency contract, checked at compile time: plans and the database
// are freely shareable across worker threads, and the service itself can be
// wrapped in an Arc and used from any number of connection handlers.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Plan>();
    assert_send_sync::<Database>();
    assert_send_sync::<ExecStats>();
    assert_send_sync::<Service>();
    assert_send_sync::<PlanHandle>();
    assert_send_sync::<Catalog>();
    assert_send_sync::<CatalogEntry>();
    assert_send_sync::<CachedPlan>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_service(config: ServiceConfig) -> Service {
        let db = Arc::new(xmark::auction_database(0.001));
        Service::new(db, config)
    }

    const Q: &str = r#"FOR $p IN document("auction.xml")//person RETURN $p/name"#;

    #[test]
    fn execute_matches_direct_run() {
        let svc = tiny_service(ServiceConfig::default());
        let direct = baselines::run(Engine::Tlc, Q, &svc.database()).unwrap();
        let resp = svc.execute(Q).unwrap();
        assert_eq!(resp.output, direct);
        assert!(!resp.cache_hit);
        assert_eq!(&*resp.db_name, DEFAULT_DB);
        assert_eq!(resp.db_epoch, 0);
        assert!(svc.execute(Q).unwrap().cache_hit);
    }

    #[test]
    fn prepare_then_execute_prepared() {
        let svc = tiny_service(ServiceConfig::default());
        let handle = svc.prepare(Q).unwrap();
        assert!(handle.plan().operator_count() > 0);
        let a = svc.execute_prepared(&handle).unwrap();
        let b = svc.execute_prepared(&handle).unwrap();
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn compile_errors_are_typed() {
        let svc = tiny_service(ServiceConfig::default());
        match svc.execute("THIS IS NOT XQUERY") {
            Err(ServiceError::Compile(_)) => {}
            other => panic!("expected compile error, got {other:?}"),
        }
    }

    #[test]
    fn zero_budget_deadline_exceeds() {
        let svc = tiny_service(ServiceConfig::default());
        match svc.execute_with_deadline(Q, Duration::ZERO) {
            Err(ServiceError::DeadlineExceeded) => {}
            other => panic!("expected deadline error, got {other:?}"),
        }
        // The worker is still healthy afterwards.
        assert!(svc.execute(Q).is_ok());
        assert!(svc.metrics_snapshot().deadline >= 1);
    }

    #[test]
    fn nav_engine_is_served_uncached() {
        let svc = tiny_service(ServiceConfig { engine: Engine::Nav, ..Default::default() });
        let resp = svc.execute(Q).unwrap();
        let direct = baselines::run(Engine::Nav, Q, &svc.database()).unwrap();
        assert_eq!(resp.output, direct);
        assert!(!resp.cache_hit);
        assert!(matches!(svc.prepare(Q), Err(ServiceError::Unsupported(_))));
    }

    #[test]
    fn metrics_report_reflects_traffic() {
        let svc = tiny_service(ServiceConfig::default());
        svc.execute(Q).unwrap();
        svc.execute(Q).unwrap();
        let report = svc.metrics_report();
        assert!(report.contains("50.0% hit rate"), "{report}");
        assert!(report.contains("queue wait: count=2"), "{report}");
        let snap = svc.metrics_snapshot();
        assert_eq!(snap.ok, 2);
        assert!(snap.exec.pattern_matches > 0);
        assert_eq!(snap.queue_wait.count(), 2);
        // The catalog listing rides along in the report.
        assert!(report.contains("catalog: 1 database(s)"), "{report}");
    }

    #[test]
    fn install_hot_swaps_and_invalidates_cached_plans() {
        let svc = tiny_service(ServiceConfig::default());
        svc.execute(Q).unwrap();
        assert!(svc.execute(Q).unwrap().cache_hit);
        let swapped = svc.install(DEFAULT_DB, Arc::new(xmark::auction_database(0.002))).unwrap();
        assert_eq!(swapped.epoch(), 1);
        // Same text, new epoch: must recompile against the new snapshot.
        let resp = svc.execute(Q).unwrap();
        assert!(!resp.cache_hit, "stale plan served across a hot swap");
        assert_eq!(resp.db_epoch, 1);
        let direct = baselines::run(Engine::Tlc, Q, &svc.database()).unwrap();
        assert_eq!(resp.output, direct);
        let snap = svc.metrics_snapshot();
        let counters = snap.db(DEFAULT_DB).expect("per-db counters");
        assert_eq!(counters.swaps, 1);
        assert_eq!(counters.invalidated, 1);
    }

    #[test]
    fn prepared_handle_pins_its_snapshot_across_swaps() {
        let svc = tiny_service(ServiceConfig::default());
        let handle = svc.prepare(Q).unwrap();
        let before = svc.execute_prepared(&handle).unwrap();
        svc.install(DEFAULT_DB, Arc::new(xmark::auction_database(0.002))).unwrap();
        // The handle still answers — from the old snapshot it was compiled
        // against, which its entry keeps alive.
        let after = svc.execute_prepared(&handle).unwrap();
        assert_eq!(before.output, after.output);
        assert_eq!(after.db_epoch, 0);
        assert_eq!(svc.execute(Q).unwrap().db_epoch, 1);
    }

    #[test]
    fn execute_on_unknown_database_is_a_catalog_error() {
        let svc = tiny_service(ServiceConfig::default());
        match svc.execute_on("nope", Q) {
            Err(ServiceError::Catalog(CatalogError::Unknown(name))) => {
                assert_eq!(name, "nope");
            }
            other => panic!("expected unknown-database error, got {other:?}"),
        }
    }

    #[test]
    fn match_cache_serves_repeats_byte_identically() {
        let svc = tiny_service(ServiceConfig::default());
        let cold = svc.execute(Q).unwrap();
        assert!(cold.stats.match_cache_misses > 0, "{:?}", cold.stats);
        let warm = svc.execute(Q).unwrap();
        assert_eq!(warm.output, cold.output);
        assert!(warm.stats.match_cache_hits > 0, "{:?}", warm.stats);
        assert_eq!(warm.stats.pattern_matches, 0, "warm run must skip structural matching");
        let s = svc.match_cache_stats().expect("cache enabled by default");
        assert!(s.hits > 0 && s.bytes > 0, "{s:?}");
        let report = svc.metrics_report();
        assert!(report.contains("match cache:"), "{report}");
        assert!(report.contains("worker pool:"), "{report}");
    }

    #[test]
    fn disabled_match_cache_rematches_every_request() {
        let svc = tiny_service(ServiceConfig { match_cache_bytes: 0, ..Default::default() });
        svc.execute(Q).unwrap();
        let again = svc.execute(Q).unwrap();
        assert!(again.cache_hit, "plan cache stays on");
        assert_eq!(again.stats.match_cache_hits, 0);
        assert!(again.stats.pattern_matches > 0);
        assert!(svc.match_cache_stats().is_none());
        assert!(svc.metrics_report().contains("match cache: disabled"));
    }

    #[test]
    fn hot_swap_invalidates_match_entries() {
        let svc = tiny_service(ServiceConfig::default());
        svc.execute(Q).unwrap();
        assert!(svc.match_cache_stats().unwrap().len > 0);
        svc.install(DEFAULT_DB, Arc::new(xmark::auction_database(0.002))).unwrap();
        let store = svc.matches.as_ref().unwrap();
        assert!(store.invalidated() > 0, "swap must purge superseded match entries");
        assert_eq!(svc.match_cache_stats().unwrap().len, 0);
        // The first request after the swap re-matches against the new
        // snapshot and must agree with the single-threaded reference.
        let resp = svc.execute(Q).unwrap();
        assert_eq!(resp.db_epoch, 1);
        assert!(resp.stats.match_cache_hits == 0, "{:?}", resp.stats);
        let direct = baselines::run(Engine::Tlc, Q, &svc.database()).unwrap();
        assert_eq!(resp.output, direct);
    }

    #[test]
    fn drop_database_purges_both_caches_and_rejects_default() {
        let svc = tiny_service(ServiceConfig::default());
        svc.install("side", Arc::new(xmark::auction_database(0.001))).unwrap();
        svc.execute_on("side", Q).unwrap();
        let (plans, entries) = svc.drop_database("side").unwrap();
        assert_eq!(plans, 1);
        assert!(entries > 0, "match entries for the dropped db must go");
        assert!(!svc.has_database("side"));
        assert!(matches!(
            svc.execute_on("side", Q),
            Err(ServiceError::Catalog(CatalogError::Unknown(_)))
        ));
        assert!(matches!(svc.drop_database(DEFAULT_DB), Err(ServiceError::Unsupported(_))));
        assert!(matches!(
            svc.drop_database("never-there"),
            Err(ServiceError::Catalog(CatalogError::Unknown(_)))
        ));
        // The default database is untouched.
        assert!(svc.execute(Q).is_ok());
    }

    #[test]
    fn concurrent_same_template_traffic_agrees() {
        let svc = Arc::new(tiny_service(ServiceConfig {
            workers: 2,
            queue_depth: 64,
            ..Default::default()
        }));
        let reference = baselines::run(Engine::Tlc, Q, &svc.database()).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let svc = Arc::clone(&svc);
                let reference = reference.clone();
                s.spawn(move || {
                    for _ in 0..8 {
                        let resp = svc.execute(Q).unwrap();
                        assert_eq!(resp.output, reference);
                    }
                });
            }
        });
        let b = svc.batch_stats();
        assert_eq!((b.batches, b.jobs, b.max_batch), (32, 32, 1), "one job per dispatch");
        let s = svc.match_cache_stats().unwrap();
        assert!(s.hits > 0, "{s:?}");
    }

    #[test]
    fn apply_update_seeds_disjoint_plans_and_match_entries() {
        let svc = tiny_service(ServiceConfig::default());
        const QB: &str = r#"FOR $i IN document("auction.xml")//item RETURN $i/location"#;
        svc.execute(Q).unwrap();
        svc.execute(QB).unwrap();
        assert!(svc.execute(QB).unwrap().cache_hit);
        let person = svc.database().nodes_with_tag("person")[0];
        let op = UpdateOp::Insert {
            doc: "auction.xml".into(),
            parent: person.pre,
            xml: "<phone>555-0100</phone>".into(),
        };
        let outcome = svc.apply_update(DEFAULT_DB, &op).unwrap();
        assert_eq!(outcome.entry.epoch(), 1);
        assert!(outcome.summary.nodes_added >= 1);
        assert_eq!(outcome.plans_seeded, 1, "only the item/location plan is disjoint");
        assert!(outcome.matches_seeded > 0, "its match entries must carry too");
        // The disjoint query survives the epoch with both caches warm: the
        // plan is served from the seeded entry and the match cache skips
        // structural matching entirely.
        let warm = svc.execute(QB).unwrap();
        assert!(warm.cache_hit, "seeded plan must hit across the update epoch");
        assert_eq!(warm.db_epoch, 1);
        assert!(warm.stats.match_cache_hits > 0, "{:?}", warm.stats);
        assert_eq!(warm.stats.pattern_matches, 0, "carried match entry skips matching");
        // The overlapping query (person is on the mutation's ancestor
        // chain) must recompile and re-match.
        let qa = svc.execute(Q).unwrap();
        assert!(!qa.cache_hit, "overlapping plan must not survive the mutation");
        // Both answers agree with the single-threaded reference against
        // the post-update snapshot.
        assert_eq!(warm.output, baselines::run(Engine::Tlc, QB, &svc.database()).unwrap());
        assert_eq!(qa.output, baselines::run(Engine::Tlc, Q, &svc.database()).unwrap());
        // And the new snapshot actually contains the inserted node.
        assert!(!svc.database().nodes_with_tag("phone").is_empty());
        let snap = svc.metrics_snapshot();
        let c = snap.db(DEFAULT_DB).expect("per-db counters");
        assert_eq!((c.updates, c.plans_seeded), (1, 1));
        assert!(c.matches_seeded > 0);
        assert!(svc.metrics_report().contains("carried across epochs"));
    }

    #[test]
    fn renumbering_update_carries_plans_but_drops_match_entries() {
        let svc = tiny_service(ServiceConfig::default());
        let mut db = Database::new();
        db.load_xml("t.xml", "<r><a>seed</a><b>keep</b></r>").unwrap();
        svc.install("side", Arc::new(db)).unwrap();
        let qb = r#"FOR $b IN document("t.xml")//b RETURN $b"#;
        let reference = svc.execute_on("side", qb).unwrap().output;
        // Hammer inserts under <a> until the gap numbering is exhausted
        // and the engine renumbers.
        let mut renumber = None;
        for _ in 0..64 {
            let a = svc.entry("side").unwrap().database().nodes_with_tag("a")[0];
            let op = UpdateOp::Insert { doc: "t.xml".into(), parent: a.pre, xml: "<x/>".into() };
            let outcome = svc.apply_update("side", &op).unwrap();
            if outcome.summary.renumbered > 0 {
                renumber = Some(outcome);
                break;
            }
            // Until then, the disjoint <b> plan and its match entries ride
            // along every epoch.
            assert_eq!(outcome.plans_seeded, 1);
            assert!(outcome.matches_seeded > 0);
        }
        let outcome = renumber.expect("64 inserts under one parent must renumber");
        // Plans bind only tag ids and document names, so the <b> plan
        // still carries; match entries embed node ordinals, which the
        // renumbering moved, so none survive.
        assert_eq!(outcome.plans_seeded, 1);
        assert_eq!(outcome.matches_seeded, 0, "renumbering must drop match entries");
        let resp = svc.execute_on("side", qb).unwrap();
        assert!(resp.cache_hit, "plan survives the renumbering epoch");
        assert_eq!(resp.stats.match_cache_hits, 0, "{:?}", resp.stats);
        assert!(resp.stats.pattern_matches > 0, "must re-match against new ordinals");
        assert_eq!(resp.output, reference, "<b> subtree is untouched by the updates");
    }

    #[test]
    fn carry_sets_are_computed_once_per_cached_plan() {
        let svc = tiny_service(ServiceConfig::default());
        const QB: &str = r#"FOR $i IN document("auction.xml")//item RETURN $i/location"#;
        const QC: &str = r#"FOR $c IN document("auction.xml")//category RETURN $c/name"#;
        svc.execute(QB).unwrap();
        svc.execute(QC).unwrap();
        let mut computed = 0;
        for round in 0..5 {
            let person = svc.database().nodes_with_tag("person")[0];
            let op = UpdateOp::Insert {
                doc: "auction.xml".into(),
                parent: person.pre,
                xml: format!("<phone>555-01{round:02}</phone>"),
            };
            let outcome = svc.apply_update(DEFAULT_DB, &op).unwrap();
            assert_eq!(outcome.plans_seeded, 2, "round {round}: both plans are disjoint");
            computed += outcome.carry_sets_computed;
            if round == 0 {
                assert_eq!(outcome.carry_sets_computed, 2, "first commit computes both sets");
            }
        }
        assert_eq!(computed, 2, "carried plans reuse their carry sets");
        // A plan compiled after the commits gets its set at the next one.
        svc.execute(Q).unwrap();
        let age = svc.database().nodes_with_tag("phone")[0];
        let op = UpdateOp::SetText { doc: "auction.xml".into(), pre: age.pre, text: "x".into() };
        assert_eq!(svc.apply_update(DEFAULT_DB, &op).unwrap().carry_sets_computed, 1);
        let snap = svc.metrics_snapshot();
        let c = snap.db(DEFAULT_DB).expect("per-db counters");
        assert_eq!((c.updates, c.carry_sets_computed), (6, 3));
        assert!(c.records_copied > 0, "every commit copies the chunks it edits");
        assert_eq!(snap.commit.count(), 6);
        let report = svc.metrics_report();
        assert!(report.contains("3 carry set(s) computed"), "{report}");
        assert!(report.contains("commits: count=6"), "{report}");
        // The answers still match a from-scratch evaluation.
        for q in [Q, QB, QC] {
            let expect = baselines::run(Engine::Tlc, q, &svc.database()).unwrap();
            assert_eq!(svc.execute(q).unwrap().output, expect);
        }
    }

    #[test]
    fn apply_update_rejections_are_typed() {
        let svc = tiny_service(ServiceConfig::default());
        let bad_doc = UpdateOp::Delete { doc: "nope.xml".into(), pre: 1 };
        assert!(matches!(svc.apply_update(DEFAULT_DB, &bad_doc), Err(ServiceError::Update(_))));
        let root = UpdateOp::Delete { doc: "auction.xml".into(), pre: 0 };
        assert!(matches!(svc.apply_update(DEFAULT_DB, &root), Err(ServiceError::Update(_))));
        let no_db = UpdateOp::SetText { doc: "auction.xml".into(), pre: 1, text: "x".into() };
        assert!(matches!(
            svc.apply_update("ghost", &no_db),
            Err(ServiceError::Catalog(CatalogError::Unknown(_)))
        ));
        // A failed update publishes nothing.
        assert_eq!(svc.entry(DEFAULT_DB).unwrap().epoch(), 0);
    }

    #[test]
    fn cached_plan_rides_carry_across_update_epochs() {
        let svc = tiny_service(ServiceConfig::default());
        const QB: &str = r#"FOR $i IN document("auction.xml")//item RETURN $i/location"#;
        svc.execute(QB).unwrap();
        let person = svc.database().nodes_with_tag("person")[0];
        let op = UpdateOp::Insert {
            doc: "auction.xml".into(),
            parent: person.pre,
            xml: "<phone>555-0100</phone>".into(),
        };
        let outcome = svc.apply_update(DEFAULT_DB, &op).unwrap();
        assert_eq!(outcome.plans_seeded, 1);
        let warm = svc.execute(QB).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.db_epoch, 1);
        assert_eq!(warm.output, baselines::run(Engine::Tlc, QB, &svc.database()).unwrap());
    }

    #[test]
    fn client_wait_deadline_abandons_slow_replies() {
        // A zero client wait can't lose the race reliably on a fast
        // machine, so retry a few times; one abandonment is enough.
        let svc =
            tiny_service(ServiceConfig { client_wait: Some(Duration::ZERO), ..Default::default() });
        let mut abandoned = false;
        for _ in 0..32 {
            if let Err(ServiceError::Abandoned { waited }) = svc.execute(Q) {
                assert_eq!(waited, Duration::ZERO);
                abandoned = true;
                break;
            }
        }
        assert!(abandoned, "zero-wait client never abandoned a reply");
        assert!(svc.metrics_snapshot().abandoned >= 1);
        // The pool survives abandonment: a patient caller still gets served.
        let patient = tiny_service(ServiceConfig {
            client_wait: Some(Duration::from_secs(60)),
            ..Default::default()
        });
        assert!(patient.execute(Q).is_ok());
    }

    #[test]
    fn update_mid_sweep_never_tears_reads() {
        // A writer bumps the epoch via in-place updates while readers
        // sweep; every answer must match the single-threaded reference for
        // the exact epoch that served it — a torn read (a request straddling
        // two snapshots) could match neither.
        let svc = Arc::new(tiny_service(ServiceConfig {
            workers: 2,
            queue_depth: 32,
            ..Default::default()
        }));
        let mut snapshots: Vec<(u64, Arc<Database>)> = vec![(0, svc.database())];
        let answers: Vec<(u64, String)> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let svc = Arc::clone(&svc);
                    s.spawn(move || {
                        let mut seen = Vec::new();
                        for _ in 0..20 {
                            let resp = svc.execute(Q).unwrap();
                            seen.push((resp.db_epoch, resp.output));
                        }
                        seen
                    })
                })
                .collect();
            for i in 0..6 {
                let parent = svc.database().nodes_with_tag("person")[i].pre;
                let op = UpdateOp::Insert {
                    doc: "auction.xml".into(),
                    parent,
                    xml: format!("<phone>555-{i:04}</phone>"),
                };
                let outcome = svc.apply_update(DEFAULT_DB, &op).unwrap();
                snapshots.push((outcome.entry.epoch(), Arc::clone(outcome.entry.database())));
                std::thread::sleep(Duration::from_millis(2));
            }
            readers.into_iter().flat_map(|r| r.join().unwrap()).collect()
        });
        assert!(!answers.is_empty());
        for (epoch, output) in answers {
            let snapshot = &snapshots.iter().find(|(e, _)| *e == epoch).unwrap().1;
            let reference = baselines::run(Engine::Tlc, Q, snapshot).unwrap();
            assert_eq!(output, reference, "epoch {epoch}: torn or stale read");
        }
    }
}
