//! The `experiments rw` workload: seeded mixed read/write traffic through
//! the in-place update engine, every read byte-checked against a
//! reparse-from-scratch reference.
//!
//! One driver interleaves reads (workload queries through the service, so
//! the plan and match caches engage and carry across epochs) with writes
//! ([`service::Service::apply_update`] — copy-on-write commit, epoch bump,
//! footprint-based cache seeding). After every write the *current* snapshot
//! is serialized back to XML and reparsed into a fresh store; each read's
//! answer must byte-match what the single-threaded engine computes on that
//! reparsed reference, and the mutated store must pass the full invariant
//! check. A mismatch is a correctness defect in the update engine or the
//! seeding rule, never noise.
//!
//! Writes stay within a dedicated `<note>` namespace: inserts append
//! `<note>` fragments under existing `person`/`item` elements, and
//! settext/delete target previously inserted notes, so the run mutates
//! every epoch without consuming the base document. The op stream is fully
//! determined by the seed and the write fraction.

use baselines::Engine;
use queries::all_queries;
use service::cache::CacheStats;
use service::catalog::DEFAULT_DB;
use service::{Service, ServiceConfig, UpdateOp};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tlc::ExecStats;
use xmark::rng::{RngExt, SeedableRng, StdRng};
use xmldb::Database;

/// Document the generator mutates (the only one XMark databases carry).
const DOC: &str = "auction.xml";

/// One `experiments rw` run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RwConfig {
    /// XMark scale factor of the starting database.
    pub factor: f64,
    /// Total operations (reads + writes) in the stream.
    pub ops: usize,
    /// Base RNG seed; the whole op stream is a function of it.
    pub seed: u64,
    /// Fraction of operations that are writes, in `[0, 1]`.
    pub write_fraction: f64,
}

/// What one mixed read/write run observed.
#[derive(Debug, Clone)]
pub struct RwReport {
    /// The write fraction this run was configured with.
    pub write_fraction: f64,
    /// Reads that completed.
    pub reads: u64,
    /// Writes that committed.
    pub writes: u64,
    /// Requests (either kind) that failed. Must be zero.
    pub errors: u64,
    /// Read answers that did not byte-match the reparsed reference.
    /// Must be zero.
    pub mismatches: u64,
    /// Post-write invariant checks that failed. Must be zero.
    pub check_failures: u64,
    /// Writes after which the snapshot they superseded no longer
    /// serialized to the bytes it had before the write — a mutation leaking
    /// through storage the two epochs share. Must be zero.
    pub isolation_failures: u64,
    /// Insert / settext / delete split of the committed writes.
    pub op_mix: [u64; 3],
    /// Nodes renumbered across all writes (gap-exhaustion fallbacks).
    pub renumbered: u64,
    /// Plans carried into new epochs by footprint disjointness.
    pub plans_seeded: u64,
    /// Match-cache entries carried into new epochs.
    pub matches_seeded: u64,
    /// Of those, chain entries carried *only* because the precise
    /// per-chain footprints proved them safe — the conservative
    /// whole-plan guard would have dropped them.
    pub matches_extra: u64,
    /// Store records the commits copied because the superseded epoch
    /// shared their arena chunk (the rest of each epoch is shared).
    pub records_copied: u64,
    /// Cached plans whose carry set a commit had to compute (once per
    /// plan, however many commits it is carried through).
    pub carry_sets_computed: u64,
    /// Epoch the default database reached.
    pub final_epoch: u64,
    /// Sorted read latencies.
    pub read_latencies: Vec<Duration>,
    /// Sorted write (commit) latencies — excludes reference rebuilds.
    pub write_latencies: Vec<Duration>,
    /// Plan cache counters at the end of the run.
    pub plan_cache: CacheStats,
    /// Match cache counters at the end of the run, if enabled.
    pub match_cache: Option<CacheStats>,
    /// Executor counters summed over all reads.
    pub stats: ExecStats,
}

impl RwReport {
    /// No failed ops, no byte mismatches, no invariant violations.
    pub fn clean(&self) -> bool {
        self.errors == 0
            && self.mismatches == 0
            && self.check_failures == 0
            && self.isolation_failures == 0
    }

    /// Reads per second of read wall-clock (commit and verification time
    /// excluded — this is service-side read cost under a mutating catalog).
    pub fn read_qps(&self) -> f64 {
        let busy: Duration = self.read_latencies.iter().sum();
        if busy.is_zero() {
            return 0.0;
        }
        self.reads as f64 / busy.as_secs_f64()
    }

    /// Exact quantile over the sorted `latencies` (`q` in `[0, 1]`).
    fn quantile(latencies: &[Duration], q: f64) -> Duration {
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        let rank = ((latencies.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        latencies[rank]
    }

    /// Plan-cache hit rate in `[0, 1]`.
    pub fn plan_hit_rate(&self) -> f64 {
        hit_rate(&self.plan_cache)
    }

    /// The text block `experiments rw` prints for this run.
    pub fn render(&self) -> String {
        format!(
            "write fraction {:.0}%: {} reads / {} writes (ins {} / set {} / del {}), epoch {}\n\
             \x20 read qps {:.1}, p50 {:.1?}, p95 {:.1?}; write p50 {:.1?}, p95 {:.1?}\n\
             \x20 plan cache hit rate {:.1}%, {} plan(s) and {} match entr(ies) carried \
             (+{} by precise footprints alone), {} node(s) renumbered\n\
             \x20 {} store record(s) copied ({:.0} per write), {} carry set(s) computed\n\
             \x20 mismatches {}, errors {}, check failures {}, isolation failures {}\n",
            self.write_fraction * 100.0,
            self.reads,
            self.writes,
            self.op_mix[0],
            self.op_mix[1],
            self.op_mix[2],
            self.final_epoch,
            self.read_qps(),
            Self::quantile(&self.read_latencies, 0.50),
            Self::quantile(&self.read_latencies, 0.95),
            Self::quantile(&self.write_latencies, 0.50),
            Self::quantile(&self.write_latencies, 0.95),
            self.plan_hit_rate() * 100.0,
            self.plans_seeded,
            self.matches_seeded,
            self.matches_extra,
            self.renumbered,
            self.records_copied,
            self.records_copied as f64 / self.writes.max(1) as f64,
            self.carry_sets_computed,
            self.mismatches,
            self.errors,
            self.check_failures,
            self.isolation_failures,
        )
    }

    /// This run as one JSON object (hand-rolled; the workspace carries no
    /// serialization dependency).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"write_fraction\":{},\"reads\":{},\"writes\":{},\"errors\":{},\
             \"mismatches\":{},\"check_failures\":{},\"isolation_failures\":{},\
             \"inserts\":{},\"settexts\":{},\"deletes\":{},\
             \"renumbered\":{},\"plans_seeded\":{},\"matches_seeded\":{},\
             \"matches_extra\":{},\"records_copied\":{},\"carry_sets_computed\":{},\
             \"final_epoch\":{},\"read_qps\":{:.1},\
             \"read_p50_us\":{},\"read_p95_us\":{},\
             \"write_p50_us\":{},\"write_p95_us\":{},\
             \"plan_cache\":{},\"match_cache\":{},\"exec_stats\":{}}}",
            self.write_fraction,
            self.reads,
            self.writes,
            self.errors,
            self.mismatches,
            self.check_failures,
            self.isolation_failures,
            self.op_mix[0],
            self.op_mix[1],
            self.op_mix[2],
            self.renumbered,
            self.plans_seeded,
            self.matches_seeded,
            self.matches_extra,
            self.records_copied,
            self.carry_sets_computed,
            self.final_epoch,
            self.read_qps(),
            Self::quantile(&self.read_latencies, 0.50).as_micros(),
            Self::quantile(&self.read_latencies, 0.95).as_micros(),
            Self::quantile(&self.write_latencies, 0.50).as_micros(),
            Self::quantile(&self.write_latencies, 0.95).as_micros(),
            cache_json(&self.plan_cache),
            self.match_cache.as_ref().map_or_else(|| "null".into(), cache_json),
            exec_stats_json(&self.stats),
        )
    }
}

/// `CacheStats` as a JSON object.
pub fn cache_json(s: &CacheStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"len\":{},\"hit_rate\":{:.4}}}",
        s.hits,
        s.misses,
        s.evictions,
        s.len,
        hit_rate(s)
    )
}

/// `ExecStats` as a JSON object.
pub fn exec_stats_json(s: &ExecStats) -> String {
    format!(
        "{{\"probes\":{},\"nodes_inspected\":{},\"pattern_matches\":{},\"trees_built\":{},\
         \"subtrees_materialized\":{},\"join_steps\":{},\"candidate_fetches\":{},\
         \"struct_cmps\":{},\"match_cache_hits\":{},\"match_cache_misses\":{}}}",
        s.probes,
        s.nodes_inspected,
        s.pattern_matches,
        s.trees_built,
        s.subtrees_materialized,
        s.join_steps,
        s.candidate_fetches,
        s.struct_cmps,
        s.match_cache_hits,
        s.match_cache_misses,
    )
}

fn hit_rate(s: &CacheStats) -> f64 {
    let lookups = s.hits + s.misses;
    if lookups == 0 {
        0.0
    } else {
        s.hits as f64 / lookups as f64
    }
}

/// The full `BENCH_rw.json` document for a sweep of write fractions over
/// one generated database.
pub fn sweep_json(factor: f64, ops: usize, seed: u64, runs: &[RwReport]) -> String {
    let runs: Vec<String> = runs.iter().map(RwReport::to_json).collect();
    format!(
        "{{\"experiment\":\"rw\",\"factor\":{factor},\"ops\":{ops},\"seed\":{seed},\
         \"runs\":[{}]}}\n",
        runs.join(",")
    )
}

/// Picks a random existing node with `tag`, by pre ordinal, from the
/// current snapshot. `None` when the tag has no postings.
fn pick(db: &Database, rng: &mut StdRng, tag: &str) -> Option<u32> {
    let nodes = db.nodes_with_tag(tag);
    if nodes.is_empty() {
        None
    } else {
        Some(nodes[rng.random_range(0..nodes.len())].pre)
    }
}

/// Draws the next write op against the current snapshot. Inserts hang a
/// fresh `<note>` under a random `person`/`item`/root element; settext and
/// delete target a random previously inserted note (falling back to insert
/// while none exist yet).
fn next_write(db: &Database, rng: &mut StdRng, n: u64) -> UpdateOp {
    let kind = rng.random_range(0..100u32);
    if kind >= 45 {
        if let Some(pre) = pick(db, rng, "note") {
            return if kind < 80 {
                UpdateOp::SetText { doc: DOC.into(), pre, text: format!("note v{n}") }
            } else {
                UpdateOp::Delete { doc: DOC.into(), pre }
            };
        }
    }
    let parent = pick(db, rng, "person")
        .or_else(|| pick(db, rng, "item"))
        .unwrap_or_else(|| db.nodes_with_tag("site")[0].pre);
    // Alternate attribute-bearing and plain fragments; payloads contain
    // spaces so serialization and the wire path stay honest about them.
    let xml = if n.is_multiple_of(2) {
        format!("<note>rw payload {n}</note>")
    } else {
        format!("<note seq=\"{n}\">rw payload {n}</note>")
    };
    UpdateOp::Insert { doc: DOC.into(), parent, xml }
}

/// The snapshot's workload document serialized back to XML.
fn document_xml(snapshot: &Database) -> String {
    let doc = snapshot.document_by_name(DOC).expect("snapshot carries the workload document");
    xmldb::serialize::serialize_subtree(snapshot, snapshot.root(doc))
}

/// Reparses serialized document XML into a fresh store — the from-scratch
/// reference every read is checked against.
fn reparse_reference(xml: &str) -> Database {
    let mut fresh = Database::new();
    fresh.load_xml(DOC, xml).expect("reference reparse");
    fresh
}

/// Runs one seeded mixed read/write stream through a fresh service over
/// `db` and reports what it observed.
pub fn run_on(db: Arc<Database>, cfg: &RwConfig) -> RwReport {
    let svc = Service::new(Arc::clone(&db), ServiceConfig::default());
    let texts: Vec<&'static str> = all_queries().iter().map(|q| q.text).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let write_per_mille = (cfg.write_fraction.clamp(0.0, 1.0) * 1000.0) as u32;

    // The current snapshot's bytes: the reference is reparsed from them,
    // and after the next write they must still be what the superseded
    // snapshot serializes to.
    let mut snapshot_xml = document_xml(&db);
    let mut reference = reparse_reference(&snapshot_xml);
    let mut ref_answers: HashMap<usize, String> = HashMap::new();
    let mut report = RwReport {
        write_fraction: cfg.write_fraction,
        reads: 0,
        writes: 0,
        errors: 0,
        mismatches: 0,
        check_failures: 0,
        isolation_failures: 0,
        op_mix: [0; 3],
        renumbered: 0,
        plans_seeded: 0,
        matches_seeded: 0,
        matches_extra: 0,
        records_copied: 0,
        carry_sets_computed: 0,
        final_epoch: 0,
        read_latencies: Vec::new(),
        write_latencies: Vec::new(),
        plan_cache: CacheStats::default(),
        match_cache: None,
        stats: ExecStats::new(),
    };

    for n in 0..cfg.ops as u64 {
        if rng.random_range(0..1000u32) < write_per_mille {
            let superseded = svc.database();
            let op = next_write(&superseded, &mut rng, n);
            let slot = match op {
                UpdateOp::Insert { .. } => 0,
                UpdateOp::SetText { .. } => 1,
                UpdateOp::Delete { .. } => 2,
            };
            let begun = Instant::now();
            match svc.apply_update(DEFAULT_DB, &op) {
                Ok(outcome) => {
                    report.write_latencies.push(begun.elapsed());
                    report.writes += 1;
                    report.op_mix[slot] += 1;
                    report.renumbered += outcome.summary.renumbered as u64;
                    report.plans_seeded += outcome.plans_seeded;
                    report.matches_seeded += outcome.matches_seeded;
                    report.matches_extra += outcome.matches_extra;
                    report.records_copied += outcome.summary.records_copied as u64;
                    report.carry_sets_computed += outcome.carry_sets_computed;
                    report.final_epoch = outcome.entry.epoch();
                    let snapshot = svc.database();
                    if xmldb::check_database(&snapshot).is_err() {
                        report.check_failures += 1;
                    }
                    if document_xml(&superseded) != snapshot_xml {
                        report.isolation_failures += 1;
                    }
                    snapshot_xml = document_xml(&snapshot);
                    reference = reparse_reference(&snapshot_xml);
                    ref_answers.clear();
                }
                Err(_) => report.errors += 1,
            }
        } else {
            let qi = rng.random_range(0..texts.len());
            let begun = Instant::now();
            match svc.execute(texts[qi]) {
                Ok(resp) => {
                    report.read_latencies.push(begun.elapsed());
                    report.reads += 1;
                    report.stats.absorb(&resp.stats);
                    let expect = ref_answers.entry(qi).or_insert_with(|| {
                        baselines::run(Engine::Tlc, texts[qi], &reference)
                            .expect("reference evaluation")
                    });
                    if resp.output != *expect {
                        report.mismatches += 1;
                    }
                }
                Err(_) => report.errors += 1,
            }
        }
    }
    report.read_latencies.sort_unstable();
    report.write_latencies.sort_unstable();
    report.plan_cache = svc.cache_stats();
    report.match_cache = svc.match_cache_stats();
    report
}

/// Runs the seeded stream at each write fraction, each over a fresh copy
/// of the same generated database.
pub fn sweep(factor: f64, ops: usize, seed: u64, fractions: &[f64]) -> Vec<RwReport> {
    let db = Arc::new(crate::setup(factor));
    fractions
        .iter()
        .map(|&write_fraction| {
            run_on(Arc::clone(&db), &RwConfig { factor, ops, seed, write_fraction })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_stream_is_clean_and_carries_cache_state() {
        let db = Arc::new(crate::setup(0.0005));
        let report = run_on(
            Arc::clone(&db),
            &RwConfig { factor: 0.0005, ops: 60, seed: 11, write_fraction: 0.3 },
        );
        assert!(report.clean(), "defects:\n{}", report.render());
        assert!(report.reads > 0 && report.writes > 0, "{}", report.render());
        assert_eq!(report.reads + report.writes, 60);
        assert!(report.final_epoch > 0, "writes must publish new epochs");
        assert!(
            report.plans_seeded > 0,
            "footprint-disjoint plans must carry across epochs:\n{}",
            report.render()
        );
        // Same seed, same stream, same observations.
        let again =
            run_on(db, &RwConfig { factor: 0.0005, ops: 60, seed: 11, write_fraction: 0.3 });
        assert_eq!(
            (again.reads, again.writes, again.op_mix),
            (report.reads, report.writes, report.op_mix)
        );
    }

    #[test]
    fn write_fraction_bounds_hold() {
        let db = Arc::new(crate::setup(0.0005));
        let all_reads = run_on(
            Arc::clone(&db),
            &RwConfig { factor: 0.0005, ops: 20, seed: 3, write_fraction: 0.0 },
        );
        assert_eq!((all_reads.writes, all_reads.reads), (0, 20));
        assert_eq!(all_reads.final_epoch, 0);
        let all_writes =
            run_on(db, &RwConfig { factor: 0.0005, ops: 20, seed: 3, write_fraction: 1.0 });
        assert_eq!((all_writes.writes, all_writes.reads), (20, 0));
        assert!(all_writes.clean(), "defects:\n{}", all_writes.render());
    }

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let latencies: Vec<Duration> = (1..=4).map(Duration::from_millis).collect();
        assert_eq!(RwReport::quantile(&latencies, 0.0), Duration::from_millis(1));
        assert_eq!(RwReport::quantile(&latencies, 0.5), Duration::from_millis(3));
        assert_eq!(RwReport::quantile(&latencies, 1.0), Duration::from_millis(4));
        assert_eq!(RwReport::quantile(&[], 0.5), Duration::ZERO);
    }

    #[test]
    fn json_documents_are_well_formed_enough() {
        let runs = sweep(0.0005, 30, 5, &[0.2]);
        let doc = sweep_json(0.0005, 30, 5, &runs);
        assert!(doc.starts_with("{\"experiment\":\"rw\""), "{doc}");
        assert!(doc.contains("\"write_fraction\":0.2"), "{doc}");
        assert!(doc.contains("\"exec_stats\":{"), "{doc}");
        assert!(doc.contains("\"plan_cache\":{"), "{doc}");
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
    }
}
