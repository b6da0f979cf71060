//! Seeded differential soundness oracle for the static-analysis framework.
//!
//! Generates hundreds of random — but statically valid — plans with
//! [`tlc::random_plan`] over an XMark database and checks, per plan, every
//! claim the analyzer makes against what actually happens at runtime:
//!
//! * **cardinality** — the executed result set of every subplan conforms to
//!   its inferred [`tlc::PlanType`] ([`tlc::check_conformance`], the same
//!   oracle debug builds run on every test execution);
//! * **liveness pruning** — `tlc::prune_with_report` output still verifies
//!   and serializes byte-identically to the unpruned plan;
//! * **empty-select lints** — a Select the linter calls *statically empty*
//!   really produces zero trees when executed alone;
//! * **footprint carry** — replaying the service's selective
//!   cache-invalidation decision: pattern-match entries for chains whose
//!   [`tlc::Footprint`] is disjoint from a seeded mutation are carried into
//!   the post-mutation snapshot, and the answer there must byte-match a
//!   from-scratch execution;
//! * **match-cache transparency** — every verified plan runs three ways
//!   (no cache, cold cache, then warm over the entries the cold run left
//!   behind); all three must serialize to the same bytes, or all three
//!   must fail.
//!
//! Any discrepancy is a soundness violation, not noise: the generator only
//! emits plans the analyzer accepted, so the analyzer has vouched for every
//! claim checked here.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tlc::{ExecCtx, MatchCache, Plan, ResultTree};
use xmark::rng::{RngExt, SeedableRng, StdRng};
use xmldb::Database;

/// The document every generated plan is anchored at.
const DOC: &str = "auction.xml";

/// Tallies from one oracle run. Every `*_violations` field must be zero.
#[derive(Debug, Clone, Default)]
pub struct LintcheckReport {
    /// Plans generated and checked.
    pub plans: usize,
    /// Wrapper operators across all generated plans (generation diversity).
    pub wrappers: usize,
    /// Plans the final optional Construct wrapper applied to.
    pub constructs: usize,
    /// Lint warnings raised across all plans.
    pub lints: u64,
    /// Match-cache chain entries carried across the seeded mutation.
    pub chains_carried: u64,
    /// Chain entries the footprints forced to be dropped.
    pub chains_dropped: u64,
    /// Generated plans that failed verification or execution.
    pub exec_violations: u64,
    /// Subplan result sets that broke their inferred cardinality/order.
    pub conformance_violations: u64,
    /// Pruned plans that failed verification or diverged byte-wise.
    pub prune_violations: u64,
    /// "Statically empty" selects that produced trees when executed.
    pub empty_select_violations: u64,
    /// Carried-cache executions that diverged from a fresh execution.
    pub carry_violations: u64,
    /// Plans replayed with no, a cold and a warm match cache.
    pub cache_plans: u64,
    /// Plans whose cold- or warm-cache answer diverged from the uncached
    /// one (output bytes, or one side failing alone).
    pub cache_violations: u64,
}

impl LintcheckReport {
    /// Whether the run saw zero soundness violations.
    pub fn clean(&self) -> bool {
        self.exec_violations == 0
            && self.conformance_violations == 0
            && self.prune_violations == 0
            && self.empty_select_violations == 0
            && self.carry_violations == 0
            && self.cache_violations == 0
    }

    /// Multi-line human-readable summary.
    pub fn render(&self, factor: f64, seed: u64) -> String {
        format!(
            "Differential soundness oracle, XMark factor {factor}, seed {seed}\n\
             {} random plan(s) checked ({} wrapper op(s), {} Construct(s)), {} lint(s) raised\n\
             footprint carry: {} chain entr(ies) carried, {} dropped\n\
             match cache: {} plan(s) replayed uncached, cold and warm\n\
             violations: {} exec, {} conformance, {} prune, {} empty-select, {} carry, {} cache\n",
            self.plans,
            self.wrappers,
            self.constructs,
            self.lints,
            self.chains_carried,
            self.chains_dropped,
            self.cache_plans,
            self.exec_violations,
            self.conformance_violations,
            self.prune_violations,
            self.empty_select_violations,
            self.carry_violations,
            self.cache_violations,
        )
    }

    /// The run as one JSON object (hand-rolled; no serialization dependency).
    pub fn to_json(&self, factor: f64, seed: u64) -> String {
        format!(
            "{{\"experiment\":\"lintcheck\",\"factor\":{factor},\"seed\":{seed},\
             \"plans\":{},\"wrappers\":{},\"constructs\":{},\"lints\":{},\
             \"chains_carried\":{},\"chains_dropped\":{},\
             \"exec_violations\":{},\"conformance_violations\":{},\
             \"prune_violations\":{},\"empty_select_violations\":{},\
             \"carry_violations\":{},\"cache_plans\":{},\"cache_violations\":{},\
             \"clean\":{}}}\n",
            self.plans,
            self.wrappers,
            self.constructs,
            self.lints,
            self.chains_carried,
            self.chains_dropped,
            self.exec_violations,
            self.conformance_violations,
            self.prune_violations,
            self.empty_select_violations,
            self.carry_violations,
            self.cache_plans,
            self.cache_violations,
            self.clean(),
        )
    }
}

/// A transparent match cache: an unbounded map the executor populates as it
/// runs, which the oracle then filters chain-by-chain to replay the
/// service's footprint-based carry decision.
#[derive(Default)]
struct RecordingCache {
    entries: Mutex<BTreeMap<String, Arc<Vec<ResultTree>>>>,
}

impl RecordingCache {
    fn take(&self) -> BTreeMap<String, Arc<Vec<ResultTree>>> {
        std::mem::take(&mut self.entries.lock().expect("cache lock"))
    }

    fn seed(entries: BTreeMap<String, Arc<Vec<ResultTree>>>) -> RecordingCache {
        RecordingCache { entries: Mutex::new(entries) }
    }
}

impl MatchCache for RecordingCache {
    fn get(&self, key: &str) -> Option<Arc<Vec<ResultTree>>> {
        self.entries.lock().expect("cache lock").get(key).cloned()
    }

    fn put(&self, key: &str, trees: &[ResultTree]) {
        self.entries.lock().expect("cache lock").insert(key.to_string(), Arc::new(trees.to_vec()));
    }
}

/// Builds the oracle's database: XMark at `factor` plus a tiny probe
/// document whose tags exist in the interner but nowhere in `auction.xml`,
/// so the generator can (and will) produce statically-empty selects.
pub fn oracle_database(factor: f64) -> Database {
    let mut db = crate::setup(factor);
    db.load_xml("probe.xml", "<probe><probeonly>absent tag probe</probeonly></probe>")
        .expect("probe document parses");
    db
}

/// Runs the oracle: `plans` seeded random plans over a fresh
/// [`oracle_database`], each put through the four differential checks.
/// Violation messages go to stderr as they are found.
pub fn run(factor: f64, plans: usize, seed: u64) -> LintcheckReport {
    let db = oracle_database(factor);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA076_1D64_78BD_642F);
    let mut report = LintcheckReport { plans, ..LintcheckReport::default() };
    for i in 0..plans {
        let gp = tlc::random_plan(&db, DOC, seed.wrapping_add(i as u64));
        report.wrappers += gp.wrappers;
        report.constructs += usize::from(matches!(gp.plan, Plan::Construct { .. }));
        check_one(&db, &gp.plan, gp.seed, &mut rng, &mut report);
    }
    report
}

fn check_one(
    db: &Database,
    plan: &Plan,
    seed: u64,
    rng: &mut StdRng,
    report: &mut LintcheckReport,
) {
    if let Err(e) = tlc::verify(plan) {
        eprintln!("lintcheck seed {seed}: generated plan fails verification: {e:?}");
        report.exec_violations += 1;
        return;
    }
    report.lints += tlc::lint(plan, db).len() as u64;

    // Cardinality/order conformance of every subplan's actual result set —
    // and, along the way, the empty-select lint's runtime claim.
    let mut sound = true;
    for_each_subplan(plan, &mut |sub| {
        let trees = match tlc::execute(db, sub) {
            Ok((trees, _)) => trees,
            Err(e) => {
                eprintln!("lintcheck seed {seed}: subplan failed to execute: {e}");
                report.exec_violations += 1;
                sound = false;
                return;
            }
        };
        if let Err(e) = tlc::check_conformance(sub, &trees) {
            eprintln!("lintcheck seed {seed}: conformance violation: {e}");
            report.conformance_violations += 1;
            sound = false;
        }
        if matches!(sub, Plan::Select { .. }) && !trees.is_empty() {
            let empty = tlc::lint(sub, db).into_iter().any(|l| {
                l.code == tlc::LintCode::EmptySelect && l.message.contains("statically empty")
            });
            if empty {
                eprintln!(
                    "lintcheck seed {seed}: select linted statically empty produced {} tree(s)",
                    trees.len()
                );
                report.empty_select_violations += 1;
                sound = false;
            }
        }
    });
    if !sound {
        return;
    }

    // Liveness pruning must preserve behaviour byte-for-byte.
    let (pruned, prune) = tlc::prune_with_report(plan);
    if prune.changed() {
        if tlc::verify(&pruned).is_err() {
            eprintln!("lintcheck seed {seed}: pruned plan fails verification");
            report.prune_violations += 1;
            return;
        }
        let before = tlc::execute_to_string(db, plan);
        let after = tlc::execute_to_string(db, &pruned);
        match (before, after) {
            (Ok(a), Ok(b)) if a == b => {}
            (Err(_), Err(_)) => {}
            _ => {
                eprintln!("lintcheck seed {seed}: pruning changed the plan's output");
                report.prune_violations += 1;
                return;
            }
        }
    }

    check_cache(db, plan, seed, report);
    check_footprint_carry(db, plan, seed, rng, report);
}

/// Differential check of the match cache: run the plan with no cache, a
/// cold cache, and a warm cache (the entries the cold run recorded); all
/// three must serialize to the same bytes, or all three must fail.
fn check_cache(db: &Database, plan: &Plan, seed: u64, report: &mut LintcheckReport) {
    report.cache_plans += 1;
    let exec = |cache: Option<Arc<RecordingCache>>| {
        let mut ctx = ExecCtx::new();
        ctx.cache = cache.map(|c| c as Arc<dyn MatchCache>);
        tlc::execute_with_ctx(db, plan, &mut ctx).map(|trees| tlc::serialize_results(db, &trees))
    };
    let recorder = Arc::new(RecordingCache::default());
    let runs = [
        ("no", exec(None)),
        ("cold", exec(Some(Arc::clone(&recorder)))),
        ("warm", exec(Some(recorder))),
    ];
    for (state, run) in &runs[1..] {
        let agree = match (&runs[0].1, run) {
            (Ok(a), Ok(b)) => a == b,
            (a, b) => a.is_err() && b.is_err(),
        };
        if !agree {
            eprintln!("lintcheck seed {seed}: {state} cache diverged from the uncached run");
            report.cache_violations += 1;
            return;
        }
    }
}

/// Replays the service's selective cache invalidation on one plan: record
/// every chain's pattern-match result, apply a seeded settext mutation,
/// carry exactly the entries whose chain footprint is provably unaffected,
/// and demand that executing over the carried cache byte-matches a
/// from-scratch execution on the mutated snapshot.
fn check_footprint_carry(
    db: &Database,
    plan: &Plan,
    seed: u64,
    rng: &mut StdRng,
    report: &mut LintcheckReport,
) {
    // Record the pre-mutation chain entries.
    let recorder = Arc::new(RecordingCache::default());
    let mut ctx = ExecCtx::new().with_cache(Arc::clone(&recorder) as Arc<dyn MatchCache>);
    if tlc::execute_with_ctx(db, plan, &mut ctx).is_err() {
        return; // already counted by the conformance pass
    }
    let recorded = recorder.take();

    // A seeded settext on a random element of a random tag. Retry a few
    // tags in case the draw lands on one with no postings.
    let interner = db.interner();
    let mutation = (0..8).find_map(|_| {
        let tag = xmldb::TagId(rng.random_range(0..interner.len() as u32));
        if tag == interner.doc_tag() || tag == interner.text_tag() {
            return None;
        }
        let name = interner.name(tag);
        if name.starts_with('@') {
            return None;
        }
        let nodes = db.nodes_with_tag(&name);
        if nodes.is_empty() {
            return None;
        }
        Some((tag, nodes[rng.random_range(0..nodes.len())].pre))
    });
    let Some((_, pre)) = mutation else { return };
    let mut next = db.clone();
    let Ok(doc) = next.document_by_name(DOC) else { return };
    let Ok(summary) = xmldb::set_text(&mut next, doc, pre, &format!("lintcheck probe {seed}"))
    else {
        return;
    };

    // The service's carry decision, chain by chain.
    let mut carried = BTreeMap::new();
    for (key, fp) in tlc::match_chain_footprints(plan) {
        let safe = !fp.docs.contains(DOC)
            || (summary.renumbered == 0 && !fp.overlaps(DOC, &summary.affected_tags));
        match recorded.get(&key) {
            Some(entry) if safe => {
                carried.insert(key, Arc::clone(entry));
                report.chains_carried += 1;
            }
            Some(_) => report.chains_dropped += 1,
            None => {}
        }
    }

    let fresh = tlc::execute_to_string(&next, plan);
    let cache = Arc::new(RecordingCache::seed(carried));
    let mut ctx = ExecCtx::new().with_cache(cache as Arc<dyn MatchCache>);
    let replay = tlc::execute_with_ctx(&next, plan, &mut ctx)
        .map(|trees| tlc::serialize_results(&next, &trees));
    match (fresh, replay) {
        (Ok(a), Ok(b)) if a == b => {}
        (Err(_), Err(_)) => {}
        _ => {
            eprintln!("lintcheck seed {seed}: carried match entries changed the answer");
            report.carry_violations += 1;
        }
    }
}

fn for_each_subplan(plan: &Plan, f: &mut impl FnMut(&Plan)) {
    f(plan);
    for input in plan.inputs() {
        for_each_subplan(input, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_is_clean_on_a_small_batch() {
        let report = run(0.0005, 40, 23);
        assert!(report.clean(), "oracle found violations:\n{}", report.render(0.0005, 23));
        assert_eq!(report.plans, 40);
        assert!(report.wrappers > 0, "generator produced only bare selects");
        assert_eq!(report.cache_plans, 40, "every plan replays through the match cache");
    }

    #[test]
    fn oracle_exercises_the_footprint_carry_path() {
        let report = run(0.0005, 60, 5);
        assert!(report.clean(), "{}", report.render(0.0005, 5));
        assert!(
            report.chains_carried > 0,
            "no chain entry was ever carried — the precise footprints buy nothing"
        );
        assert!(report.lints > 0, "no lint ever fired across 60 random plans");
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = LintcheckReport {
            plans: 3,
            wrappers: 5,
            constructs: 1,
            lints: 2,
            chains_carried: 4,
            chains_dropped: 1,
            ..LintcheckReport::default()
        };
        let doc = report.to_json(0.01, 9);
        assert!(doc.contains("\"experiment\":\"lintcheck\""));
        assert!(doc.contains("\"plans\":3"));
        assert!(doc.contains("\"cache_plans\":"));
        assert!(doc.contains("\"cache_violations\":0"));
        assert!(doc.contains("\"clean\":true"));
        assert!(report.clean());
    }
}
