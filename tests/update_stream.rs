//! Seeded property test for the in-place update engine: random
//! insert/delete/settext streams, checked step by step.
//!
//! After **every** mutation the test asserts two things:
//!
//! 1. the mutated store passes the full invariant check (`xmldb::check` —
//!    interval encoding, arena layout, index completeness), and
//! 2. a set of probe queries answers **byte-identically** on the mutated
//!    store and on a from-scratch reference built by serializing the
//!    mutated document back to XML and reparsing it — so incremental index
//!    maintenance can never drift from what a rebuild would produce.
//!
//! Consecutive epochs share storage (untouched arena chunks, posting lists
//! and value partitions), so the test also re-serializes the last few
//! superseded snapshots after every commit and requires their bytes to be
//! unchanged, and bounds how much of the store each commit copied.
//!
//! Streams are drawn from a seeded splitmix generator (no external
//! property-testing crate), so failures replay exactly. The generator
//! deliberately targets *existing* nodes of the evolving document —
//! including previously inserted ones — so deletes and settexts compound
//! over the run and the gap-exhaustion renumbering fallback is reached.

use tlc_xml::{baselines, service, xmldb};

use baselines::Engine;
use service::{Service, ServiceConfig, UpdateOp};
use std::sync::Arc;
use xmldb::{Database, NodeKind};

/// Splitmix64, same construction as `tests/properties.rs`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const DOC: &str = "auction.xml";

/// Probe queries over the mutation tag alphabet. Chosen to cross the
/// mutated region in different ways: full-subtree serialization, child
/// steps, descendant steps, and a predicate on text content.
fn probes() -> [&'static str; 4] {
    [
        r#"FOR $a IN document("auction.xml")//a RETURN $a"#,
        r#"FOR $b IN document("auction.xml")//a/b RETURN $b"#,
        r#"FOR $c IN document("auction.xml")//c RETURN $c"#,
        r#"FOR $b IN document("auction.xml")//b WHERE $b = "hit" RETURN $b"#,
    ]
}

/// Serializes `db`'s document back to XML and reparses it from scratch.
fn reparse(db: &Database) -> Database {
    let doc = db.document_by_name(DOC).expect("document exists");
    let xml = xmldb::serialize::serialize_subtree(db, db.root(doc));
    let mut fresh = Database::new();
    fresh.load_xml(DOC, &xml).expect("reparse");
    fresh
}

/// Pre ordinals of every element node, and of the leaf elements among
/// them (no non-attribute children — the ones `set_text` accepts).
fn element_pres(db: &Database) -> (Vec<u32>, Vec<u32>) {
    let doc = db.document_by_name(DOC).expect("document exists");
    let recs = db.document(doc).records();
    let mut all = Vec::new();
    let mut leaves = Vec::new();
    for r in recs {
        if r.kind != NodeKind::Element {
            continue;
        }
        all.push(r.pre);
        let has_child = recs.iter().any(|c| c.parent == r.pre && c.kind != NodeKind::Attribute);
        if !has_child {
            leaves.push(r.pre);
        }
    }
    (all, leaves)
}

/// Draws the next mutation against the current snapshot. Never empties the
/// document: the document element itself is not deleted.
fn next_op(rng: &mut Rng, db: &Database, step: usize) -> UpdateOp {
    let (elements, leaves) = element_pres(db);
    let target = elements[rng.below(elements.len())];
    match rng.below(10) {
        // Insert under a random element: nested or flat, sometimes with
        // attributes, sometimes with the text the predicate probe hunts.
        0..=4 => {
            let xml = match rng.below(4) {
                0 => format!("<a><b>hit</b><c>s{step}</c></a>"),
                1 => format!("<b id=\"n{step}\">text {step}</b>"),
                2 => "<c/>".to_string(),
                _ => format!("<a>top {step}<b>inner</b></a>"),
            };
            UpdateOp::Insert { doc: DOC.into(), parent: target, xml }
        }
        // Replace a random leaf element's text (empty text sometimes).
        5..=7 if !leaves.is_empty() => {
            let pre = leaves[rng.below(leaves.len())];
            let text = if rng.below(4) == 0 {
                String::new()
            } else {
                format!("v{} {step}", rng.below(100))
            };
            UpdateOp::SetText { doc: DOC.into(), pre, text }
        }
        // Delete a random non-root subtree; refill when the document is
        // too small to shrink further.
        _ => {
            if elements.len() >= 3 && target != elements[0] {
                UpdateOp::Delete { doc: DOC.into(), pre: target }
            } else {
                UpdateOp::Insert {
                    doc: DOC.into(),
                    parent: target,
                    xml: format!("<b>refill {step}</b>"),
                }
            }
        }
    }
}

/// The document's serialized bytes.
fn serialized(db: &Database) -> String {
    let doc = db.document_by_name(DOC).expect("document exists");
    xmldb::serialize::serialize_subtree(db, db.root(doc))
}

/// How many superseded epochs each step re-checks for isolation.
const KEEP_EPOCHS: usize = 4;

/// One full stream: `steps` random mutations through the service's
/// copy-on-write commit path over the `seed_xml` document, invariants,
/// probe answers and the isolation of recent epochs checked after every
/// single step.
fn run_stream(seed: u64, steps: usize, seed_xml: &str) -> usize {
    let mut db = Database::new();
    db.load_xml(DOC, seed_xml).expect("seed document");
    let svc = Service::new(Arc::new(db), ServiceConfig::default());
    let mut rng = Rng(seed);
    let mut renumbered = 0usize;
    let mut history: Vec<(Arc<Database>, String)> = Vec::new();

    for step in 0..steps {
        // Warm the caches so the seeding path (not just the purge path) is
        // exercised on every commit.
        for q in probes() {
            svc.execute(q).expect("probe query");
        }
        let superseded = svc.database();
        history.push((Arc::clone(&superseded), serialized(&superseded)));
        if history.len() > KEEP_EPOCHS {
            history.remove(0);
        }
        let op = next_op(&mut rng, &superseded, step);
        let outcome = svc
            .apply_update(svc.default_database(), &op)
            .unwrap_or_else(|e| panic!("seed {seed} step {step}: {op:?} failed: {e}"));
        renumbered += outcome.summary.renumbered;

        let snapshot = svc.database();
        for (old, bytes) in &history {
            assert_eq!(
                &serialized(old),
                bytes,
                "seed {seed} step {step}: {op:?} leaked into an older epoch"
            );
        }
        // Without renumbering a commit copies the chunks it edits plus the
        // insertion point's ancestor spine, never the document.
        let s = &outcome.summary;
        if s.renumbered == 0 {
            let bound = 16 * xmldb::document::CHUNK + s.nodes_removed;
            assert!(
                s.records_copied <= bound,
                "seed {seed} step {step}: copied {}",
                s.records_copied
            );
        }

        xmldb::check_database(&snapshot).unwrap_or_else(|e| {
            panic!("seed {seed} step {step}: store check failed after {op:?}: {e}")
        });
        let reference = reparse(&snapshot);
        for q in probes() {
            let live = svc.execute(q).expect("probe query").output;
            let fresh = baselines::run(Engine::Tlc, q, &reference).expect("reference run");
            assert_eq!(
                live, fresh,
                "seed {seed} step {step}: answer drift after {op:?} on query {q}"
            );
        }
    }
    renumbered
}

#[test]
fn random_update_streams_preserve_invariants_and_answers() {
    let mut renumbered = 0;
    for seed in [1, 42, 4096] {
        renumbered += run_stream(seed, 40, "<a><b>hit</b><c>seed text</c><a><b>deep</b></a></a>");
    }
    assert!(
        renumbered > 0,
        "no stream ever hit the renumbering fallback — generator too tame to trust"
    );
}

#[test]
fn random_streams_over_a_many_chunk_document_keep_epochs_isolated() {
    // ~2000 records: the document spans many arena chunks, so commits edit
    // some chunks and share the rest with the epoch before.
    let mut xml = String::from("<a>");
    for i in 0..400 {
        xml.push_str(&format!("<a><b>hit</b><c>s{i}</c><b id=\"x{i}\">t</b></a>"));
    }
    xml.push_str("</a>");
    for seed in [7, 99] {
        run_stream(seed, 25, &xml);
    }
}

#[test]
fn pure_insert_stream_exhausts_gaps_and_renumbers() {
    // Repeatedly appending under one parent halves the remaining gap each
    // time, so this must reach the renumbering fallback quickly and keep
    // answers intact through it.
    let mut db = Database::new();
    db.load_xml(DOC, "<a><b>hit</b></a>").expect("seed document");
    let svc = Service::new(Arc::new(db), ServiceConfig::default());
    let parent = svc.database().nodes_with_tag("a")[0].pre;
    let mut renumbered = 0usize;
    for step in 0..48 {
        let op = UpdateOp::Insert { doc: DOC.into(), parent, xml: format!("<c>s{step}</c>") };
        let outcome = svc.apply_update(svc.default_database(), &op).expect("insert");
        renumbered += outcome.summary.renumbered;
        let snapshot = svc.database();
        xmldb::check_database(&snapshot).expect("store check");
        let reference = reparse(&snapshot);
        for q in probes() {
            let live = svc.execute(q).expect("probe").output;
            let fresh = baselines::run(Engine::Tlc, q, &reference).expect("reference");
            assert_eq!(live, fresh, "step {step}: drift after append #{step} on {q}");
        }
    }
    assert!(renumbered > 0, "48 appends under one parent must exhaust the gap");
}
