//! In-place update engine: node-level mutation over the interval encoding.
//!
//! Three mutations are supported — [`insert_subtree`], [`delete_subtree`]
//! and [`set_text`] — all operating directly on the pre-order arena while
//! keeping the tag and value indexes consistent *incrementally*: a mutation
//! only touches the posting lists of the tags it actually adds, removes, or
//! renumbers, never rebuilding an index wholesale.
//!
//! ## Gap numbering
//!
//! Documents are built with [`crate::document::GAP`]-spaced pre ords, so an
//! insertion can usually label the new nodes by subdividing the ord gap
//! between the insertion point and the parent's interval end:
//!
//! * the insertion point is always *after the last existing child* of the
//!   target parent, so the free ord range is `(last descendant ord,
//!   parent end]` once the slack carried by the nodes on the subtree's
//!   right spine is reclaimed (their `end`s are pulled back to the last
//!   real ord — a pure slack transfer that changes no structural relation);
//! * the `M` new nodes are placed at `lower + (j+1)·step` with
//!   `step = avail / (M+1)`, which nests their intervals strictly inside
//!   the parent's and leaves residual slack for the next insertion.
//!
//! When the gap is exhausted (`avail < M+1`) the engine falls back to
//! **local renumbering**: it walks up from the parent to the nearest
//! ancestor whose ord budget `end - pre` fits its post-insert subtree,
//! redistributes that subtree's ords evenly inside the ancestor's
//! (unchanged) interval, and — only if even the document element is too
//! tight — renumbers the whole document with fresh [`crate::document::GAP`]
//! spacing. Renumbered nodes have their postings moved to the new ords;
//! everything outside the renumbered slice keeps its identifier, which is
//! what makes selective cache invalidation upstream possible.
//!
//! Every mutation returns an [`UpdateSummary`] naming the tags whose
//! posting lists or query-visible content changed (mutated nodes, their
//! ancestors, and any renumbered nodes) — the conservative overlap set the
//! service layer uses to decide which cached plans survive the epoch swap.
//! In debug/test builds each mutation re-verifies the whole store with
//! [`crate::check::check_database`].

use crate::database::Database;
use crate::document::{gap_for, Document, NodeRecord};
use crate::error::{Error, Result};
use crate::node::{DocId, NodeId, NodeKind};
use crate::tag::TagId;

const NO_PARENT: u32 = u32::MAX;
/// Local-space sentinel: "attach to the insertion target".
const LOCAL_TOP: u32 = u32::MAX;

/// What one mutation did — consumed by the service layer to maintain
/// caches and by tests to assert incrementality.
#[derive(Debug, Clone)]
pub struct UpdateSummary {
    /// The mutated document.
    pub doc: DocId,
    /// Nodes added to the arena (fragment nodes plus any text node
    /// materialized from collapsed inline content).
    pub nodes_added: usize,
    /// Nodes removed from the arena.
    pub nodes_removed: usize,
    /// Pre-existing nodes whose pre ord changed (renumbering fallback);
    /// zero when the gap absorbed the mutation.
    pub renumbered: usize,
    /// Tags whose posting lists or query-visible content changed: tags of
    /// mutated nodes, of their ancestors, and of renumbered nodes. Sorted
    /// and deduplicated. A cached result whose tag footprint is disjoint
    /// from this set is provably unaffected by the mutation.
    pub affected_tags: Vec<TagId>,
    /// Records the mutation had to copy because an older snapshot shared
    /// their arena chunk (see [`crate::document`]); zero when the database
    /// was not shared. Bounded by the chunks the mutation touched, not by
    /// the document size.
    pub records_copied: usize,
}

/// Inserts a parsed XML fragment as the **last child** of `parent`.
///
/// The fragment must be a single well-formed element. If the parent is a
/// collapsed leaf (inline content, no child nodes) its content is first
/// materialized as an explicit text child, so the stored tree stays
/// structurally identical to what re-parsing its serialization yields.
pub fn insert_subtree(
    db: &mut Database,
    doc: DocId,
    parent: u32,
    xml: &str,
) -> Result<UpdateSummary> {
    db.try_document(doc)?;
    let frag = crate::parse::parse_document("#fragment", xml, db.interner_for_insert())?;
    let text_tag = db.interner().text_tag();
    let d = db.document(doc);
    let pidx = d.idx_of(parent).ok_or(Error::NoSuchNode { doc: doc.0, pre: parent })?;
    let prec = d.at(pidx);
    if !matches!(prec.kind, NodeKind::DocRoot | NodeKind::Element) {
        return Err(Error::Update(format!(
            "insert target {parent} is {:?}; only elements (or the document root) take children",
            prec.kind
        )));
    }
    let plevel = prec.level;
    let pend = prec.end;
    let uncollapse = prec.kind == NodeKind::Element && prec.content.is_some();

    // Build the new records in *local dense space*: `pre`/`parent`/`end`
    // hold 0-based positions among the inserted nodes (LOCAL_TOP parent =
    // the insertion target); the chosen numbering strategy maps them to
    // ord space below.
    let mut new_recs: Vec<NodeRecord> = Vec::new();
    if uncollapse {
        // Empty inline content (a prior `set_text` with "") carries no
        // bytes; materializing it would create an empty text node that a
        // serialize/reparse round trip cannot represent. Clear it instead.
        if let Some(content) = prec.content.clone().filter(|c| !c.is_empty()) {
            new_recs.push(NodeRecord {
                tag: text_tag,
                kind: NodeKind::Text,
                content: Some(content),
                pre: 0,
                parent: LOCAL_TOP,
                end: 0,
                level: plevel + 1,
            });
        }
    }
    let off = new_recs.len() as u32;
    for (j, rec) in frag.records().iter().enumerate().skip(1) {
        let (_, e) = frag.subtree_idx_range(rec.pre);
        let fp_idx = frag.idx_of(rec.parent).expect("fragment parent exists");
        new_recs.push(NodeRecord {
            tag: rec.tag,
            kind: rec.kind,
            content: rec.content.clone(),
            pre: (j as u32 - 1) + off,
            parent: if fp_idx == 0 { LOCAL_TOP } else { (fp_idx as u32 - 1) + off },
            end: (e as u32 - 2) + off,
            level: rec.level + plevel,
        });
    }
    let m = new_recs.len();

    // Insertion point: directly after the parent's last descendant.
    let (_, ins) = d.subtree_idx_range(parent);
    let lower = d.at(ins - 1).pre;
    // Right spine of the parent's subtree: the nodes whose slack-bearing
    // `end`s cover `(lower, pend]` and must be reclaimed before new ords
    // can land there.
    let mut spine: Vec<usize> = Vec::new();
    let mut cur = ins - 1;
    while cur != pidx {
        spine.push(cur);
        let par = d.at(cur).parent;
        cur = d.idx_of(par).expect("parent ord resolves");
    }
    let avail = pend - lower;

    let mut affected = Vec::new();
    ancestor_tags(d, parent, &mut affected);
    for r in &new_recs {
        affected.push(r.tag);
    }

    let renumbered;
    let mut copied = 0;
    if u64::from(avail) > m as u64 {
        // Gap path: subdivide (lower, pend] among the M new nodes.
        let step = avail / (m as u32 + 1);
        for r in &mut new_recs {
            let local = r.pre;
            r.pre = lower + (local + 1) * step;
            r.parent = if r.parent == LOCAL_TOP { parent } else { lower + (r.parent + 1) * step };
            r.end = lower + (r.end + 2) * step - 1;
        }
        let (dm, ti, vi) = db.update_parts(doc);
        if uncollapse {
            let prec = dm.record_mut_at(pidx, &mut copied);
            let old = prec.content.take().expect("uncollapse implies content");
            vi.remove(prec.tag, NodeId::new(doc, parent), &old);
        }
        for &i in &spine {
            dm.record_mut_at(i, &mut copied).end = lower;
        }
        dm.splice(ins, ins, new_recs, &mut copied);
        for r in dm.range(ins, ins + m) {
            let id = NodeId::new(doc, r.pre);
            ti.insert_sorted(r.tag, id);
            if let Some(c) = &r.content {
                vi.insert_sorted(r.tag, id, c);
            }
        }
        renumbered = 0;
    } else {
        // Renumbering fallback: find the nearest ancestor whose ord budget
        // fits its post-insert subtree, then redistribute evenly.
        let mut anc_idx = pidx;
        let (slice_start, old_slice_end, base, g, root_end) = loop {
            let arec = d.at(anc_idx);
            let (s, e) = d.subtree_idx_range(arec.pre);
            let k = (e - s - 1 + m) as u64;
            let b = u64::from(arec.end - arec.pre);
            if anc_idx == 0 {
                // Whole document: fresh build-time spacing (root end grows
                // as needed — nothing constrains it from above).
                break (0, d.len(), 0u32, gap_for(d.len() + m), None);
            }
            if b > k {
                break (s, e, arec.pre, (b / (k + 1)) as u32, Some(arec.end));
            }
            anc_idx = d.idx_of(arec.parent).expect("ancestor ord resolves");
        };
        let mut slice: Vec<NodeRecord> = d.range(slice_start, old_slice_end).cloned().collect();
        affected.extend(slice.iter().map(|r| r.tag));
        renumbered = slice.len() - 1;

        let (dm, ti, vi) = db.update_parts(doc);
        // Drop the old postings of every node about to be renumbered.
        for r in slice.iter().filter(|r| r.kind != NodeKind::DocRoot) {
            let id = NodeId::new(doc, r.pre);
            ti.remove(r.tag, id);
            if let Some(c) = &r.content {
                vi.remove(r.tag, id, c);
            }
        }
        if uncollapse {
            slice[pidx - slice_start].content = None;
        }
        slice.splice(ins - slice_start..ins - slice_start, new_recs);
        renumber_slice(&mut slice, base, g, root_end);
        for r in slice.iter().filter(|r| r.kind != NodeKind::DocRoot) {
            let id = NodeId::new(doc, r.pre);
            ti.insert_sorted(r.tag, id);
            if let Some(c) = &r.content {
                vi.insert_sorted(r.tag, id, c);
            }
        }
        dm.splice(slice_start, old_slice_end, slice, &mut copied);
    }

    verify(db);
    affected.sort_unstable();
    affected.dedup();
    Ok(UpdateSummary {
        doc,
        nodes_added: m,
        nodes_removed: 0,
        renumbered,
        affected_tags: affected,
        records_copied: copied,
    })
}

/// Deletes the subtree rooted at `pre` (the node itself and every
/// descendant). The document root cannot be deleted.
pub fn delete_subtree(db: &mut Database, doc: DocId, pre: u32) -> Result<UpdateSummary> {
    let d = db.try_document(doc)?;
    let idx = d.idx_of(pre).ok_or(Error::NoSuchNode { doc: doc.0, pre })?;
    if idx == 0 {
        return Err(Error::Update("cannot delete the document root".into()));
    }
    let (s, e) = d.subtree_idx_range(pre);
    let mut affected = Vec::new();
    ancestor_tags(d, d.at(idx).parent, &mut affected);

    let mut copied = 0;
    let (dm, ti, vi) = db.update_parts(doc);
    let removed = dm.splice(s, e, Vec::new(), &mut copied);
    for r in &removed {
        let id = NodeId::new(doc, r.pre);
        ti.remove(r.tag, id);
        if let Some(c) = &r.content {
            vi.remove(r.tag, id, c);
        }
        affected.push(r.tag);
    }
    // Ancestors' intervals keep their (now partly slack) ends: every
    // remaining ord they covered is still covered, so no structural
    // relation among survivors changes.

    verify(db);
    affected.sort_unstable();
    affected.dedup();
    Ok(UpdateSummary {
        doc,
        nodes_added: 0,
        nodes_removed: removed.len(),
        renumbered: 0,
        affected_tags: affected,
        records_copied: copied,
    })
}

/// Replaces the inline content of a text node, attribute, or leaf element.
///
/// Elements that have non-attribute children are rejected — their text
/// lives in explicit text-node children, which are addressed directly.
pub fn set_text(db: &mut Database, doc: DocId, pre: u32, text: &str) -> Result<UpdateSummary> {
    let d = db.try_document(doc)?;
    let idx = d.idx_of(pre).ok_or(Error::NoSuchNode { doc: doc.0, pre })?;
    let rec = d.at(idx);
    match rec.kind {
        NodeKind::DocRoot => {
            return Err(Error::Update("cannot set text on the document root".into()))
        }
        NodeKind::Element => {
            let has_child = d.children(pre).any(|c| d.record(c).kind != NodeKind::Attribute);
            if has_child {
                return Err(Error::Update(format!(
                    "element {pre} has child nodes; set text on its text child instead"
                )));
            }
        }
        NodeKind::Attribute | NodeKind::Text => {}
    }
    let mut affected = Vec::new();
    ancestor_tags(d, pre, &mut affected);

    let mut copied = 0;
    let (dm, _, vi) = db.update_parts(doc);
    let id = NodeId::new(doc, pre);
    let r = dm.record_mut_at(idx, &mut copied);
    if let Some(old) = r.content.take() {
        vi.remove(r.tag, id, &old);
    }
    r.content = Some(text.into());
    vi.insert_sorted(r.tag, id, text);

    verify(db);
    affected.sort_unstable();
    affected.dedup();
    Ok(UpdateSummary {
        doc,
        nodes_added: 0,
        nodes_removed: 0,
        renumbered: 0,
        affected_tags: affected,
        records_copied: copied,
    })
}

/// Pushes the tags of `pre` and all its ancestors (document root included)
/// onto `out`.
fn ancestor_tags(d: &Document, pre: u32, out: &mut Vec<TagId>) {
    let mut cur = pre;
    loop {
        let rec = d.record(cur);
        out.push(rec.tag);
        if rec.parent == NO_PARENT {
            break;
        }
        cur = rec.parent;
    }
}

/// Renumbers a contiguous pre-order subtree slice: `slice[0]` keeps ord
/// `base`; member `i` gets `base + i·g`. Parent and end links are
/// recomputed from the (always-correct) levels, so the slice's incoming
/// `pre`/`parent`/`end` values may be arbitrary. `root_end`, when given,
/// restores the slice root's original interval end (local renumbering keeps
/// the ancestor's interval fixed so nothing outside the slice moves).
fn renumber_slice(slice: &mut [NodeRecord], base: u32, g: u32, root_end: Option<u32>) {
    let n = slice.len();
    let mut parent_local: Vec<u32> = vec![LOCAL_TOP; n];
    let mut end_local: Vec<usize> = (0..n).collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..n {
        while let Some(&top) = stack.last() {
            if slice[top].level >= slice[i].level {
                end_local[top] = i - 1;
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&top) = stack.last() {
            parent_local[i] = top as u32;
        }
        stack.push(i);
    }
    while let Some(top) = stack.pop() {
        end_local[top] = n - 1;
    }
    let (base, g) = (u64::from(base), u64::from(g));
    for i in 0..n {
        let r = &mut slice[i];
        r.pre = (base + i as u64 * g) as u32;
        if parent_local[i] != LOCAL_TOP {
            r.parent = (base + u64::from(parent_local[i]) * g) as u32;
        }
        r.end = (base + (end_local[i] as u64 + 1) * g - 1) as u32;
    }
    if let Some(e) = root_end {
        slice[0].end = e;
    }
}

/// Debug/test-build verification: every mutation leaves a checkable store.
fn verify(db: &Database) {
    #[cfg(debug_assertions)]
    if let Err(e) = crate::check::check_database(db) {
        panic!("update left the store corrupt: {e}");
    }
    #[cfg(not(debug_assertions))]
    let _ = db;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::serialize_subtree;

    fn sample() -> Database {
        let mut db = Database::new();
        db.load_xml(
            "auction.xml",
            r#"<site><person id="p0"><age>25</age><name>Ann</name></person><person id="p1"><name>Bo</name></person></site>"#,
        )
        .unwrap();
        db
    }

    fn root_xml(db: &Database) -> String {
        serialize_subtree(db, db.root(DocId(0)))
    }

    fn reparse_matches(db: &Database) {
        let xml = root_xml(db);
        let mut fresh = Database::new();
        fresh.load_xml("ref.xml", &xml).unwrap();
        assert_eq!(xml, serialize_subtree(&fresh, fresh.root(DocId(0))));
    }

    #[test]
    fn insert_appends_last_child_and_indexes_it() {
        let mut db = sample();
        let site = db.nodes_with_tag("site")[0];
        let s = insert_subtree(
            &mut db,
            DocId(0),
            site.pre,
            r#"<person id="p2"><name>Cy</name></person>"#,
        )
        .unwrap();
        assert_eq!(s.nodes_added, 3);
        assert_eq!(s.renumbered, 0, "first insert fits the build-time gap");
        assert_eq!(db.nodes_with_tag("person").len(), 3);
        assert_eq!(db.nodes_with_tag("name").len(), 3);
        let name_tag = db.interner().lookup("name").unwrap();
        assert_eq!(db.value_index().lookup_exact(name_tag, "Cy").len(), 1);
        let persons = db.nodes_with_tag("person");
        assert!(persons.windows(2).all(|w| w[0] < w[1]), "postings stay ordered");
        assert!(root_xml(&db).ends_with(r#"<person id="p2"><name>Cy</name></person></site>"#));
        reparse_matches(&db);
    }

    #[test]
    fn insert_into_collapsed_leaf_materializes_text() {
        let mut db = sample();
        let age = db.nodes_with_tag("age")[0];
        insert_subtree(&mut db, DocId(0), age.pre, "<note>verified</note>").unwrap();
        let age = db.nodes_with_tag("age")[0];
        assert_eq!(db.node(age).content(), None, "inline content moved to a text child");
        assert_eq!(db.node(age).string_value(), "25verified");
        assert!(root_xml(&db).contains("<age>25<note>verified</note></age>"));
        reparse_matches(&db);
    }

    #[test]
    fn gap_exhaustion_falls_back_to_renumbering() {
        let mut db = sample();
        let mut renumbered_total = 0usize;
        for i in 0..40 {
            let p1 = *db.nodes_with_tag("person").last().unwrap();
            let s =
                insert_subtree(&mut db, DocId(0), p1.pre, &format!("<watch>w{i}</watch>")).unwrap();
            renumbered_total += s.renumbered;
        }
        assert!(renumbered_total > 0, "40 inserts into one gap must renumber at least once");
        assert_eq!(db.nodes_with_tag("watch").len(), 40);
        let watches = db.nodes_with_tag("watch");
        assert!(watches.windows(2).all(|w| w[0] < w[1]));
        let watch_tag = db.interner().lookup("watch").unwrap();
        for i in 0..40 {
            assert_eq!(
                db.value_index().lookup_exact(watch_tag, &format!("w{i}")).len(),
                1,
                "value posting for w{i} survives renumbering"
            );
        }
        reparse_matches(&db);
    }

    #[test]
    fn delete_removes_subtree_and_postings() {
        let mut db = sample();
        let p0 = db.nodes_with_tag("person")[0];
        let s = delete_subtree(&mut db, DocId(0), p0.pre).unwrap();
        assert_eq!(s.nodes_removed, 4, "person, @id, age, name and nothing else");
        assert_eq!(db.nodes_with_tag("person").len(), 1);
        assert_eq!(db.nodes_with_tag("age").len(), 0);
        let name_tag = db.interner().lookup("name").unwrap();
        assert!(db.value_index().lookup_exact(name_tag, "Ann").is_empty());
        assert_eq!(db.value_index().lookup_exact(name_tag, "Bo").len(), 1);
        reparse_matches(&db);
    }

    #[test]
    fn set_text_moves_value_postings() {
        let mut db = sample();
        let age = db.nodes_with_tag("age")[0];
        set_text(&mut db, DocId(0), age.pre, "30").unwrap();
        assert_eq!(db.node(age).num_value(), Some(30.0));
        let age_tag = db.interner().lookup("age").unwrap();
        assert!(db.value_index().lookup_exact(age_tag, "25").is_empty());
        assert_eq!(db.value_index().lookup_exact(age_tag, "30").len(), 1);
        assert_eq!(
            db.value_index().lookup_cmp(age_tag, std::cmp::Ordering::Greater, 28.0).len(),
            1
        );
        reparse_matches(&db);
    }

    #[test]
    fn affected_tags_cover_mutation_and_ancestors() {
        let mut db = sample();
        let age = db.nodes_with_tag("age")[0];
        let s = set_text(&mut db, DocId(0), age.pre, "26").unwrap();
        let names: Vec<Box<str>> = s.affected_tags.iter().map(|t| db.interner().name(*t)).collect();
        for expect in ["age", "person", "site"] {
            assert!(names.iter().any(|n| &**n == expect), "{expect} missing from {names:?}");
        }
        assert!(!names.iter().any(|n| &**n == "name"), "untouched sibling tag not affected");
    }

    #[test]
    fn invalid_targets_are_rejected() {
        let mut db = sample();
        let age = db.nodes_with_tag("age")[0];
        let attr = db.nodes_with_tag("@id")[0];
        let site = db.nodes_with_tag("site")[0];
        assert!(insert_subtree(&mut db, DocId(0), attr.pre, "<x/>").is_err());
        assert!(insert_subtree(&mut db, DocId(0), 999_999, "<x/>").is_err());
        assert!(delete_subtree(&mut db, DocId(0), 0).is_err());
        assert!(set_text(&mut db, DocId(0), site.pre, "t").is_err());
        assert!(set_text(&mut db, DocId(0), 0, "t").is_err());
        let _ = age;
    }

    #[test]
    fn mixed_mutation_stream_round_trips() {
        let mut db = sample();
        let site = db.nodes_with_tag("site")[0];
        insert_subtree(&mut db, DocId(0), site.pre, "<open_auctions/>").unwrap();
        let oa = db.nodes_with_tag("open_auctions")[0];
        for i in 0..10 {
            let oa = db.nodes_with_tag("open_auctions")[0];
            insert_subtree(
                &mut db,
                DocId(0),
                oa.pre,
                &format!(r#"<open_auction id="a{i}"><initial>{i}.50</initial></open_auction>"#),
            )
            .unwrap();
        }
        let p0 = db.nodes_with_tag("person")[0];
        delete_subtree(&mut db, DocId(0), p0.pre).unwrap();
        let initial = db.nodes_with_tag("initial")[4];
        set_text(&mut db, DocId(0), initial.pre, "99.99").unwrap();
        assert_eq!(db.nodes_with_tag("open_auction").len(), 10);
        let init_tag = db.interner().lookup("initial").unwrap();
        assert_eq!(
            db.value_index().lookup_cmp(init_tag, std::cmp::Ordering::Greater, 50.0).len(),
            1
        );
        reparse_matches(&db);
        let _ = oa;
    }

    /// A document spanning many arena chunks: `<site>` over `n` items of
    /// three records each (element, attribute, inline-content name).
    fn wide(n: usize) -> Database {
        let mut xml = String::from("<site>");
        for i in 0..n {
            xml.push_str(&format!(r#"<item id="i{i}"><name>n{i}</name></item>"#));
        }
        xml.push_str("</site>");
        let mut db = Database::new();
        db.load_xml("auction.xml", &xml).unwrap();
        db
    }

    #[test]
    fn mutations_copy_only_what_they_touch() {
        use crate::document::CHUNK;
        let base = wide(1000);
        let chunks = base.document(DocId(0)).chunk_count();
        assert!(chunks > 10, "the fixture must span many chunks, got {chunks}");
        let untouched = base.sharing(&base.clone());
        assert_eq!(untouched.chunks_shared, chunks, "a clone shares every chunk");

        let mut next = base.clone();
        let name = next.nodes_with_tag("name")[500];
        let s = set_text(&mut next, DocId(0), name.pre, "changed").unwrap();
        assert!(s.records_copied > 0 && s.records_copied <= 2 * CHUNK, "{}", s.records_copied);
        let sh = next.sharing(&base);
        assert_eq!(sh.chunks_shared, sh.chunks - 1, "set_text copies one chunk");
        assert_eq!(sh.tag_lists_shared, sh.tag_lists, "no posting list changed");
        assert_eq!(sh.value_partitions_shared, sh.value_partitions - 1, "only `name` values");

        let item = next.nodes_with_tag("item")[250];
        let s = insert_subtree(&mut next, DocId(0), item.pre, "<note>n</note>").unwrap();
        assert_eq!(s.renumbered, 0);
        assert!(s.records_copied <= 2 * CHUNK, "{}", s.records_copied);
        let item = next.nodes_with_tag("item")[750];
        delete_subtree(&mut next, DocId(0), item.pre).unwrap();
        let sh = next.sharing(&base);
        assert!(sh.chunks_shared + 4 >= sh.chunks, "{sh:?}");

        // The base epoch saw none of it.
        let name_tag = base.interner().lookup("name").unwrap();
        assert_eq!(base.node(name).content(), Some("n500"));
        assert!(base.value_index().lookup_exact(name_tag, "changed").is_empty());
        assert!(base.interner().lookup("note").is_none(), "new labels stay in the new epoch");
        assert_eq!(base.nodes_with_tag("item").len(), 1000);
        crate::check::check_database(&base).unwrap();
        assert_eq!(next.nodes_with_tag("item").len(), 999);
        reparse_matches(&next);
    }

    #[test]
    fn edits_across_chunk_boundaries_keep_the_store_consistent() {
        use crate::document::CHUNK;
        let mut db = wide(300);
        let before = db.clone();
        // Appending past a chunk's split threshold re-chunks it.
        for i in 0..3 * CHUNK {
            let site = db.nodes_with_tag("site")[0];
            insert_subtree(&mut db, DocId(0), site.pre, &format!("<tail>{i}</tail>")).unwrap();
        }
        // Exhaust one item's gap so local renumbering rewrites a slice.
        let mut renumbered = 0;
        for i in 0..40 {
            let item = db.nodes_with_tag("item")[100];
            renumbered += insert_subtree(&mut db, DocId(0), item.pre, &format!("<w>{i}</w>"))
                .unwrap()
                .renumbered;
        }
        assert!(renumbered > 0);
        // Delete a run of items that straddles chunk boundaries, then the
        // very first item.
        for _ in 0..2 * CHUNK / 3 {
            let item = db.nodes_with_tag("item")[150];
            delete_subtree(&mut db, DocId(0), item.pre).unwrap();
        }
        let first = db.nodes_with_tag("item")[0];
        delete_subtree(&mut db, DocId(0), first.pre).unwrap();
        crate::check::check_database(&db).unwrap();
        let doc = db.document(DocId(0));
        for p in doc.pres() {
            assert_eq!(doc.record(p).pre, p, "every ord resolves after re-chunking");
        }
        assert_eq!(db.nodes_with_tag("tail").len(), 3 * CHUNK);
        reparse_matches(&db);
        crate::check::check_database(&before).unwrap();
        assert_eq!(before.nodes_with_tag("item").len(), 300);
    }

    #[test]
    fn uncollapse_of_empty_inline_content_materializes_nothing() {
        let mut db = Database::new();
        let d = db.load_xml("t.xml", "<a><c>x</c></a>").unwrap();
        let c = db.nodes_with_tag("c")[0];
        set_text(&mut db, d, c.pre, "").unwrap();
        // Inserting under an element whose inline content is "" must not
        // create an empty text node — a reparse could never rebuild one.
        let s = insert_subtree(&mut db, d, c.pre, "<e/>").unwrap();
        assert_eq!(s.nodes_added, 1);
        let out = crate::serialize::serialize_subtree(&db, db.root(d));
        assert_eq!(out, "<a><c><e/></c></a>");
        reparse_matches(&db);
    }
}
