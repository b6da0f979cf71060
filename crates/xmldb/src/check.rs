//! Store invariant checker.
//!
//! An O(n) verifier for everything the engines assume about the store:
//!
//! * **Interval encoding** (the paper's Figure 13, Properties 1–4): every
//!   node's `(pre, end)` interval is well-formed (`pre <= end`, inside the
//!   document), children's intervals are properly nested inside — and
//!   disjoint within — their parent's, and `parent`/`level` agree with the
//!   nesting. One stack walk in pre order proves all of it at once: since
//!   pre order visits a node before its descendants, requiring each node's
//!   recorded parent to be exactly the innermost open interval establishes
//!   *containment ⇔ ancestorship* (what [`Document::is_ancestor`]'s two
//!   comparisons rely on) and sibling disjointness simultaneously.
//! * **Arena layout**: node 0 is the synthetic document root spanning the
//!   whole arena; attributes and text nodes are content-bearing leaves.
//! * **Index completeness**: the tag index holds exactly the non-root
//!   nodes (every node findable under its tag, every posting backed by a
//!   matching node, postings strictly in document order), and the value
//!   index covers exactly the content-bearing nodes, with numeric content
//!   also reachable through the numeric tree.
//!
//! Exposed to users as the `.check` shell command and the `experiments
//! check` subcommand; run against every generated XMark document in tests.

use crate::database::Database;
use crate::document::{Document, NodeRecord};
use crate::error::{Error, Result};
use crate::node::{DocId, NodeId, NodeKind};
use std::fmt;

/// What a successful [`check_database`] run covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckReport {
    /// Documents walked.
    pub documents: usize,
    /// Total nodes verified (synthetic roots included).
    pub nodes: usize,
    /// Tag-index postings verified.
    pub tag_postings: usize,
    /// Value-index (exact) postings accounted for.
    pub value_postings: usize,
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "store check OK: {} document(s), {} node(s), {} tag posting(s), {} value posting(s)",
            self.documents, self.nodes, self.tag_postings, self.value_postings
        )
    }
}

/// Verifies one document's interval encoding and arena layout in O(n).
pub fn check_document(doc: &Document) -> Result<()> {
    check_records(doc.name(), doc.records())
}

/// [`check_document`] over a raw record arena (what snapshot loading and the
/// tests hand-build).
///
/// Pre ords are sparse (gap numbering, see [`crate::document`]): the walk
/// verifies they strictly increase in arena order, that every interval is
/// properly nested inside — and disjoint within — its parent's, and that a
/// node's `end` slack never swallows a following node.
pub fn check_records<'a>(
    name: &str,
    records: impl IntoIterator<Item = &'a NodeRecord>,
) -> Result<()> {
    let corrupt =
        |pre: u32, detail: String| Err(Error::Corrupt(format!("{name:?} node {pre}: {detail}")));
    let mut records = records.into_iter();
    let Some(root) = records.next() else {
        return Err(Error::Corrupt(format!("{name:?}: document has no records")));
    };
    if root.kind != NodeKind::DocRoot {
        return corrupt(0, format!("node 0 must be the document root, found {:?}", root.kind));
    }
    if root.pre != 0 || root.parent != u32::MAX || root.level != 0 {
        return corrupt(0, "document root must have ord 0, no parent, and level 0".into());
    }
    // The stack holds the open intervals (ancestors of the current node) as
    // `(pre, end, kind)`, innermost last.
    let mut stack: Vec<(u32, u32, NodeKind)> = vec![(root.pre, root.end, root.kind)];
    let mut prev = root.pre;
    for rec in records {
        let pre = rec.pre;
        if rec.kind == NodeKind::DocRoot {
            return corrupt(pre, "only node 0 may be a document root".into());
        }
        if pre <= prev {
            return corrupt(pre, format!("pre ord not above predecessor {prev}"));
        }
        prev = pre;
        if pre > root.end {
            return corrupt(0, format!("root interval ends at {} before node ord {pre}", root.end));
        }
        // Property 1 (well-formed interval).
        if rec.end < pre {
            return corrupt(pre, format!("bad interval end {}", rec.end));
        }
        // Close every interval that ended before this node.
        while stack.last().expect("root never popped").1 < pre {
            stack.pop();
        }
        let &(top_pre, top_end, top_kind) = stack.last().expect("root interval spans the document");
        // Leaves may carry end slack, but no descendant.
        if matches!(top_kind, NodeKind::Attribute | NodeKind::Text) {
            return corrupt(top_pre, format!("{top_kind:?} node must be a leaf"));
        }
        // Property 2: the recorded parent must be the innermost open
        // interval. Combined with the nesting check below, this makes
        // interval containment coincide with ancestorship and forces sibling
        // intervals apart (a sibling's interval is closed before ours opens).
        if rec.parent != top_pre {
            return corrupt(
                pre,
                format!("parent is {} but innermost open interval is {top_pre}", rec.parent),
            );
        }
        if rec.end > top_end {
            return corrupt(pre, format!("interval [{pre}, {}] escapes parent's", rec.end));
        }
        // Property 3/4 bookkeeping: levels count the open ancestors.
        if rec.level as usize != stack.len() {
            return corrupt(pre, format!("level {} but depth {}", rec.level, stack.len()));
        }
        if matches!(rec.kind, NodeKind::Attribute | NodeKind::Text) && rec.content.is_none() {
            return corrupt(pre, format!("{:?} node must carry content", rec.kind));
        }
        stack.push((pre, rec.end, rec.kind));
    }
    Ok(())
}

/// Verifies every document plus the derived indexes; returns a coverage
/// report on success.
pub fn check_database(db: &Database) -> Result<CheckReport> {
    let mut report = CheckReport::default();
    let mut expected_tag_postings = 0usize;
    let mut expected_value_postings = 0usize;
    for d in 0..db.document_count() {
        let doc_id = DocId(d as u32);
        let doc = db.document(doc_id);
        check_document(doc)?;
        report.documents += 1;
        report.nodes += doc.len();
        // Forward sweep: every indexable node must be in its index.
        for rec in doc.records() {
            if rec.kind == NodeKind::DocRoot {
                continue;
            }
            let pre = rec.pre;
            let id = NodeId::new(doc_id, pre);
            if db.tag_index().get(rec.tag).binary_search(&id).is_err() {
                return Err(Error::Corrupt(format!(
                    "{:?} node {pre}: missing from the tag index under its tag",
                    doc.name()
                )));
            }
            expected_tag_postings += 1;
            if let Some(content) = &rec.content {
                if !db.value_index().lookup_exact(rec.tag, content).contains(&id) {
                    return Err(Error::Corrupt(format!(
                        "{:?} node {pre}: missing from the value index for its content",
                        doc.name()
                    )));
                }
                expected_value_postings += 1;
                if let Ok(n) = content.trim().parse::<f64>() {
                    if !db
                        .value_index()
                        .lookup_cmp(rec.tag, std::cmp::Ordering::Equal, n)
                        .contains(&id)
                    {
                        return Err(Error::Corrupt(format!(
                            "{:?} node {pre}: numeric content {n} not in the numeric index",
                            doc.name()
                        )));
                    }
                }
            }
        }
    }
    // Reverse sweep: every tag-index posting must be backed by a live node
    // with that tag, and postings must be strictly in document order.
    for (tag, postings) in db.tag_index().tags() {
        if let Some(w) = postings.windows(2).find(|w| w[0] >= w[1]) {
            return Err(Error::Corrupt(format!(
                "tag index postings out of document order near {:?}",
                w[0]
            )));
        }
        for id in postings {
            let doc = db.try_document(id.doc)?;
            let rec =
                doc.try_record(id.pre).ok_or(Error::NoSuchNode { doc: id.doc.0, pre: id.pre })?;
            if rec.tag != tag {
                return Err(Error::Corrupt(format!(
                    "tag index posting {id:?} points at a node with a different tag"
                )));
            }
            if rec.kind == NodeKind::DocRoot {
                return Err(Error::Corrupt(format!(
                    "tag index posting {id:?} points at a document root"
                )));
            }
        }
        report.tag_postings += postings.len();
    }
    // Counting both directions proves the indexes hold *exactly* the
    // indexable nodes — no omissions (forward), no strays (reverse + count).
    if report.tag_postings != expected_tag_postings {
        return Err(Error::Corrupt(format!(
            "tag index has {} postings but documents have {} indexable nodes",
            report.tag_postings, expected_tag_postings
        )));
    }
    if db.value_index().exact_posting_count() != expected_value_postings {
        return Err(Error::Corrupt(format!(
            "value index has {} postings but documents have {} content-bearing nodes",
            db.value_index().exact_posting_count(),
            expected_value_postings
        )));
    }
    report.value_postings = expected_value_postings;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::TagId;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.load_xml(
            "a.xml",
            r#"<site><person id="p0"><name>Ann</name><age>30</age></person>
               <person id="p1"><name>Bo</name></person></site>"#,
        )
        .unwrap();
        db.load_xml("b.xml", "<r><x>1</x><x>2</x><y/></r>").unwrap();
        db
    }

    #[test]
    fn well_formed_database_passes() {
        let db = sample_db();
        let report = check_database(&db).unwrap();
        assert_eq!(report.documents, 2);
        assert_eq!(report.nodes, db.node_count());
        assert_eq!(report.tag_postings, db.tag_index().posting_count());
        assert!(report.value_postings > 0);
        assert!(report.to_string().starts_with("store check OK"));
    }

    fn rec(kind: NodeKind, parent: u32, end: u32, level: u16, content: Option<&str>) -> NodeRecord {
        NodeRecord {
            tag: TagId(1),
            kind,
            content: content.map(Into::into),
            pre: 0,
            parent,
            end,
            level,
        }
    }

    fn valid_records() -> Vec<NodeRecord> {
        // doc_root [ a [ b, c ] ]  (b, c leaves with content); dense ords
        // (pre == arena index) are a valid special case of gap numbering.
        let mut records = vec![
            rec(NodeKind::DocRoot, u32::MAX, 3, 0, None),
            rec(NodeKind::Element, 0, 3, 1, None),
            rec(NodeKind::Element, 1, 2, 2, Some("x")),
            rec(NodeKind::Text, 1, 3, 2, Some("y")),
        ];
        for (i, r) in records.iter_mut().enumerate() {
            r.pre = i as u32;
        }
        records
    }

    #[test]
    fn hand_built_arena_passes() {
        check_records("ok.xml", &valid_records()).unwrap();
    }

    #[test]
    fn interval_escaping_parent_is_caught() {
        let mut r = valid_records();
        r[2].end = 3; // b's interval would swallow its sibling
        let err = check_records("bad.xml", &r).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn wrong_parent_is_caught() {
        let mut r = valid_records();
        r[3].parent = 2; // c claims the leaf b as parent, but b's interval is closed
        let err = check_records("bad.xml", &r).unwrap_err();
        assert!(err.to_string().contains("innermost open interval"), "{err}");
    }

    #[test]
    fn wrong_level_is_caught() {
        let mut r = valid_records();
        r[3].level = 5;
        let err = check_records("bad.xml", &r).unwrap_err();
        assert!(err.to_string().contains("level"), "{err}");
    }

    #[test]
    fn non_leaf_text_is_caught() {
        // Give text node 3 a child of its own: its interval is no longer
        // empty, which the leaf rule must reject.
        let mut r = valid_records();
        let mut child = rec(NodeKind::Element, 3, 4, 3, None);
        child.pre = 4;
        r.push(child);
        r[0].end = 4;
        r[1].end = 4;
        r[3].end = 4;
        let err = check_records("bad.xml", &r).unwrap_err();
        assert!(err.to_string().contains("leaf"), "{err}");
    }

    #[test]
    fn root_interval_must_span_document() {
        let mut r = valid_records();
        r[0].end = 2;
        assert!(check_records("bad.xml", &r).is_err());
    }

    #[test]
    fn content_free_attribute_is_caught() {
        let mut r = valid_records();
        r[2] = rec(NodeKind::Attribute, 1, 2, 2, None);
        r[2].pre = 2;
        let err = check_records("bad.xml", &r).unwrap_err();
        assert!(err.to_string().contains("content"), "{err}");
    }
}
