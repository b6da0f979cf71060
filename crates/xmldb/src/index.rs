//! Access-path indexes.
//!
//! The paper's experiments use exactly two access paths (§6.2):
//!
//! * *"We used an index on element tag name for all the queries, which
//!   returns the node identifiers given a tag name."* — [`TagIndex`].
//! * *"On all queries that had a condition on content we used a value index,
//!   which returns the node ids given a content value."* — [`ValueIndex`],
//!   which supports both exact-match lookups and numeric range scans.
//!
//! There is intentionally **no index on join values** (*"Unfortunately our
//! implementation does not support indices on join values"*), so value-join
//! queries pay full data-access cost, as in the paper.
//!
//! Both indexes return node-id lists in document order, which is what the
//! merge-based structural joins require.

use crate::node::{NodeId, NodeKind};
use crate::tag::TagId;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// Tag-name index: interned tag → node ids in global document order.
///
/// Each posting list sits behind its own [`Arc`], so cloning the index (the
/// copy-on-write commit path) copies one pointer per tag, and a mutation
/// copies only the posting lists of the tags it touches.
#[derive(Debug, Default, Clone)]
pub struct TagIndex {
    map: HashMap<TagId, Arc<Vec<NodeId>>>,
}

impl TagIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        TagIndex::default()
    }

    /// Registers a node. Nodes must be inserted in document order (the
    /// database loads documents one at a time in pre order, so this holds).
    pub fn insert(&mut self, tag: TagId, id: NodeId) {
        let list = Arc::make_mut(self.map.entry(tag).or_default());
        debug_assert!(list.last().is_none_or(|l| *l < id), "tag index must stay sorted");
        list.push(id);
    }

    /// All nodes with the given tag, in document order.
    pub fn get(&self, tag: TagId) -> &[NodeId] {
        self.map.get(&tag).map_or(&[], |list| list.as_slice())
    }

    /// Number of distinct tags indexed.
    pub fn tag_count(&self) -> usize {
        self.map.len()
    }

    /// Total number of postings.
    pub fn posting_count(&self) -> usize {
        self.map.values().map(|list| list.len()).sum()
    }

    /// Iterates every `(tag, postings)` pair, in no particular order. Used
    /// by the store checker ([`crate::check`]) to validate the index against
    /// the arenas.
    pub fn tags(&self) -> impl Iterator<Item = (TagId, &[NodeId])> {
        self.map.iter().map(|(t, v)| (*t, v.as_slice()))
    }

    /// How many of this index's posting lists are the very same allocation
    /// as `other`'s list for the same tag (e.g. an earlier epoch's).
    pub(crate) fn shared_lists(&self, other: &TagIndex) -> usize {
        self.map
            .iter()
            .filter(|(t, list)| other.map.get(t).is_some_and(|o| Arc::ptr_eq(list, o)))
            .count()
    }

    /// Registers a node at its document-order position — the incremental
    /// counterpart of [`TagIndex::insert`] for in-place updates. Only the
    /// mutated tag's posting list is touched.
    pub fn insert_sorted(&mut self, tag: TagId, id: NodeId) {
        let list = self.map.entry(tag).or_default();
        match list.binary_search(&id) {
            Ok(_) => debug_assert!(false, "tag index already holds {id:?}"),
            Err(pos) => Arc::make_mut(list).insert(pos, id),
        }
    }

    /// Removes one posting; returns whether it was present. Empty posting
    /// lists are dropped so the index holds no stray tags.
    pub fn remove(&mut self, tag: TagId, id: NodeId) -> bool {
        let Some(list) = self.map.get_mut(&tag) else {
            return false;
        };
        let Ok(pos) = list.binary_search(&id) else {
            return false;
        };
        Arc::make_mut(list).remove(pos);
        if list.is_empty() {
            self.map.remove(&tag);
        }
        true
    }
}

/// Totally ordered `f64` wrapper so numbers can key a `BTreeMap`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Content-value index over nodes with inline content (leaf elements,
/// attributes and text nodes).
///
/// Partitioned by tag, each partition behind its own [`Arc`]: cloning the
/// index copies one pointer per tag, and a mutation copies only the
/// partitions of the tags whose content it changes.
#[derive(Debug, Default, Clone)]
pub struct ValueIndex {
    tags: HashMap<TagId, Arc<TagValues>>,
}

/// One tag's value postings.
#[derive(Debug, Default, Clone)]
struct TagValues {
    /// Exact string match: value → ids (document order).
    exact: HashMap<Box<str>, Vec<NodeId>>,
    /// Numeric values for range predicates.
    numeric: BTreeMap<OrdF64, Vec<NodeId>>,
}

impl TagValues {
    fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.numeric.is_empty()
    }
}

impl ValueIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        ValueIndex::default()
    }

    /// Registers a node's inline content. Insertion must follow document
    /// order (same contract as [`TagIndex::insert`]).
    pub fn insert(&mut self, tag: TagId, kind: NodeKind, id: NodeId, content: &str) {
        debug_assert!(matches!(kind, NodeKind::Element | NodeKind::Attribute | NodeKind::Text));
        let values = Arc::make_mut(self.tags.entry(tag).or_default());
        values.exact.entry(content.into()).or_default().push(id);
        if let Ok(n) = content.trim().parse::<f64>() {
            values.numeric.entry(OrdF64(n)).or_default().push(id);
        }
    }

    /// Registers a node's inline content at its document-order position —
    /// the incremental counterpart of [`ValueIndex::insert`] for in-place
    /// updates.
    pub fn insert_sorted(&mut self, tag: TagId, id: NodeId, content: &str) {
        let values = Arc::make_mut(self.tags.entry(tag).or_default());
        let list = values.exact.entry(content.into()).or_default();
        if let Err(pos) = list.binary_search(&id) {
            list.insert(pos, id);
        }
        if let Ok(n) = content.trim().parse::<f64>() {
            let list = values.numeric.entry(OrdF64(n)).or_default();
            if let Err(pos) = list.binary_search(&id) {
                list.insert(pos, id);
            }
        }
    }

    /// Removes one node's content postings (exact and, when the content is
    /// numeric, the numeric tree); returns whether the exact posting was
    /// present. Emptied entries are dropped.
    pub fn remove(&mut self, tag: TagId, id: NodeId, content: &str) -> bool {
        if self.lookup_exact(tag, content).binary_search(&id).is_err() {
            return false;
        }
        let slot = self.tags.get_mut(&tag).expect("posting found above");
        let values = Arc::make_mut(slot);
        let list = values.exact.get_mut(content).expect("posting found above");
        let pos = list.binary_search(&id).expect("posting found above");
        list.remove(pos);
        if list.is_empty() {
            values.exact.remove(content);
        }
        if let Ok(n) = content.trim().parse::<f64>() {
            if let Some(list) = values.numeric.get_mut(&OrdF64(n)) {
                if let Ok(pos) = list.binary_search(&id) {
                    list.remove(pos);
                }
                if list.is_empty() {
                    values.numeric.remove(&OrdF64(n));
                }
            }
        }
        if values.is_empty() {
            self.tags.remove(&tag);
        }
        true
    }

    /// Total number of exact-match postings (one per indexed node). Used by
    /// the store checker to prove the index holds nothing beyond the nodes
    /// the forward sweep accounted for.
    pub fn exact_posting_count(&self) -> usize {
        self.tags.values().flat_map(|v| v.exact.values()).map(Vec::len).sum()
    }

    /// Number of tags with at least one value posting.
    pub(crate) fn partition_count(&self) -> usize {
        self.tags.len()
    }

    /// How many of this index's tag partitions are the very same
    /// allocation as `other`'s partition for the same tag.
    pub(crate) fn shared_partitions(&self, other: &ValueIndex) -> usize {
        self.tags
            .iter()
            .filter(|(t, values)| other.tags.get(t).is_some_and(|o| Arc::ptr_eq(values, o)))
            .count()
    }

    /// Nodes whose tag is `tag` and whose inline content equals `value`.
    pub fn lookup_exact(&self, tag: TagId, value: &str) -> &[NodeId] {
        self.tags.get(&tag).and_then(|v| v.exact.get(value)).map_or(&[], Vec::as_slice)
    }

    /// Nodes with tag `tag` whose numeric value lies in `[lo, hi]`
    /// (either bound optional), in document order.
    pub fn lookup_range(&self, tag: TagId, lo: Option<f64>, hi: Option<f64>) -> Vec<NodeId> {
        use std::ops::Bound::*;
        let lo = lo.map_or(Unbounded, |v| Included(OrdF64(v)));
        let hi = hi.map_or(Unbounded, |v| Included(OrdF64(v)));
        self.scan_numeric(tag, (lo, hi))
    }

    /// Nodes with tag `tag` whose numeric value is strictly above/below a
    /// bound — convenience for `>` / `<` predicates.
    pub fn lookup_cmp(&self, tag: TagId, op: std::cmp::Ordering, value: f64) -> Vec<NodeId> {
        use std::cmp::Ordering::*;
        use std::ops::Bound::*;
        let range = match op {
            Less => (Unbounded, Excluded(OrdF64(value))),
            Greater => (Excluded(OrdF64(value)), Unbounded),
            Equal => (Included(OrdF64(value)), Included(OrdF64(value))),
        };
        self.scan_numeric(tag, range)
    }

    /// Every posting of `tag` whose numeric value falls in `range`, in
    /// document order.
    fn scan_numeric(&self, tag: TagId, range: (Bound<OrdF64>, Bound<OrdF64>)) -> Vec<NodeId> {
        let Some(values) = self.tags.get(&tag) else {
            return Vec::new();
        };
        let mut out: Vec<NodeId> =
            values.numeric.range(range).flat_map(|(_, v)| v.iter().copied()).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DocId;

    fn id(pre: u32) -> NodeId {
        NodeId::new(DocId(0), pre)
    }

    #[test]
    fn tag_index_returns_document_order() {
        let mut ti = TagIndex::new();
        let t = TagId(7);
        for pre in [1, 4, 9, 200] {
            ti.insert(t, id(pre));
        }
        assert_eq!(ti.get(t).len(), 4);
        assert!(ti.get(t).windows(2).all(|w| w[0] < w[1]));
        assert!(ti.get(TagId(99)).is_empty());
        assert_eq!(ti.tag_count(), 1);
        assert_eq!(ti.posting_count(), 4);
    }

    #[test]
    fn value_index_exact_lookup() {
        let mut vi = ValueIndex::new();
        let t = TagId(3);
        vi.insert(t, NodeKind::Element, id(2), "person0");
        vi.insert(t, NodeKind::Element, id(5), "person1");
        vi.insert(t, NodeKind::Element, id(8), "person0");
        assert_eq!(vi.lookup_exact(t, "person0"), &[id(2), id(8)]);
        assert!(vi.lookup_exact(t, "nobody").is_empty());
        assert!(vi.lookup_exact(TagId(4), "person0").is_empty());
    }

    #[test]
    fn value_index_numeric_range_and_cmp() {
        let mut vi = ValueIndex::new();
        let t = TagId(3);
        for (pre, v) in [(1, "10"), (2, "25.5"), (3, "40"), (4, "abc"), (5, "25.5")] {
            vi.insert(t, NodeKind::Element, id(pre), v);
        }
        assert_eq!(vi.lookup_range(t, Some(20.0), Some(30.0)), vec![id(2), id(5)]);
        assert_eq!(vi.lookup_cmp(t, std::cmp::Ordering::Greater, 25.5), vec![id(3)]);
        assert_eq!(vi.lookup_cmp(t, std::cmp::Ordering::Less, 25.5), vec![id(1)]);
        assert_eq!(vi.lookup_cmp(t, std::cmp::Ordering::Equal, 25.5), vec![id(2), id(5)]);
        // Non-numeric content is only reachable through exact lookup.
        assert_eq!(vi.lookup_exact(t, "abc"), &[id(4)]);
    }

    #[test]
    fn range_with_open_bounds() {
        let mut vi = ValueIndex::new();
        let t = TagId(1);
        for (pre, v) in [(1, "1"), (2, "2"), (3, "3")] {
            vi.insert(t, NodeKind::Element, id(pre), v);
        }
        assert_eq!(vi.lookup_range(t, None, None).len(), 3);
        assert_eq!(vi.lookup_range(t, Some(2.0), None).len(), 2);
        assert_eq!(vi.lookup_range(t, None, Some(1.5)).len(), 1);
        assert!(vi.lookup_range(TagId(9), None, None).is_empty());
    }
}
