//! Pre-order arena documents and the streaming builder that creates them.
//!
//! A [`Document`] stores its nodes in a single vector laid out in document
//! (pre-) order. Each node carries a sparse *pre ord* ([`NodeRecord::pre`]):
//! a number that preserves pre-order but is assigned with gaps ([`GAP`]-spaced
//! at build time) so in-place insertion ([`crate::update`]) can usually label
//! new nodes without touching their neighbours' identifiers. Together with
//! the stored `(end, level)` interval this gives O(1) structural-relationship
//! tests (Property 2 of the paper's Figure 13) and document ordering by ord
//! comparison (Property 3) — both are pure comparisons, so they stay valid
//! under sparse numbering.
//!
//! `end` is an ord-space upper bound on the subtree: every descendant's ord
//! is `<= end`, every following node's ord is `> end`. Leaves keep slack
//! (`end >= pre`) for future insertions below them; the slack never contains
//! another node's ord, so interval tests are unaffected.
//!
//! Child navigation needs no explicit links: children of a node are found by
//! scanning forward in the arena and skipping each child's subtree (a
//! binary-search hop over its interval).
//!
//! ## Chunked, shared arena
//!
//! The arena is a sequence of [`Arc`]-shared chunks of about [`CHUNK`]
//! records each, concatenated in document order. Cloning a document copies
//! only the chunk pointers, so every epoch a copy-on-write commit publishes
//! shares all the chunks a mutation did not touch with the epoch before it.
//! The in-crate update engine edits through `Document::splice` and
//! `Document::record_mut_at`, which copy just the chunks they change.

use crate::error::{Error, Result};
use crate::node::{DocId, NodeId, NodeKind};
use crate::tag::{TagId, TagInterner};
use std::sync::Arc;

/// Gap left between consecutive pre ords at document build time. Each gap
/// absorbs up to `GAP - 1` nodes inserted after the labelled node before the
/// update engine has to renumber locally.
pub const GAP: u32 = 32;

/// Records per arena chunk at build time — the unit a mutation copies.
pub const CHUNK: usize = 128;

/// A chunk that grows past this many records is split back into pieces of
/// about [`CHUNK`]. Letting a chunk absorb inserts before splitting keeps
/// the chunk index of every later record (and so the O(1) ord probe in
/// [`Document::idx_of`]) stable across small inserts.
const CHUNK_MAX: usize = 2 * CHUNK;

/// The build-time gap for a document of `len` records: [`GAP`], shrunk when
/// `len * GAP` would overflow the `u32` ord space.
pub(crate) fn gap_for(len: usize) -> u32 {
    let len = (len as u32).max(1);
    GAP.min(u32::MAX / len).max(1)
}

/// One stored node. Kept deliberately small; see the perf notes in DESIGN.md.
#[derive(Debug, Clone)]
pub struct NodeRecord {
    /// Interned label (`@name` for attributes, `#text`, `#doc`).
    pub tag: TagId,
    /// Node kind.
    pub kind: NodeKind,
    /// Inline text value. Present on attributes, text nodes, and elements
    /// whose only non-attribute child was a single text run (collapsed at
    /// build time, the common case for leaf elements like `<age>25</age>`).
    /// Shared, so copying a chunk for a mutation allocates no strings.
    pub content: Option<Arc<str>>,
    /// Sparse pre ord: strictly increasing in document order, with gaps.
    pub pre: u32,
    /// Pre ord of the parent; `u32::MAX` for the document root.
    pub parent: u32,
    /// Ord-space end of the subtree interval (`>= pre`; may carry slack
    /// beyond the last descendant's ord, but never reaches the next
    /// non-descendant's ord).
    pub end: u32,
    /// Depth; the document root is level 0.
    pub level: u16,
}

const NO_PARENT: u32 = u32::MAX;

/// An XML document in pre-order arena form.
///
/// Node 0 is always a synthetic [`NodeKind::DocRoot`] node (the `doc_root` of
/// the paper's pattern trees); the document element is its only child.
///
/// `Clone` is O(chunks), not O(nodes): the copy shares every chunk with the
/// original (see the module docs).
#[derive(Debug, Clone)]
pub struct Document {
    name: Box<str>,
    /// Non-empty chunks, in document order.
    chunks: Vec<Arc<Vec<NodeRecord>>>,
    /// Arena index of each chunk's first record, plus the total length.
    starts: Vec<usize>,
    /// Pre ord of each chunk's first record.
    firsts: Vec<u32>,
}

impl Document {
    fn from_records(name: Box<str>, records: Vec<NodeRecord>) -> Document {
        let mut doc = Document { name, chunks: Vec::new(), starts: Vec::new(), firsts: Vec::new() };
        doc.chunks = split_into_chunks(records, false);
        doc.reindex();
        doc
    }

    /// Recomputes the chunk directory (`starts`, `firsts`): O(chunks).
    fn reindex(&mut self) {
        self.starts.clear();
        self.firsts.clear();
        let mut at = 0;
        for chunk in &self.chunks {
            self.starts.push(at);
            self.firsts.push(chunk[0].pre);
            at += chunk.len();
        }
        self.starts.push(at);
    }

    /// The logical name the document was loaded under (e.g. `auction.xml`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nodes, including the synthetic root.
    pub fn len(&self) -> usize {
        self.starts.last().copied().unwrap_or(0)
    }

    /// True only for a degenerate document with nothing but the synthetic root.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// `(chunk, offset)` of the node with pre ord `pre`. O(1) for chunks
    /// still carrying their build-time [`GAP`] spacing and position (the
    /// guess probe hits); otherwise a binary search over the chunk
    /// directory, then within the chunk.
    #[inline]
    fn locate(&self, pre: u32) -> Option<(usize, usize)> {
        let guess = (pre / GAP) as usize;
        let (c, o) = (guess / CHUNK, guess % CHUNK);
        if let Some(r) = self.chunks.get(c).and_then(|chunk| chunk.get(o)) {
            if r.pre == pre {
                return Some((c, o));
            }
        }
        let c = self.firsts.partition_point(|&f| f <= pre).checked_sub(1)?;
        let o = self.chunks[c].binary_search_by_key(&pre, |r| r.pre).ok()?;
        Some((c, o))
    }

    /// The chunk holding arena index `idx` (`idx < len`).
    fn chunk_of(&self, idx: usize) -> usize {
        self.starts.partition_point(|&s| s <= idx) - 1
    }

    /// Arena index of the node with pre ord `pre` (O(1) while the node's chunk keeps its
    /// build-time layout, two binary searches otherwise).
    #[inline]
    pub fn idx_of(&self, pre: u32) -> Option<usize> {
        self.locate(pre).map(|(c, o)| self.starts[c] + o)
    }

    /// Borrow a record by pre ord.
    ///
    /// # Panics
    /// Panics if no node has ord `pre`.
    #[inline]
    pub fn record(&self, pre: u32) -> &NodeRecord {
        match self.locate(pre) {
            Some((c, o)) => &self.chunks[c][o],
            None => panic!("{:?} has no node with pre ord {pre}", self.name),
        }
    }

    /// Fallible record lookup by pre ord.
    pub fn try_record(&self, pre: u32) -> Option<&NodeRecord> {
        self.locate(pre).map(|(c, o)| &self.chunks[c][o])
    }

    /// The record at arena index `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    pub(crate) fn at(&self, idx: usize) -> &NodeRecord {
        let c = self.chunk_of(idx);
        &self.chunks[c][idx - self.starts[c]]
    }

    /// All records in pre order.
    pub fn records(&self) -> Records<'_> {
        Records { doc: self }
    }

    /// The records at arena indexes `[start, end)`, in pre order.
    pub(crate) fn range(&self, start: usize, end: usize) -> RecordIter<'_> {
        if start >= end {
            return self.iter_at((self.chunks.len(), 0), 0);
        }
        let c = self.chunk_of(start);
        self.iter_at((c, start - self.starts[c]), end - start)
    }

    /// `n` records from position `(chunk, offset)` on.
    fn iter_at(&self, (c, o): (usize, usize), n: usize) -> RecordIter<'_> {
        match self.chunks.get(c) {
            Some(chunk) => RecordIter {
                rest: self.chunks[c + 1..].iter(),
                cur: chunk[o..].iter(),
                remaining: n,
            },
            None => RecordIter { rest: [].iter(), cur: [].iter(), remaining: 0 },
        }
    }

    /// Arena index of position `(chunk, offset)`.
    fn idx_at(&self, (c, o): (usize, usize)) -> usize {
        self.starts[c] + o
    }

    /// The first position at or after `(c, o)` whose record's pre ord
    /// exceeds `ord` (`(chunks, 0)` when none does); every record before
    /// `(c, o)` must have a pre ord `<= ord`. Subtree ends and sibling hops
    /// usually land in the same chunk, which is searched first; otherwise
    /// pre ords increase across the whole arena, so one binary search over
    /// the chunk directory and one within a chunk find it.
    fn after(&self, c: usize, o: usize, ord: u32) -> (usize, usize) {
        if let Some(chunk) = self.chunks.get(c) {
            if chunk.last().is_some_and(|r| r.pre > ord) {
                return (c, o + chunk[o..].partition_point(|r| r.pre <= ord));
            }
        }
        match self.firsts.partition_point(|&f| f <= ord) {
            0 => (0, 0),
            k => {
                let o = self.chunks[k - 1].partition_point(|r| r.pre <= ord);
                if o == self.chunks[k - 1].len() {
                    (k, 0)
                } else {
                    (k - 1, o)
                }
            }
        }
    }

    /// Positions `[start, end)` of the subtree rooted at ord `pre`.
    fn subtree_pos(&self, pre: u32) -> Option<((usize, usize), (usize, usize))> {
        let (c, o) = self.locate(pre)?;
        Some(((c, o), self.after(c, o, self.chunks[c][o].end)))
    }

    /// Number of arena chunks.
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many of this document's chunks are the very same allocation as
    /// a chunk of `other` — e.g. an earlier epoch of the same document.
    /// Chunks are compared by identity, so this counts exactly the records
    /// a copy-on-write mutation did *not* copy, in chunk units.
    pub(crate) fn shared_chunks(&self, other: &Document) -> usize {
        let theirs: std::collections::HashSet<*const Vec<NodeRecord>> =
            other.chunks.iter().map(Arc::as_ptr).collect();
        self.chunks.iter().filter(|c| theirs.contains(&Arc::as_ptr(c))).count()
    }

    /// Mutable access to the record at arena index `idx` for the in-crate
    /// update engine, copying its chunk first if another snapshot shares
    /// it (the copied records are added to `copied`). The caller must not
    /// change the record's `pre`.
    pub(crate) fn record_mut_at(&mut self, idx: usize, copied: &mut usize) -> &mut NodeRecord {
        let c = self.chunk_of(idx);
        let o = idx - self.starts[c];
        let chunk = &mut self.chunks[c];
        if Arc::get_mut(chunk).is_none() {
            *copied += chunk.len();
        }
        &mut Arc::make_mut(chunk)[o]
    }

    /// Replaces the records at arena indexes `[start, end)` with `new`
    /// (already numbered in ord space), returning the removed records.
    /// Only the chunks overlapping the range are copied (shared ones are
    /// added to `copied`); the result is re-chunked when it outgrows
    /// [`CHUNK_MAX`].
    pub(crate) fn splice(
        &mut self,
        start: usize,
        end: usize,
        new: Vec<NodeRecord>,
        copied: &mut usize,
    ) -> Vec<NodeRecord> {
        let len = self.len();
        debug_assert!(start <= end && end <= len, "splice range {start}..{end} of {len}");
        // An append at the very end edits the last chunk.
        let c0 = self.chunk_of(start.min(len - 1));
        let c1 = if end > start { self.chunk_of(end - 1) } else { c0 };
        let base = self.starts[c0];
        let mut buf = Vec::with_capacity(self.starts[c1 + 1] - base + new.len());
        for chunk in self.chunks.drain(c0..=c1) {
            match Arc::try_unwrap(chunk) {
                Ok(owned) => buf.extend(owned),
                Err(shared) => {
                    *copied += shared.len();
                    buf.extend(shared.iter().cloned());
                }
            }
        }
        let removed: Vec<NodeRecord> = buf.splice(start - base..end - base, new).collect();
        let pieces = match buf.len() {
            0 => Vec::new(),
            n if n <= CHUNK_MAX => vec![Arc::new(buf)],
            _ => split_into_chunks(buf, true),
        };
        self.chunks.splice(c0..c0, pieces);
        self.reindex();
        removed
    }

    /// Every node's pre ord, in document order.
    pub fn pres(&self) -> impl Iterator<Item = u32> + '_ {
        self.records().iter().map(|r| r.pre)
    }

    /// Pre ord of the node at arena index `idx`.
    pub fn pre_at(&self, idx: usize) -> u32 {
        self.at(idx).pre
    }

    /// Parent pre rank, or `None` at the document root.
    #[inline]
    pub fn parent(&self, pre: u32) -> Option<u32> {
        let p = self.record(pre).parent;
        (p != NO_PARENT).then_some(p)
    }

    /// Iterates the direct children of `pre` in document order
    /// (attributes first — they are built before other children).
    pub fn children(&self, pre: u32) -> ChildIter<'_> {
        match self.subtree_pos(pre) {
            Some(((c, o), end)) => {
                ChildIter { doc: self, next: (c, o + 1), stop: self.idx_at(end) }
            }
            None => ChildIter { doc: self, next: (self.chunks.len(), 0), stop: 0 },
        }
    }

    /// Number of direct children.
    pub fn child_count(&self, pre: u32) -> usize {
        self.children(pre).count()
    }

    /// Arena index range `[start, end)` of the subtree rooted at ord `pre`;
    /// empty if no such node.
    pub(crate) fn subtree_idx_range(&self, pre: u32) -> (usize, usize) {
        self.subtree_pos(pre).map_or((0, 0), |(start, end)| (self.idx_at(start), self.idx_at(end)))
    }

    /// The records of the subtree rooted at `pre` (inclusive), in pre order.
    fn subtree_records(&self, pre: u32) -> RecordIter<'_> {
        match self.subtree_pos(pre) {
            Some((start, end)) => self.iter_at(start, self.idx_at(end) - self.idx_at(start)),
            None => self.iter_at((self.chunks.len(), 0), 0),
        }
    }

    /// Iterates every node in the subtree rooted at `pre` (inclusive), by
    /// pre ord in document order.
    pub fn subtree(&self, pre: u32) -> impl Iterator<Item = u32> + '_ {
        self.subtree_records(pre).map(|r| r.pre)
    }

    /// Number of nodes in the subtree rooted at `pre` (inclusive). Under
    /// sparse ords this is a real count, not `end - pre + 1`.
    pub fn subtree_size(&self, pre: u32) -> usize {
        let (start, end) = self.subtree_idx_range(pre);
        end - start
    }

    /// True iff `anc` is a proper ancestor of `desc`.
    #[inline]
    pub fn is_ancestor(&self, anc: u32, desc: u32) -> bool {
        anc < desc && desc <= self.record(anc).end
    }

    /// The concatenated text content of the subtree rooted at `pre`
    /// (inline contents plus text-node contents, in document order).
    pub fn string_value(&self, pre: u32) -> String {
        let mut out = String::new();
        for (i, rec) in self.subtree_records(pre).enumerate() {
            // Attribute values are not part of an element's string value.
            if rec.kind == NodeKind::Attribute && i != 0 {
                continue;
            }
            if let Some(c) = &rec.content {
                out.push_str(c);
            }
        }
        out
    }

    /// The *typed* (numeric) value of a node, when its inline content parses
    /// as a number. Multi-child elements fall back to their string value.
    pub fn num_value(&self, pre: u32) -> Option<f64> {
        let rec = self.record(pre);
        match &rec.content {
            Some(c) => c.trim().parse().ok(),
            None => self.string_value(pre).trim().parse().ok(),
        }
    }

    /// Reconstructs a document from raw records (snapshot loading),
    /// validating all arena invariants.
    pub fn from_parts(name: &str, records: Vec<NodeRecord>) -> Result<Document> {
        if records.is_empty() {
            return Err(Error::Builder("document has no root".into()));
        }
        let doc = Document::from_records(name.into(), records);
        doc.check_invariants()?;
        Ok(doc)
    }

    /// Validates internal invariants; used by tests and the property suite.
    pub fn check_invariants(&self) -> Result<()> {
        let fail = |m: String| Err(Error::Builder(m));
        let Some(root) = self.records().first() else {
            return fail("document has no root".into());
        };
        if root.kind != NodeKind::DocRoot {
            return fail("node 0 must be the synthetic document root".into());
        }
        if root.pre != 0 || root.parent != NO_PARENT || root.level != 0 {
            return fail("root must have ord 0, no parent, and level 0".into());
        }
        if root.end < self.records().last().expect("non-empty").pre {
            return fail("root interval must span the document".into());
        }
        let mut prev = root.pre;
        for (i, rec) in self.records().iter().enumerate().skip(1) {
            if rec.pre <= prev {
                return fail(format!("pre ords not increasing at arena index {i}"));
            }
            prev = rec.pre;
            if rec.end < rec.pre {
                return fail(format!("node {} has bad interval end {}", rec.pre, rec.end));
            }
            let Some(parent) = self.try_record(rec.parent) else {
                return fail(format!("node {} has unknown parent ord {}", rec.pre, rec.parent));
            };
            if !(parent.pre < rec.pre && rec.pre <= parent.end) {
                return fail(format!("node {} outside parent interval", rec.pre));
            }
            if rec.end > parent.end {
                return fail(format!("node {} escapes parent interval", rec.pre));
            }
            if rec.level != parent.level + 1 {
                return fail(format!("node {} has non-adjacent level", rec.pre));
            }
        }
        Ok(())
    }
}

/// Splits `records` into shared chunks of [`CHUNK`] records (a shorter
/// tail, the build-time layout the ord probe in [`Document::idx_of`]
/// relies on) or, when `balanced`, of near-equal sizes (re-chunking an
/// edited run without leaving a runt).
fn split_into_chunks(records: Vec<NodeRecord>, balanced: bool) -> Vec<Arc<Vec<NodeRecord>>> {
    let n = records.len();
    let pieces = n.div_ceil(CHUNK);
    let mut out = Vec::with_capacity(pieces);
    let mut it = records.into_iter();
    for p in 0..pieces {
        let take = if balanced { n / pieces + usize::from(p < n % pieces) } else { CHUNK };
        out.push(Arc::new(it.by_ref().take(take).collect()));
    }
    out
}

/// A document's records in pre order: a copyable view over the chunked
/// arena (see [`Document::records`]).
#[derive(Clone, Copy)]
pub struct Records<'a> {
    doc: &'a Document,
}

impl<'a> Records<'a> {
    /// Iterates the records in pre order.
    pub fn iter(&self) -> RecordIter<'a> {
        self.doc.range(0, self.doc.len())
    }

    /// The first record (the document root).
    pub fn first(&self) -> Option<&'a NodeRecord> {
        self.doc.chunks.first().and_then(|c| c.first())
    }

    /// The last record in document order.
    pub fn last(&self) -> Option<&'a NodeRecord> {
        self.doc.chunks.last().and_then(|c| c.last())
    }
}

impl<'a> IntoIterator for Records<'a> {
    type Item = &'a NodeRecord;
    type IntoIter = RecordIter<'a>;

    fn into_iter(self) -> RecordIter<'a> {
        self.iter()
    }
}

/// Iterator over a run of arena records across chunk boundaries.
pub struct RecordIter<'a> {
    rest: std::slice::Iter<'a, Arc<Vec<NodeRecord>>>,
    cur: std::slice::Iter<'a, NodeRecord>,
    remaining: usize,
}

impl<'a> Iterator for RecordIter<'a> {
    type Item = &'a NodeRecord;

    #[inline]
    fn next(&mut self) -> Option<&'a NodeRecord> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            if let Some(r) = self.cur.next() {
                self.remaining -= 1;
                return Some(r);
            }
            self.cur = self.rest.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RecordIter<'_> {}

/// Iterator over direct children (see [`Document::children`]).
pub struct ChildIter<'a> {
    doc: &'a Document,
    /// Position of the next child, `(chunk, offset)`; the offset may equal
    /// the chunk's length (then the next chunk's first record is meant).
    next: (usize, usize),
    /// Arena index one past the parent's subtree.
    stop: usize,
}

impl Iterator for ChildIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let (mut c, mut o) = self.next;
        if self.doc.chunks.get(c).is_some_and(|chunk| o == chunk.len()) {
            (c, o) = (c + 1, 0);
        }
        if c >= self.doc.chunks.len() || self.doc.idx_at((c, o)) >= self.stop {
            return None;
        }
        let rec = &self.doc.chunks[c][o];
        // Hop over this child's subtree: advance to the first arena slot
        // whose ord falls outside the child's interval.
        self.next = self.doc.after(c, o + 1, rec.end);
        Some(rec.pre)
    }
}

/// Streaming pre-order document builder.
///
/// Usage: `start_element` / `attribute` / `text` / `end_element`, then
/// [`DocumentBuilder::finish`]. The builder collapses a single trailing text
/// run into inline element content (so `<age>25</age>` becomes one node).
///
/// While building, `pre`/`parent`/`end` hold dense arena indexes;
/// [`DocumentBuilder::finish`] remaps them into [`GAP`]-spaced ord space.
#[derive(Debug)]
pub struct DocumentBuilder {
    name: Box<str>,
    records: Vec<NodeRecord>,
    /// Stack of open element arena indexes.
    stack: Vec<u32>,
    /// Per open element: number of non-attribute children so far.
    child_counts: Vec<u32>,
}

impl DocumentBuilder {
    /// Starts a new document with the given logical name. The synthetic
    /// document root is created implicitly.
    pub fn new(name: &str, interner: &TagInterner) -> Self {
        let root = NodeRecord {
            tag: interner.doc_tag(),
            kind: NodeKind::DocRoot,
            content: None,
            pre: 0,
            parent: NO_PARENT,
            end: 0,
            level: 0,
        };
        DocumentBuilder {
            name: name.into(),
            records: vec![root],
            stack: vec![0],
            child_counts: vec![0],
        }
    }

    fn top(&self) -> u32 {
        *self.stack.last().expect("builder stack never empty before finish")
    }

    /// Opens a new element under the current node; returns its pre rank.
    pub fn start_element(&mut self, tag: TagId) -> u32 {
        let parent = self.top();
        let level = self.records[parent as usize].level + 1;
        let pre = self.records.len() as u32;
        self.records.push(NodeRecord {
            tag,
            kind: NodeKind::Element,
            content: None,
            pre,
            parent,
            end: pre,
            level,
        });
        *self.child_counts.last_mut().unwrap() += 1;
        self.stack.push(pre);
        self.child_counts.push(0);
        pre
    }

    /// Adds an attribute to the currently open element. The caller interns
    /// the name *with* its `@` prefix (see [`crate::tag`]).
    pub fn attribute(&mut self, tag: TagId, value: &str) -> u32 {
        let parent = self.top();
        let level = self.records[parent as usize].level + 1;
        let pre = self.records.len() as u32;
        self.records.push(NodeRecord {
            tag,
            kind: NodeKind::Attribute,
            content: Some(value.into()),
            pre,
            parent,
            end: pre,
            level,
        });
        pre
    }

    /// Adds a text run under the currently open element.
    pub fn text(&mut self, value: &str, interner: &TagInterner) -> u32 {
        let parent = self.top();
        let level = self.records[parent as usize].level + 1;
        let pre = self.records.len() as u32;
        self.records.push(NodeRecord {
            tag: interner.text_tag(),
            kind: NodeKind::Text,
            content: Some(value.into()),
            pre,
            parent,
            end: pre,
            level,
        });
        *self.child_counts.last_mut().unwrap() += 1;
        pre
    }

    /// Convenience: `start_element` + `text` + `end_element` (which collapses
    /// to a single node with inline content).
    pub fn leaf(&mut self, tag: TagId, content: &str, interner: &TagInterner) -> u32 {
        let pre = self.start_element(tag);
        self.text(content, interner);
        self.end_element().expect("leaf is balanced");
        pre
    }

    /// Closes the current element, fixing up its interval.
    pub fn end_element(&mut self) -> Result<u32> {
        if self.stack.len() <= 1 {
            return Err(Error::Builder("end_element without matching start".into()));
        }
        let pre = self.stack.pop().unwrap();
        let non_attr_children = self.child_counts.pop().unwrap();
        let last = self.records.len() as u32 - 1;
        // Collapse `<e>text</e>` (possibly with attributes) into inline
        // content. The last record must be a *direct* text child of the
        // element being closed — with one nested element child, the arena's
        // last record can be a grandchild text run that must not be stolen.
        if non_attr_children == 1
            && self.records[last as usize].kind == NodeKind::Text
            && self.records[last as usize].parent == pre
        {
            let text = self.records.pop().unwrap();
            self.records[pre as usize].content = text.content;
        }
        let end = self.records.len() as u32 - 1;
        self.records[pre as usize].end = end;
        Ok(pre)
    }

    /// Finalizes the document, remapping the dense build-time indexes into
    /// [`GAP`]-spaced pre ords. Fails if elements are still open.
    pub fn finish(mut self) -> Result<Document> {
        if self.stack.len() != 1 {
            return Err(Error::Builder(format!("{} unclosed element(s)", self.stack.len() - 1)));
        }
        self.records[0].end = self.records.len() as u32 - 1;
        remap_dense_to_ords(&mut self.records);
        let doc = Document::from_records(self.name, self.records);
        debug_assert!(doc.check_invariants().is_ok(), "{:?}", doc.check_invariants());
        Ok(doc)
    }
}

/// Remaps records whose `pre`/`parent`/`end` hold dense arena indexes (the
/// builder's working representation, also persistence format v1) into
/// gap-spaced ord space: `pre = idx * gap`, `end = (end_idx + 1) * gap - 1`.
/// A node's end slack stops just short of the next non-descendant's ord, so
/// interval containment is preserved exactly.
pub(crate) fn remap_dense_to_ords(records: &mut [NodeRecord]) {
    let gap = u64::from(gap_for(records.len()));
    for (idx, rec) in records.iter_mut().enumerate() {
        rec.pre = (idx as u64 * gap) as u32;
        if rec.parent != NO_PARENT {
            rec.parent = (u64::from(rec.parent) * gap) as u32;
        }
        rec.end = ((u64::from(rec.end) + 1) * gap - 1) as u32;
    }
}

/// Borrowed view of a node inside a known document, convenient for callers
/// that hold a [`NodeId`].
#[derive(Clone, Copy)]
pub struct DocNode<'a> {
    /// The owning document.
    pub doc: &'a Document,
    /// The document's id in the database.
    pub doc_id: DocId,
    /// Pre rank within the document.
    pub pre: u32,
}

impl<'a> DocNode<'a> {
    /// The full node id.
    pub fn id(&self) -> NodeId {
        NodeId::new(self.doc_id, self.pre)
    }

    /// The record behind this view.
    pub fn record(&self) -> &'a NodeRecord {
        self.doc.record(self.pre)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_sample() -> (Document, TagInterner) {
        // <site><person id="p0"><age>25</age><name>Ann</name></person>
        //       <person id="p1"><name>Bo</name></person></site>
        let i = TagInterner::new();
        let (site, person, age, name, at_id) = (
            i.intern("site"),
            i.intern("person"),
            i.intern("age"),
            i.intern("name"),
            i.intern("@id"),
        );
        let mut b = DocumentBuilder::new("sample.xml", &i);
        b.start_element(site);
        b.start_element(person);
        b.attribute(at_id, "p0");
        b.leaf(age, "25", &i);
        b.leaf(name, "Ann", &i);
        b.end_element().unwrap();
        b.start_element(person);
        b.attribute(at_id, "p1");
        b.leaf(name, "Bo", &i);
        b.end_element().unwrap();
        b.end_element().unwrap();
        (b.finish().unwrap(), i)
    }

    #[test]
    fn invariants_hold_for_sample() {
        let (doc, _) = build_sample();
        doc.check_invariants().unwrap();
    }

    fn find_tag(doc: &Document, tag: TagId) -> u32 {
        doc.pres().find(|&p| doc.record(p).tag == tag).unwrap()
    }

    #[test]
    fn leaf_text_is_collapsed_inline() {
        let (doc, i) = build_sample();
        let age = i.lookup("age").unwrap();
        let node = find_tag(&doc, age);
        assert_eq!(doc.record(node).content.as_deref(), Some("25"));
        assert_eq!(doc.subtree_size(node), 1, "collapsed leaf has no descendants");
        assert_eq!(doc.num_value(node), Some(25.0));
    }

    #[test]
    fn pre_ords_are_gap_spaced() {
        let (doc, _) = build_sample();
        let pres: Vec<u32> = doc.pres().collect();
        assert_eq!(pres[0], 0, "root keeps ord 0");
        for (idx, &p) in pres.iter().enumerate() {
            assert_eq!(p, idx as u32 * GAP);
            assert_eq!(doc.idx_of(p), Some(idx));
        }
        assert_eq!(doc.idx_of(1), None, "slack ords resolve to no node");
    }

    #[test]
    fn children_iterates_in_document_order() {
        let (doc, i) = build_sample();
        let person = i.lookup("person").unwrap();
        let site = find_tag(&doc, i.lookup("site").unwrap());
        let site_children: Vec<u32> = doc.children(site).collect();
        assert_eq!(site_children.len(), 2);
        assert!(site_children.iter().all(|&c| doc.record(c).tag == person));
        assert!(site_children[0] < site_children[1]);
    }

    #[test]
    fn attributes_come_before_element_children() {
        let (doc, i) = build_sample();
        let p0 = find_tag(&doc, i.lookup("person").unwrap());
        let kids: Vec<NodeKind> = doc.children(p0).map(|c| doc.record(c).kind).collect();
        assert_eq!(kids[0], NodeKind::Attribute);
        assert!(kids[1..].iter().all(|k| *k == NodeKind::Element));
    }

    #[test]
    fn string_value_concatenates_descendant_text_not_attributes() {
        let (doc, i) = build_sample();
        let p0 = find_tag(&doc, i.lookup("person").unwrap());
        assert_eq!(doc.string_value(p0), "25Ann");
    }

    #[test]
    fn ancestor_test_matches_navigation() {
        let (doc, _) = build_sample();
        for a in doc.pres() {
            for d in doc.pres() {
                let nav = {
                    let mut cur = doc.parent(d);
                    let mut found = false;
                    while let Some(p) = cur {
                        if p == a {
                            found = true;
                            break;
                        }
                        cur = doc.parent(p);
                    }
                    found
                };
                assert_eq!(doc.is_ancestor(a, d), nav, "a={a} d={d}");
            }
        }
    }

    #[test]
    fn collapse_does_not_steal_grandchild_text() {
        // <li><t>head<k>kw</k>tail</t></li> — li has one element child whose
        // last descendant is a text run; collapsing must not move "tail"
        // onto li. (Regression: found by the xmark round-trip test.)
        let i = TagInterner::new();
        let (li, t, k) = (i.intern("li"), i.intern("t"), i.intern("k"));
        let mut b = DocumentBuilder::new("m.xml", &i);
        b.start_element(li);
        b.start_element(t);
        b.text("head", &i);
        b.leaf(k, "kw", &i);
        b.text("tail", &i);
        b.end_element().unwrap();
        b.end_element().unwrap();
        let doc = b.finish().unwrap();
        doc.check_invariants().unwrap();
        let li_pre = find_tag(&doc, li);
        let t_pre = find_tag(&doc, t);
        assert_eq!(doc.record(li_pre).content, None, "li keeps no stolen content");
        assert_eq!(doc.string_value(li_pre), "headkwtail");
        // t has three children: text, k, text.
        assert_eq!(doc.child_count(t_pre), 3);
    }

    #[test]
    fn unbalanced_builder_fails() {
        let i = TagInterner::new();
        let mut b = DocumentBuilder::new("bad.xml", &i);
        b.start_element(i.intern("open"));
        assert!(b.finish().is_err());

        let mut b = DocumentBuilder::new("bad2.xml", &i);
        assert!(b.end_element().is_err());
    }

    #[test]
    fn subtree_covers_interval() {
        let (doc, i) = build_sample();
        let p0 = find_tag(&doc, i.lookup("person").unwrap());
        let sub: Vec<u32> = doc.subtree(p0).collect();
        assert_eq!(sub.first(), Some(&p0));
        assert_eq!(sub.len(), doc.subtree_size(p0));
        // Every subtree ord is inside the interval; the end may carry slack.
        assert!(sub.iter().all(|&p| p <= doc.record(p0).end));
        // Everything outside the arena range is outside the interval.
        for p in doc.pres().filter(|p| !sub.contains(p)) {
            assert!(p < p0 || p > doc.record(p0).end);
        }
    }
}
