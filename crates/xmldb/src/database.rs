//! The database: a named collection of documents plus their indexes.

use crate::document::{Document, DocumentBuilder};
use crate::error::{Error, Result};
use crate::index::{TagIndex, ValueIndex};
use crate::node::{DocId, NodeId, NodeKind};
use crate::tag::{TagId, TagInterner};
use std::collections::HashMap;
use std::sync::Arc;

/// A native XML database: documents, a shared tag interner, and the two
/// access-path indexes of the paper's evaluation (tag index + value index).
///
/// `Clone` is cheap and shares structure: the copy points at the same
/// arena chunks ([`crate::document`]), per-tag posting lists and value
/// partitions ([`crate::index`]) and tag interner as the original, so it
/// costs O(documents + chunks + tags), not O(nodes). The copy-on-write
/// commit path in the service clones the database, applies
/// [`crate::update`] mutations to the copy — which copy only the chunks,
/// posting lists and partitions they change — and publishes it as the next
/// epoch. Loads and updates never change what the original exposes; only
/// interning directly through [`Database::interner`] reaches every clone
/// that shares the interner.
#[derive(Debug, Clone)]
pub struct Database {
    interner: Arc<TagInterner>,
    docs: Vec<Document>,
    names: HashMap<Box<str>, DocId>,
    tag_index: TagIndex,
    value_index: ValueIndex,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database {
            interner: Arc::new(TagInterner::new()),
            docs: Vec::new(),
            names: HashMap::new(),
            tag_index: TagIndex::new(),
            value_index: ValueIndex::new(),
        }
    }

    /// The tag interner (shared with clones until a load or insert into
    /// one of them interns a new label).
    pub fn interner(&self) -> &TagInterner {
        &self.interner
    }

    /// The interner, unshared first: loads and the update engine intern new
    /// labels here, which must not leak into an older snapshot that shares
    /// the interner (copies O(labels), only when shared).
    pub(crate) fn interner_for_insert(&mut self) -> &TagInterner {
        if Arc::get_mut(&mut self.interner).is_none() {
            self.interner = Arc::new((*self.interner).clone());
        }
        &self.interner
    }

    /// How much of this database's storage is the very same allocation as
    /// `other`'s — e.g. the epoch it was cloned from before a mutation.
    pub fn sharing(&self, other: &Database) -> Sharing {
        let mut s = Sharing {
            tag_lists_shared: self.tag_index.shared_lists(&other.tag_index),
            tag_lists: self.tag_index.tag_count(),
            value_partitions_shared: self.value_index.shared_partitions(&other.value_index),
            value_partitions: self.value_index.partition_count(),
            ..Sharing::default()
        };
        for (doc, theirs) in self.docs.iter().zip(&other.docs) {
            s.chunks_shared += doc.shared_chunks(theirs);
        }
        s.chunks = self.docs.iter().map(Document::chunk_count).sum();
        s
    }

    /// Starts building a document destined for this database.
    pub fn builder(&self, name: &str) -> DocumentBuilder {
        DocumentBuilder::new(name, &self.interner)
    }

    /// Inserts a finished document, indexing every node. Fails if a document
    /// with the same logical name is already loaded.
    pub fn insert(&mut self, doc: Document) -> Result<DocId> {
        if self.names.contains_key(doc.name()) {
            return Err(Error::DuplicateDocumentName(doc.name().to_string()));
        }
        let doc_id = DocId(self.docs.len() as u32);
        for rec in doc.records() {
            let id = NodeId::new(doc_id, rec.pre);
            match rec.kind {
                NodeKind::DocRoot => {}
                NodeKind::Element | NodeKind::Attribute | NodeKind::Text => {
                    self.tag_index.insert(rec.tag, id);
                    if let Some(content) = &rec.content {
                        self.value_index.insert(rec.tag, rec.kind, id, content);
                    }
                }
            }
        }
        self.names.insert(doc.name().into(), doc_id);
        self.docs.push(doc);
        Ok(doc_id)
    }

    /// Parses and loads an XML string under the given logical name.
    pub fn load_xml(&mut self, name: &str, xml: &str) -> Result<DocId> {
        let doc = crate::parse::parse_document(name, xml, self.interner_for_insert())?;
        self.insert(doc)
    }

    /// Resolves a logical document name (`auction.xml`).
    pub fn document_by_name(&self, name: &str) -> Result<DocId> {
        self.names.get(name).copied().ok_or_else(|| Error::UnknownDocumentName(name.to_string()))
    }

    /// Borrows a document.
    pub fn document(&self, id: DocId) -> &Document {
        &self.docs[id.0 as usize]
    }

    /// Fallible document access.
    pub fn try_document(&self, id: DocId) -> Result<&Document> {
        self.docs.get(id.0 as usize).ok_or(Error::NoSuchDocument(id.0))
    }

    /// Number of loaded documents.
    pub fn document_count(&self) -> usize {
        self.docs.len()
    }

    /// Total node count over all documents.
    pub fn node_count(&self) -> usize {
        self.docs.iter().map(Document::len).sum()
    }

    /// The synthetic root node of a document.
    pub fn root(&self, doc: DocId) -> NodeId {
        NodeId::new(doc, 0)
    }

    /// Borrows a node view.
    #[inline]
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        NodeRef { db: self, id }
    }

    /// The tag index (document-ordered postings per tag).
    pub fn tag_index(&self) -> &TagIndex {
        &self.tag_index
    }

    /// The content-value index.
    pub fn value_index(&self) -> &ValueIndex {
        &self.value_index
    }

    /// All nodes with the given tag name, in document order. Unknown tags
    /// yield an empty slice.
    pub fn nodes_with_tag(&self, tag: &str) -> &[NodeId] {
        match self.interner.lookup(tag) {
            Some(t) => self.tag_index.get(t),
            None => &[],
        }
    }

    /// Mutable access to one document's arena plus both indexes, for the
    /// in-crate update engine (which must keep them consistent).
    pub(crate) fn update_parts(
        &mut self,
        doc: DocId,
    ) -> (&mut Document, &mut TagIndex, &mut ValueIndex) {
        (&mut self.docs[doc.0 as usize], &mut self.tag_index, &mut self.value_index)
    }

    /// Structural test: is `a` a proper ancestor of `d`?
    #[inline]
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        a.doc == d.doc && self.document(a.doc).is_ancestor(a.pre, d.pre)
    }

    /// Structural test: is `p` the parent of `c`?
    #[inline]
    pub fn is_parent(&self, p: NodeId, c: NodeId) -> bool {
        p.doc == c.doc && self.document(p.doc).parent(c.pre) == Some(p.pre)
    }
}

/// Structural sharing between two databases ([`Database::sharing`]): for
/// each kind of storage unit, how many this database has and how many of
/// them are the same allocation as the other database's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sharing {
    /// Arena chunks, over all documents.
    pub chunks: usize,
    /// Arena chunks shared with the other database.
    pub chunks_shared: usize,
    /// Tag-index posting lists.
    pub tag_lists: usize,
    /// Tag-index posting lists shared with the other database.
    pub tag_lists_shared: usize,
    /// Value-index tag partitions.
    pub value_partitions: usize,
    /// Value-index tag partitions shared with the other database.
    pub value_partitions_shared: usize,
}

/// Borrowed, copyable view of a base node: the ergonomic access surface used
/// by all engines.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    db: &'a Database,
    id: NodeId,
}

impl<'a> NodeRef<'a> {
    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The owning database.
    pub fn db(&self) -> &'a Database {
        self.db
    }

    fn doc(&self) -> &'a Document {
        self.db.document(self.id.doc)
    }

    /// Interned tag.
    pub fn tag(&self) -> TagId {
        self.doc().record(self.id.pre).tag
    }

    /// Tag name as text.
    pub fn tag_name(&self) -> Box<str> {
        self.db.interner.name(self.tag())
    }

    /// Node kind.
    pub fn kind(&self) -> NodeKind {
        self.doc().record(self.id.pre).kind
    }

    /// Depth in the document (root is 0).
    pub fn level(&self) -> u16 {
        self.doc().record(self.id.pre).level
    }

    /// Ord-space end of the subtree interval (may carry slack beyond the
    /// last descendant's ord; see [`crate::document`]).
    pub fn end(&self) -> u32 {
        self.doc().record(self.id.pre).end
    }

    /// Number of nodes in this subtree, including self.
    pub fn subtree_size(&self) -> usize {
        self.doc().subtree_size(self.id.pre)
    }

    /// Inline content, if the node has one.
    pub fn content(&self) -> Option<&'a str> {
        self.doc().record(self.id.pre).content.as_deref()
    }

    /// Full string value (inline + descendant text).
    pub fn string_value(&self) -> String {
        self.doc().string_value(self.id.pre)
    }

    /// Numeric value, when the content parses as a number.
    pub fn num_value(&self) -> Option<f64> {
        self.doc().num_value(self.id.pre)
    }

    /// Parent node.
    pub fn parent(&self) -> Option<NodeRef<'a>> {
        self.doc().parent(self.id.pre).map(|p| self.db.node(NodeId::new(self.id.doc, p)))
    }

    /// Direct children in document order.
    pub fn children(&self) -> impl Iterator<Item = NodeRef<'a>> + 'a {
        let db = self.db;
        let doc_id = self.id.doc;
        self.doc().children(self.id.pre).map(move |p| db.node(NodeId::new(doc_id, p)))
    }

    /// Every node in this subtree, in document order, including self.
    pub fn subtree(&self) -> impl Iterator<Item = NodeRef<'a>> + 'a {
        let db = self.db;
        let doc_id = self.id.doc;
        self.doc().subtree(self.id.pre).map(move |p| db.node(NodeId::new(doc_id, p)))
    }

    /// The attribute child with the given name (without `@`), if present.
    pub fn attribute(&self, name: &str) -> Option<NodeRef<'a>> {
        let tag = self.db.interner.lookup(&format!("@{name}"))?;
        self.children().find(|c| c.kind() == NodeKind::Attribute && c.tag() == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.load_xml(
            "auction.xml",
            r#"<site>
                 <person id="p0"><age>25</age><name>Ann</name></person>
                 <person id="p1"><name>Bo</name></person>
               </site>"#,
        )
        .unwrap();
        db
    }

    #[test]
    fn load_and_lookup_by_name() {
        let db = sample_db();
        assert_eq!(db.document_count(), 1);
        let d = db.document_by_name("auction.xml").unwrap();
        assert_eq!(d, DocId(0));
        assert!(db.document_by_name("other.xml").is_err());
    }

    #[test]
    fn duplicate_name_is_rejected() {
        let mut db = sample_db();
        assert!(db.load_xml("auction.xml", "<x/>").is_err());
    }

    #[test]
    fn tag_index_covers_all_elements() {
        let db = sample_db();
        assert_eq!(db.nodes_with_tag("person").len(), 2);
        assert_eq!(db.nodes_with_tag("name").len(), 2);
        assert_eq!(db.nodes_with_tag("age").len(), 1);
        assert_eq!(db.nodes_with_tag("@id").len(), 2);
        assert!(db.nodes_with_tag("zebra").is_empty());
    }

    #[test]
    fn value_index_finds_content() {
        let db = sample_db();
        let name_tag = db.interner().lookup("name").unwrap();
        assert_eq!(db.value_index().lookup_exact(name_tag, "Ann").len(), 1);
        let age_tag = db.interner().lookup("age").unwrap();
        assert_eq!(
            db.value_index().lookup_cmp(age_tag, std::cmp::Ordering::Greater, 20.0).len(),
            1
        );
    }

    #[test]
    fn node_ref_navigation() {
        let db = sample_db();
        let p0 = db.nodes_with_tag("person")[0];
        let n = db.node(p0);
        assert_eq!(&*n.tag_name(), "person");
        assert_eq!(n.attribute("id").unwrap().content(), Some("p0"));
        assert!(n.attribute("missing").is_none());
        let kids: Vec<Box<str>> = n.children().map(|c| c.tag_name()).collect();
        assert_eq!(kids.iter().map(|s| &**s).collect::<Vec<_>>(), vec!["@id", "age", "name"]);
        let age = n.children().find(|c| &*c.tag_name() == "age").unwrap();
        assert_eq!(age.num_value(), Some(25.0));
        assert_eq!(age.parent().unwrap().id(), p0);
    }

    #[test]
    fn structural_predicates() {
        let db = sample_db();
        let site = db.nodes_with_tag("site")[0];
        let persons = db.nodes_with_tag("person");
        let names = db.nodes_with_tag("name");
        assert!(db.is_ancestor(site, persons[0]));
        assert!(db.is_parent(site, persons[0]));
        assert!(db.is_ancestor(site, names[0]));
        assert!(!db.is_parent(site, names[0]));
        assert!(!db.is_ancestor(persons[1], names[0]));
    }
}
