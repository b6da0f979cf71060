//! Intermediate-result trees.
//!
//! Every TLC operator maps sets of [`ResultTree`]s to sets of
//! [`ResultTree`]s. A result tree is a small arena of nodes, each of which is
//! either a reference to a *base* node in the store (its full stored subtree
//! implied) or a *temporary* node created during execution (join roots,
//! aggregate results, constructed elements — see §5.1 on temporary node
//! identifiers).
//!
//! Each node carries the set of logical classes it belongs to and a
//! `shadowed` flag (§4.3): shadowed nodes remain class members but are
//! invisible to every operator except Illuminate.

use crate::logical_class::LclId;
use std::collections::HashMap;
use xmldb::{Database, NodeId, TagId, TempId};

/// Index of a node within one [`ResultTree`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RNodeId(pub u32);

/// Generator for temporary node identifiers (paper §5.1, Property 4): a
/// plain monotone counter, so temporaries are unique and creation-ordered
/// without ever renumbering base nodes.
#[derive(Debug, Default)]
pub struct TempIdGen {
    next: u64,
}

impl TempIdGen {
    /// Fresh generator.
    pub fn new() -> Self {
        TempIdGen::default()
    }

    /// Next temporary id.
    pub fn fresh(&mut self) -> TempId {
        let id = TempId(self.next);
        self.next += 1;
        id
    }
}

/// What a result-tree node stands for.
#[derive(Debug, Clone, PartialEq)]
pub enum RSource {
    /// A stored node; its full stored subtree is implied at output time.
    Base(NodeId),
    /// A temporary node created during execution.
    Temp {
        /// Unique creation-ordered identifier.
        id: TempId,
        /// Tag of the temporary (e.g. `join_root`, a constructed tag, or an
        /// aggregate-function name).
        tag: TagId,
        /// Inline content (aggregate values, copied text).
        content: Option<Box<str>>,
    },
}

/// Identity key used for node-id duplicate elimination and ordering:
/// base nodes order by document position, temporaries by creation order.
/// Base nodes sort before temporaries (temporaries are "later" than any
/// document content, which preserves document order of base data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IdentKey {
    /// A base node's document-order identity.
    Base(NodeId),
    /// A temporary node's creation identity.
    Temp(TempId),
}

/// One node in a result tree.
#[derive(Debug, Clone)]
pub struct RNode {
    /// What the node is.
    pub source: RSource,
    /// Parent within the result tree.
    pub parent: Option<RNodeId>,
    /// Explicit children within the result tree (document order for matched
    /// siblings; construction order for temporaries).
    pub children: Vec<RNodeId>,
    /// Logical classes this node belongs to (usually exactly one).
    pub lcls: Vec<LclId>,
    /// Shadow flag (§4.3). Shadowed nodes are skipped by every accessor
    /// except the `_all` variants used by Illuminate.
    pub shadowed: bool,
}

impl RNode {
    /// The node's identity key.
    pub fn ident(&self) -> IdentKey {
        match &self.source {
            RSource::Base(id) => IdentKey::Base(*id),
            RSource::Temp { id, .. } => IdentKey::Temp(*id),
        }
    }
}

/// An intermediate-result tree: node arena + logical-class reduction.
#[derive(Debug, Clone, Default)]
pub struct ResultTree {
    nodes: Vec<RNode>,
    classes: HashMap<LclId, Vec<RNodeId>>,
}

impl ResultTree {
    /// Creates a tree with a single root node.
    pub fn with_root(source: RSource) -> ResultTree {
        ResultTree {
            nodes: vec![RNode {
                source,
                parent: None,
                children: Vec::new(),
                lcls: Vec::new(),
                shadowed: false,
            }],
            classes: HashMap::new(),
        }
    }

    /// The root node (index 0 by construction).
    pub fn root(&self) -> RNodeId {
        RNodeId(0)
    }

    /// Borrow a node.
    #[inline]
    pub fn node(&self, id: RNodeId) -> &RNode {
        &self.nodes[id.0 as usize]
    }

    /// Number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the arena is empty (never for well-formed trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Approximate resident size in bytes: arena nodes plus their child /
    /// class vectors, inline temporary content, and the class map. Used by
    /// byte-budgeted caches; an estimate, not an accounting.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes =
            std::mem::size_of::<ResultTree>() + self.nodes.len() * std::mem::size_of::<RNode>();
        for n in &self.nodes {
            bytes += n.children.len() * std::mem::size_of::<RNodeId>();
            bytes += n.lcls.len() * std::mem::size_of::<LclId>();
            if let RSource::Temp { content: Some(c), .. } = &n.source {
                bytes += c.len();
            }
        }
        for members in self.classes.values() {
            bytes += std::mem::size_of::<(LclId, Vec<RNodeId>)>()
                + members.len() * std::mem::size_of::<RNodeId>();
        }
        bytes
    }

    /// Appends a child node under `parent`; returns its id.
    pub fn add_node(&mut self, parent: RNodeId, source: RSource) -> RNodeId {
        let id = RNodeId(self.nodes.len() as u32);
        self.nodes.push(RNode {
            source,
            parent: Some(parent),
            children: Vec::new(),
            lcls: Vec::new(),
            shadowed: false,
        });
        self.nodes[parent.0 as usize].children.push(id);
        id
    }

    /// Registers `node` as a member of `lcl`.
    pub fn assign_lcl(&mut self, node: RNodeId, lcl: LclId) {
        let n = &mut self.nodes[node.0 as usize];
        if !n.lcls.contains(&lcl) {
            n.lcls.push(lcl);
            self.classes.entry(lcl).or_default().push(node);
        }
    }

    /// Visible (non-shadowed) members of a class, in insertion order
    /// (matched members are inserted in document order).
    pub fn members(&self, lcl: LclId) -> Vec<RNodeId> {
        self.classes
            .get(&lcl)
            .map(|v| v.iter().copied().filter(|id| !self.is_shadowed(*id)).collect())
            .unwrap_or_default()
    }

    /// All members of a class, including shadowed ones (Illuminate only).
    pub fn members_all(&self, lcl: LclId) -> &[RNodeId] {
        self.classes.get(&lcl).map_or(&[], Vec::as_slice)
    }

    /// The single visible member of a class, if exactly one exists.
    pub fn singleton(&self, lcl: LclId) -> Option<RNodeId> {
        let m = self.members(lcl);
        (m.len() == 1).then(|| m[0])
    }

    /// The single member of a class counting shadowed nodes — used by Join
    /// for key extraction from hidden construct children.
    pub fn singleton_all(&self, lcl: LclId) -> Option<RNodeId> {
        let m = self.members_all(lcl);
        (m.len() == 1).then(|| m[0])
    }

    /// True when the node or any ancestor carries the shadow flag.
    pub fn is_shadowed(&self, id: RNodeId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            let n = self.node(c);
            if n.shadowed {
                return true;
            }
            cur = n.parent;
        }
        false
    }

    /// Sets or clears the shadow flag on a node (its subtree inherits the
    /// flag implicitly through [`ResultTree::is_shadowed`]).
    pub fn set_shadowed(&mut self, id: RNodeId, value: bool) {
        self.nodes[id.0 as usize].shadowed = value;
    }

    /// Ordering key of the tree: the identity of its root (base roots order
    /// by document position — the paper's Property 3 — and temporary roots
    /// by creation order).
    pub fn order_key(&self) -> IdentKey {
        self.node(self.root()).ident()
    }

    /// Textual value of a node: base nodes read the store, temporaries
    /// concatenate inline content with visible child values.
    pub fn value(&self, db: &Database, id: RNodeId) -> String {
        match &self.node(id).source {
            RSource::Base(n) => db.node(*n).string_value(),
            RSource::Temp { content, .. } => {
                let mut s = content.as_deref().unwrap_or("").to_string();
                for &c in &self.node(id).children {
                    if !self.is_shadowed(c) {
                        s.push_str(&self.value(db, c));
                    }
                }
                s
            }
        }
    }

    /// Numeric value of a node, when the text parses.
    pub fn num(&self, db: &Database, id: RNodeId) -> Option<f64> {
        match &self.node(id).source {
            RSource::Base(n) => db.node(*n).num_value(),
            _ => self.value(db, id).trim().parse().ok(),
        }
    }

    /// Grafts a copy of `other` (entire tree) as the last child of `under`.
    /// Class memberships of the grafted nodes are merged into this tree.
    /// Returns the id of the grafted root.
    pub fn graft(&mut self, other: &ResultTree, under: RNodeId) -> RNodeId {
        let offset = self.nodes.len() as u32;
        for (i, n) in other.nodes.iter().enumerate() {
            let mut n = n.clone();
            n.parent = match n.parent {
                Some(p) => Some(RNodeId(p.0 + offset)),
                None => Some(under),
            };
            for c in &mut n.children {
                c.0 += offset;
            }
            self.nodes.push(n);
            debug_assert_eq!(offset + i as u32, self.nodes.len() as u32 - 1);
        }
        let new_root = RNodeId(other.root().0 + offset);
        self.nodes[under.0 as usize].children.push(new_root);
        for (lcl, mems) in &other.classes {
            let target = self.classes.entry(*lcl).or_default();
            target.extend(mems.iter().map(|m| RNodeId(m.0 + offset)));
        }
        new_root
    }

    /// Produces a copy of the tree without the nodes in `drop` (and their
    /// subtrees). Dropping the root is not allowed.
    pub fn without(&self, drop: &[RNodeId]) -> ResultTree {
        debug_assert!(!drop.contains(&self.root()), "cannot drop the root");
        let mut dead = vec![false; self.nodes.len()];
        for &d in drop {
            dead[d.0 as usize] = true;
        }
        // Propagate to descendants (arena order is not topological after
        // grafts, so walk from each root-reachable node instead).
        self.mark_descendants(self.root(), false, &mut dead);
        self.rebuild(|id| !dead[id.0 as usize])
    }

    fn mark_descendants(&self, at: RNodeId, inherited: bool, dead: &mut [bool]) {
        let is_dead = inherited || dead[at.0 as usize];
        dead[at.0 as usize] = is_dead;
        for &c in &self.node(at).children {
            self.mark_descendants(c, is_dead, dead);
        }
    }

    /// Rebuilds the tree retaining only nodes for which `keep` returns true.
    /// A kept node is re-parented to its nearest kept ancestor; the root is
    /// always kept. Class memberships of dropped nodes are removed.
    pub fn rebuild(&self, keep: impl Fn(RNodeId) -> bool) -> ResultTree {
        let mut map: Vec<Option<RNodeId>> = vec![None; self.nodes.len()];
        let mut out = ResultTree::default();
        self.rebuild_rec(self.root(), None, &keep, &mut map, &mut out);
        for (lcl, mems) in &self.classes {
            for &m in mems {
                if let Some(new) = map[m.0 as usize] {
                    let n = &mut out.nodes[new.0 as usize];
                    if !n.lcls.contains(lcl) {
                        n.lcls.push(*lcl);
                        out.classes.entry(*lcl).or_default().push(new);
                    }
                }
            }
        }
        // Keep class member lists in insertion (document) order of the new arena.
        for mems in out.classes.values_mut() {
            mems.sort_unstable();
        }
        out
    }

    fn rebuild_rec(
        &self,
        at: RNodeId,
        new_parent: Option<RNodeId>,
        keep: &impl Fn(RNodeId) -> bool,
        map: &mut [Option<RNodeId>],
        out: &mut ResultTree,
    ) {
        let n = self.node(at);
        let kept = at == self.root() || keep(at);
        let next_parent = if kept {
            let new = match new_parent {
                None => {
                    out.nodes.push(RNode {
                        source: n.source.clone(),
                        parent: None,
                        children: Vec::new(),
                        lcls: Vec::new(),
                        shadowed: n.shadowed,
                    });
                    RNodeId(0)
                }
                Some(p) => {
                    let id = RNodeId(out.nodes.len() as u32);
                    out.nodes.push(RNode {
                        source: n.source.clone(),
                        parent: Some(p),
                        children: Vec::new(),
                        lcls: Vec::new(),
                        shadowed: n.shadowed,
                    });
                    out.nodes[p.0 as usize].children.push(id);
                    id
                }
            };
            map[at.0 as usize] = Some(new);
            Some(new)
        } else {
            new_parent
        };
        for &c in &n.children {
            self.rebuild_rec(c, next_parent, keep, map, out);
        }
    }

    /// All class labels present in the tree.
    pub fn class_labels(&self) -> impl Iterator<Item = LclId> + '_ {
        self.classes.keys().copied()
    }

    /// Validates arena invariants (parents/children consistent, classes point
    /// at real nodes). Used by tests and the property suite.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty arena".into());
        }
        if self.nodes[0].parent.is_some() {
            return Err("root must have no parent".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let id = RNodeId(i as u32);
            if let Some(p) = n.parent {
                if p.0 as usize >= self.nodes.len() {
                    return Err(format!("node {i} has dangling parent"));
                }
                if !self.node(p).children.contains(&id) {
                    return Err(format!("node {i} missing from parent's children"));
                }
            }
            for &c in &n.children {
                if c.0 as usize >= self.nodes.len() {
                    return Err(format!("node {i} has dangling child"));
                }
                if self.node(c).parent != Some(id) {
                    return Err(format!("child {} of {} disagrees about parent", c.0, i));
                }
            }
            for lcl in &n.lcls {
                if !self.classes.get(lcl).is_some_and(|m| m.contains(&id)) {
                    return Err(format!("node {i} class {lcl} not registered"));
                }
            }
        }
        for (lcl, mems) in &self.classes {
            for m in mems {
                if m.0 as usize >= self.nodes.len() {
                    return Err(format!("class {lcl} has dangling member"));
                }
                if !self.node(*m).lcls.contains(lcl) {
                    return Err(format!("class {lcl} member {} lacks back-reference", m.0));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb::DocId;

    fn base(pre: u32) -> RSource {
        RSource::Base(NodeId::new(DocId(0), pre))
    }

    fn temp(gen: &mut TempIdGen) -> RSource {
        RSource::Temp { id: gen.fresh(), tag: TagId(0), content: None }
    }

    #[test]
    fn build_and_query_classes() {
        let mut t = ResultTree::with_root(base(0));
        let a = t.add_node(t.root(), base(1));
        let b = t.add_node(t.root(), base(5));
        t.assign_lcl(a, LclId(3));
        t.assign_lcl(b, LclId(3));
        t.assign_lcl(a, LclId(4));
        assert_eq!(t.members(LclId(3)), vec![a, b]);
        assert_eq!(t.singleton(LclId(4)), Some(a));
        assert_eq!(t.singleton(LclId(3)), None);
        assert!(t.members(LclId(9)).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn shadowing_hides_members_and_subtrees() {
        let mut t = ResultTree::with_root(base(0));
        let a = t.add_node(t.root(), base(1));
        let a_child = t.add_node(a, base(2));
        let b = t.add_node(t.root(), base(5));
        for n in [a, a_child, b] {
            t.assign_lcl(n, LclId(1));
        }
        t.set_shadowed(a, true);
        assert_eq!(t.members(LclId(1)), vec![b], "a and its subtree are hidden");
        assert_eq!(t.members_all(LclId(1)).len(), 3);
        t.set_shadowed(a, false);
        assert_eq!(t.members(LclId(1)).len(), 3);
    }

    #[test]
    fn graft_remaps_ids_and_classes() {
        let mut gen = TempIdGen::new();
        let mut left = ResultTree::with_root(temp(&mut gen));
        let l1 = left.add_node(left.root(), base(1));
        left.assign_lcl(l1, LclId(1));

        let mut right = ResultTree::with_root(base(10));
        let r1 = right.add_node(right.root(), base(11));
        right.assign_lcl(right.root(), LclId(2));
        right.assign_lcl(r1, LclId(3));

        let grafted_root = left.graft(&right, left.root());
        left.check_invariants().unwrap();
        assert_eq!(left.node(left.root()).children.len(), 2);
        assert_eq!(left.members(LclId(2)), vec![grafted_root]);
        assert_eq!(left.members(LclId(3)).len(), 1);
        assert_eq!(left.members(LclId(1)), vec![l1]);
    }

    #[test]
    fn without_drops_subtrees() {
        let mut t = ResultTree::with_root(base(0));
        let a = t.add_node(t.root(), base(1));
        let a1 = t.add_node(a, base(2));
        let b = t.add_node(t.root(), base(5));
        t.assign_lcl(a, LclId(1));
        t.assign_lcl(a1, LclId(2));
        t.assign_lcl(b, LclId(1));
        let pruned = t.without(&[a]);
        pruned.check_invariants().unwrap();
        assert_eq!(pruned.len(), 2);
        assert_eq!(pruned.members(LclId(1)).len(), 1);
        assert!(pruned.members(LclId(2)).is_empty());
        // Original untouched.
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn rebuild_reparents_to_nearest_kept_ancestor() {
        let mut t = ResultTree::with_root(base(0));
        let a = t.add_node(t.root(), base(1));
        let a1 = t.add_node(a, base(2));
        t.assign_lcl(a1, LclId(7));
        // Drop `a` but keep its child: child must attach to the root.
        let kept = t.rebuild(|id| id != a);
        kept.check_invariants().unwrap();
        assert_eq!(kept.len(), 2);
        let child = kept.node(kept.root()).children[0];
        assert_eq!(kept.node(child).lcls, vec![LclId(7)]);
    }

    #[test]
    fn temp_value_concatenates_children() {
        let db = Database::new();
        let mut gen = TempIdGen::new();
        let mut t = ResultTree::with_root(RSource::Temp {
            id: gen.fresh(),
            tag: TagId(0),
            content: Some("a".into()),
        });
        let c = t.add_node(
            t.root(),
            RSource::Temp { id: gen.fresh(), tag: TagId(0), content: Some("bc".into()) },
        );
        assert_eq!(t.value(&db, t.root()), "abc");
        t.set_shadowed(c, true);
        assert_eq!(t.value(&db, t.root()), "a");
        assert_eq!(t.num(&db, t.root()), None);
    }

    #[test]
    fn order_keys_put_base_before_temp() {
        let mut gen = TempIdGen::new();
        let tbase = ResultTree::with_root(base(3));
        let ttemp = ResultTree::with_root(temp(&mut gen));
        assert!(tbase.order_key() < ttemp.order_key());
    }
}
