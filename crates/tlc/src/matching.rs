//! Annotated-pattern-tree matching (Definition 3, implemented per §5.2).
//!
//! Matching runs top-down over the pattern with index-driven candidate
//! generation: for every bound data node and pattern child, the candidate
//! set is an interval slice of the child's tag-index postings (or, when the
//! child carries an indexable content predicate, of the value-index
//! postings) — exactly the access pattern of a merge-based structural join.
//! Matching specifications decide how candidates combine:
//!
//! * `-` / `?` edges fan out: each candidate yields a separate witness tree
//!   (the regular / left-outer structural join of §5.2);
//! * `+` / `*` edges cluster: all candidates join the same witness tree (the
//!   nest / left-outer-nest structural join).
//!
//! One documented deviation from the letter of Definition 3: under a
//! grouping edge, a candidate that fails a *required* edge further down is
//! dropped from the cluster rather than killing the whole witness tree. This
//! matches how the paper's own plans use grouped nodes (e.g.
//! `bidder//@person` in Figure 7, where bidders without a person reference
//! simply contribute nothing).

use crate::error::{Error, Result};
use crate::exec::ExecCtx;
use crate::logical_class::LclId;
use crate::pattern::{Apt, AptNode, AptRoot, ContentPred, MSpec, PredValue};
use crate::physical::structural::{candidates_in, INode};
use crate::tree::{RNodeId, RSource, ResultTree};
use std::cmp::Ordering;
use xmldb::{AxisRel, Database, NodeId};
use xquery::CmpOp;

/// One matched pattern node with its matched descendants.
#[derive(Debug, Clone)]
struct Frag {
    pat: usize,
    node: NodeId,
    children: Vec<Frag>,
}

/// Matches an APT anchored at a document root, producing one witness tree
/// per match alternative (Select on base data).
pub fn match_apt_database(db: &Database, apt: &Apt, ctx: &mut ExecCtx) -> Result<Vec<ResultTree>> {
    let AptRoot::Document { name, lcl } = &apt.root else {
        return Err(Error::Unsupported("database match requires a document-rooted APT".into()));
    };
    let doc_id = db.document_by_name(name).map_err(|_| Error::UnknownDocument(name.clone()))?;
    ctx.stats.pattern_matches += 1;
    let root = db.root(doc_id);
    let anchor = INode::of(db, root);
    let mut m = Matcher::new(db, apt, ctx);
    let Some(alts) = m.expand(None, &anchor)? else {
        return Ok(Vec::new());
    };
    let mut out = Vec::with_capacity(alts.len());
    for alt in alts {
        let mut tree = ResultTree::with_root(RSource::Base(root));
        tree.assign_lcl(tree.root(), *lcl);
        let tree_root = tree.root();
        attach_frags(&mut tree, tree_root, &alt, apt);
        out.push(tree);
    }
    m.ctx.stats.trees_built += out.len() as u64;
    Ok(out)
}

/// Matches an APT anchored at an existing logical class, extending each
/// input tree (pattern-tree reuse, §4.1). Trees whose anchor fails a
/// required edge are dropped; grouping edges extend the tree in place.
pub fn match_apt_extend(
    db: &Database,
    apt: &Apt,
    inputs: Vec<ResultTree>,
    ctx: &mut ExecCtx,
) -> Result<Vec<ResultTree>> {
    let AptRoot::Lcl(lcl) = &apt.root else {
        return Err(Error::Unsupported("extension match requires an LCL-rooted APT".into()));
    };
    ctx.stats.pattern_matches += 1;
    let mut out = Vec::with_capacity(inputs.len());
    let mut m = Matcher::new(db, apt, ctx);
    'tree: for tree in inputs {
        let anchors = tree.members(*lcl);
        // Per-anchor alternatives; the tree fans out over their product.
        let mut per_anchor: Vec<(RNodeId, Vec<Vec<Frag>>)> = Vec::with_capacity(anchors.len());
        for a in anchors {
            let base = match &tree.node(a).source {
                RSource::Base(id) => *id,
                RSource::Temp { .. } => return Err(Error::TempAnchor(*lcl)),
            };
            let anchor = INode::of(db, base);
            match m.expand(None, &anchor)? {
                Some(alts) => per_anchor.push((a, alts)),
                // A required (non-optional) edge failed for this anchor: the
                // whole input tree is filtered out.
                None => continue 'tree,
            }
        }
        // Cartesian product over anchors.
        let mut combos: Vec<Vec<(RNodeId, Vec<Frag>)>> = vec![Vec::new()];
        for (anchor, alts) in &per_anchor {
            let mut next = Vec::with_capacity(combos.len() * alts.len());
            for combo in &combos {
                for alt in alts {
                    let mut c = combo.clone();
                    c.push((*anchor, alt.clone()));
                    next.push(c);
                }
            }
            combos = next;
        }
        for combo in combos {
            let mut t = tree.clone();
            for (anchor, alt) in combo {
                attach_frags(&mut t, anchor, &alt, apt);
            }
            m.ctx.stats.trees_built += 1;
            out.push(t);
        }
    }
    Ok(out)
}

fn attach_frags(tree: &mut ResultTree, under: RNodeId, frags: &[Frag], apt: &Apt) {
    for f in frags {
        let id = tree.add_node(under, RSource::Base(f.node));
        tree.assign_lcl(id, apt.nodes[f.pat].lcl);
        attach_frags(tree, id, &f.children, apt);
    }
}

struct Matcher<'a> {
    db: &'a Database,
    apt: &'a Apt,
    ctx: &'a mut ExecCtx,
    /// Per-pattern-node value-index postings, computed once per match run.
    /// Without this cache a value-index lookup would be re-materialized for
    /// every (bound node, pattern child) probe, turning selective patterns
    /// quadratic.
    postings: Vec<Option<Option<Vec<NodeId>>>>,
    /// Canonical per-node forms ([`Apt::canonical_forms`]), the final
    /// tiebreak of the child evaluation order. With a declaration-order
    /// tiebreak two APTs equal up to sibling reordering could enumerate
    /// witness trees in different orders, which would make the shared match
    /// cache (keyed by the order-insensitive fingerprint) unsound.
    forms: Vec<String>,
}

impl<'a> Matcher<'a> {
    fn new(db: &'a Database, apt: &'a Apt, ctx: &'a mut ExecCtx) -> Self {
        let postings = vec![None; apt.nodes.len()];
        let forms = apt.canonical_forms();
        Matcher { db, apt, ctx, postings, forms }
    }
}

impl Matcher<'_> {
    /// Alternatives for the children of pattern node `parent_pat` when it is
    /// bound to `x`. `Ok(None)` = a required edge failed, killing this
    /// binding; `Err` propagates a deadline expiry out of the match.
    ///
    /// Children are evaluated in a selectivity-driven order (required edges
    /// before optional ones, smaller tag-posting lists first, canonical form
    /// as the tiebreak) so that a binding destined to fail a required edge
    /// is discarded before the expensive branches run — the join-order
    /// concern the paper defers to an optimizer (§5.2, citing reference
    /// \[19\]). The order is a function of the pattern's canonical form
    /// alone, never of declaration order, so reordered-sibling APTs produce
    /// byte-identical results; per-class member order still comes from the
    /// document-ordered candidate streams.
    fn expand(&mut self, parent_pat: Option<usize>, x: &INode) -> Result<Option<Vec<Vec<Frag>>>> {
        let mut alts: Vec<Vec<Frag>> = vec![Vec::new()];
        let mut kids: Vec<usize> = self.apt.children_of(parent_pat).collect();
        let key = |v: usize| {
            let n = &self.apt.nodes[v];
            (n.mspec.optional(), self.db.tag_index().get(n.tag).len())
        };
        kids.sort_by(|&a, &b| key(a).cmp(&key(b)).then_with(|| self.forms[a].cmp(&self.forms[b])));
        for v in kids {
            let Some(options) = self.child_options(v, x)? else {
                return Ok(None);
            };
            let mut next = Vec::with_capacity(alts.len().saturating_mul(options.len()));
            for a in &alts {
                for o in &options {
                    let mut merged = Vec::with_capacity(a.len() + o.len());
                    merged.extend_from_slice(a);
                    merged.extend_from_slice(o);
                    next.push(merged);
                }
            }
            alts = next;
        }
        Ok(Some(alts))
    }

    /// Options contributed by pattern child `v` for a parent bound to `x`.
    /// Each option is the set of `v`-fragments present in one witness tree.
    fn child_options(&mut self, v: usize, x: &INode) -> Result<Option<Vec<Vec<Frag>>>> {
        let cands = self.candidates(v, x)?;
        let pat = &self.apt.nodes[v];
        // Fast path for leaf pattern nodes (the common case for grouped
        // aggregate arguments like `count($s//item)`): every candidate is a
        // complete match, no recursion or sub-alternative bookkeeping.
        if self.apt.children_of(Some(v)).next().is_none() {
            let frag = |c: NodeId| Frag { pat: v, node: c, children: Vec::new() };
            let opts = match pat.mspec {
                MSpec::One | MSpec::Opt => {
                    if cands.is_empty() {
                        if pat.mspec == MSpec::Opt {
                            Some(vec![Vec::new()])
                        } else {
                            None
                        }
                    } else {
                        Some(cands.into_iter().map(|c| vec![frag(c)]).collect())
                    }
                }
                MSpec::Plus | MSpec::Star => {
                    if cands.is_empty() && pat.mspec == MSpec::Plus {
                        None
                    } else {
                        Some(vec![cands.into_iter().map(frag).collect()])
                    }
                }
            };
            return Ok(opts);
        }
        // Recursively match below each candidate; failed candidates drop out.
        let mut per_cand: Vec<(NodeId, Vec<Vec<Frag>>)> = Vec::with_capacity(cands.len());
        for c in cands {
            let c_inode = INode::of(self.db, c);
            if let Some(sub) = self.expand(Some(v), &c_inode)? {
                per_cand.push((c, sub));
            }
        }
        Ok(match pat.mspec {
            MSpec::One | MSpec::Opt => {
                let mut opts = Vec::new();
                for (c, subs) in per_cand {
                    for sub in subs {
                        opts.push(vec![Frag { pat: v, node: c, children: sub }]);
                    }
                }
                if opts.is_empty() {
                    if pat.mspec == MSpec::Opt {
                        Some(vec![Vec::new()])
                    } else {
                        None
                    }
                } else {
                    Some(opts)
                }
            }
            MSpec::Plus | MSpec::Star => {
                if per_cand.is_empty() {
                    if pat.mspec == MSpec::Star {
                        Some(vec![Vec::new()])
                    } else {
                        None
                    }
                } else {
                    // All candidates cluster into each option; candidates
                    // with several sub-alternatives multiply the options.
                    let mut opts: Vec<Vec<Frag>> = vec![Vec::new()];
                    for (c, subs) in per_cand {
                        let mut next = Vec::with_capacity(opts.len() * subs.len());
                        for o in &opts {
                            for sub in &subs {
                                let mut merged = o.clone();
                                merged.push(Frag { pat: v, node: c, children: sub.clone() });
                                next.push(merged);
                            }
                        }
                        opts = next;
                    }
                    Some(opts)
                }
            }
        })
    }

    /// Candidate data nodes for pattern node `v` under `x`, in document
    /// order: an interval slice of the appropriate index postings, filtered
    /// by axis and any non-index-served predicate. Fails only on deadline
    /// expiry (checked every few hundred candidates via [`ExecCtx::tick`]).
    fn candidates(&mut self, v: usize, x: &INode) -> Result<Vec<NodeId>> {
        // `db` and `apt` are `&'a` fields, so borrows through them detach
        // from `self` — `pat` and the tag-index slice stay live across the
        // `self.ctx`/`self.postings` borrows below.
        let db = self.db;
        let pat = &self.apt.nodes[v];
        self.ctx.stats.probes += 1;
        if self.postings[v].is_none() {
            let value_list = indexed_postings(db, pat);
            if value_list.is_some() {
                // Materializing value-index postings is the fetch; later
                // probes reuse the per-run copy.
                self.ctx.stats.candidate_fetches += 1;
            }
            self.postings[v] = Some(value_list);
        }
        let value_postings = self.postings[v].as_ref().expect("just filled");
        let (slice, pred_served): (&[NodeId], bool) = match value_postings {
            // Value-index postings cover the whole database; restrict to x.
            Some(list) => {
                self.ctx.stats.struct_cmps += interval_search_cmps(list.len());
                (candidates_in(list, x), true)
            }
            None => {
                let postings = db.tag_index().get(pat.tag);
                self.ctx.stats.candidate_fetches += 1;
                self.ctx.stats.struct_cmps += interval_search_cmps(postings.len());
                (candidates_in(postings, x), false)
            }
        };
        let mut out = Vec::with_capacity(slice.len());
        for &id in slice {
            self.ctx.tick()?;
            self.ctx.stats.nodes_inspected += 1;
            self.ctx.stats.struct_cmps += 1;
            if pat.axis == AxisRel::Child {
                let level = db.node(id).level();
                if level != x.level + 1 {
                    continue;
                }
            }
            if !pred_served {
                if let Some(p) = &pat.pred {
                    if !p.eval_node(db, id) {
                        continue;
                    }
                }
            }
            out.push(id);
        }
        Ok(out)
    }
}

/// Comparisons performed by the two interval binary searches that slice a
/// postings list to a subtree window (`candidates_in`): ~2·log₂(n).
fn interval_search_cmps(n: usize) -> u64 {
    2 * u64::from(usize::BITS - n.leading_zeros())
}

/// Returns value-index postings serving this pattern node's predicate, when
/// the predicate is indexable (exact string match or numeric comparison).
fn indexed_postings(db: &Database, pat: &AptNode) -> Option<Vec<NodeId>> {
    let pred = pat.pred.as_ref()?;
    match (&pred.value, pred.op) {
        (PredValue::Str(s), CmpOp::Eq) => Some(db.value_index().lookup_exact(pat.tag, s).to_vec()),
        (PredValue::Num(n), CmpOp::Eq) => {
            Some(db.value_index().lookup_cmp(pat.tag, Ordering::Equal, *n))
        }
        (PredValue::Num(n), CmpOp::Lt) => {
            Some(db.value_index().lookup_cmp(pat.tag, Ordering::Less, *n))
        }
        (PredValue::Num(n), CmpOp::Gt) => {
            Some(db.value_index().lookup_cmp(pat.tag, Ordering::Greater, *n))
        }
        (PredValue::Num(n), CmpOp::Le) => {
            Some(db.value_index().lookup_range(pat.tag, None, Some(*n)))
        }
        (PredValue::Num(n), CmpOp::Ge) => {
            Some(db.value_index().lookup_range(pat.tag, Some(*n), None))
        }
        _ => None,
    }
}

/// Convenience for tests and hand-built plans: evaluates the "predicate"
/// (tag + content test) of a content predicate on a base node.
pub fn eval_content_pred(db: &Database, pred: &ContentPred, node: NodeId) -> bool {
    pred.eval_node(db, node)
}

/// Resolves a class label to the base `NodeId` of its singleton member.
pub fn singleton_base(tree: &ResultTree, lcl: LclId) -> Result<NodeId> {
    let members = tree.members(lcl);
    if members.len() != 1 {
        return Err(Error::NotSingleton { lcl, found: members.len() });
    }
    match &tree.node(members[0]).source {
        RSource::Base(id) => Ok(*id),
        RSource::Temp { .. } => Err(Error::TempAnchor(lcl)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb::TagId;

    /// The Figure 4 input forest:
    ///   tree 1: B1 with children A1, A2, E1(desc A1... simplified), C1, D1, D2
    ///   We reproduce the paper's example structure faithfully below.
    fn fig4_db() -> Database {
        let mut db = Database::new();
        // First input tree: B1 has children A1 (with E1, E2 below at depth),
        // A2, C1, D1, D2. Second: B2 with A3 (E3 below), C3.
        db.load_xml(
            "fig4.xml",
            "<root>\
               <B><A><E/><E/></A><A/><C/><D/><D/></B>\
               <B><A><E/></A><C/></B>\
             </root>",
        )
        .unwrap();
        db
    }

    fn tag(db: &Database, name: &str) -> TagId {
        db.interner().lookup(name).unwrap()
    }

    /// Builds the Figure 4 APT: B with children A('+'), C('-'), D('?');
    /// A has descendant E('+').
    fn fig4_apt(db: &Database) -> Apt {
        let mut apt = Apt::for_document("fig4.xml", LclId(1));
        let b = apt.add(None, AxisRel::Descendant, MSpec::One, tag(db, "B"), None, LclId(2));
        let a = apt.add(Some(b), AxisRel::Child, MSpec::Plus, tag(db, "A"), None, LclId(3));
        apt.add(Some(a), AxisRel::Descendant, MSpec::Plus, tag(db, "E"), None, LclId(4));
        apt.add(Some(b), AxisRel::Child, MSpec::One, tag(db, "C"), None, LclId(5));
        apt.add(Some(b), AxisRel::Child, MSpec::Opt, tag(db, "D"), None, LclId(6));
        apt
    }

    #[test]
    fn figure_4_match_shape() {
        let db = fig4_db();
        let apt = fig4_apt(&db);
        let mut ctx = ExecCtx::new();
        let trees = match_apt_database(&db, &apt, &mut ctx).unwrap();
        // First B: A1 (has E) qualifies for '+'; A2 (no E) is dropped from
        // the cluster; D1, D2 fan out via '?' → two witness trees.
        // Second B: one witness tree (no D ⇒ optional edge lets it through).
        assert_eq!(trees.len(), 3);
        for t in &trees {
            t.check_invariants().unwrap();
            assert_eq!(t.members(LclId(2)).len(), 1, "B is a '-' match");
            assert_eq!(t.members(LclId(5)).len(), 1, "C is a '-' match");
        }
        let d_counts: Vec<usize> = trees.iter().map(|t| t.members(LclId(6)).len()).collect();
        assert_eq!(d_counts.iter().sum::<usize>(), 2, "D1 and D2 in separate trees");
        assert!(d_counts.contains(&0), "the D-less B still matches via '?'");
        // E nodes cluster: first B's witness trees have 2 Es, second has 1.
        let e_counts: Vec<usize> = trees.iter().map(|t| t.members(LclId(4)).len()).collect();
        assert_eq!(e_counts.iter().filter(|&&c| c == 2).count(), 2);
        assert_eq!(e_counts.iter().filter(|&&c| c == 1).count(), 1);
        assert!(ctx.stats.pattern_matches == 1 && ctx.stats.probes > 0);
    }

    #[test]
    fn required_edge_failure_kills_the_binding() {
        let db = fig4_db();
        let mut apt = Apt::for_document("fig4.xml", LclId(1));
        let b = apt.add(None, AxisRel::Descendant, MSpec::One, tag(&db, "B"), None, LclId(2));
        apt.add(Some(b), AxisRel::Child, MSpec::One, tag(&db, "D"), None, LclId(3));
        let mut ctx = ExecCtx::new();
        let trees = match_apt_database(&db, &apt, &mut ctx).unwrap();
        // Only the first B has D children; two of them fan out.
        assert_eq!(trees.len(), 2);
    }

    #[test]
    fn plus_edge_requires_at_least_one() {
        let db = fig4_db();
        let mut apt = Apt::for_document("fig4.xml", LclId(1));
        let b = apt.add(None, AxisRel::Descendant, MSpec::One, tag(&db, "B"), None, LclId(2));
        apt.add(Some(b), AxisRel::Child, MSpec::Plus, tag(&db, "D"), None, LclId(3));
        let mut ctx = ExecCtx::new();
        let trees = match_apt_database(&db, &apt, &mut ctx).unwrap();
        assert_eq!(trees.len(), 1, "only the D-bearing B survives '+'");
        assert_eq!(trees[0].members(LclId(3)).len(), 2, "both Ds clustered");
    }

    #[test]
    fn star_edge_clusters_and_keeps_empty() {
        let db = fig4_db();
        let mut apt = Apt::for_document("fig4.xml", LclId(1));
        let b = apt.add(None, AxisRel::Descendant, MSpec::One, tag(&db, "B"), None, LclId(2));
        apt.add(Some(b), AxisRel::Child, MSpec::Star, tag(&db, "D"), None, LclId(3));
        let mut ctx = ExecCtx::new();
        let trees = match_apt_database(&db, &apt, &mut ctx).unwrap();
        assert_eq!(trees.len(), 2);
        let mut counts: Vec<usize> = trees.iter().map(|t| t.members(LclId(3)).len()).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![0, 2]);
    }

    #[test]
    fn content_predicates_filter_candidates() {
        let mut db = Database::new();
        db.load_xml("p.xml", "<ps><p><age>30</age></p><p><age>20</age></p><p/></ps>").unwrap();
        let mut apt = Apt::for_document("p.xml", LclId(1));
        let p = apt.add(None, AxisRel::Descendant, MSpec::One, tag(&db, "p"), None, LclId(2));
        apt.add(
            Some(p),
            AxisRel::Child,
            MSpec::One,
            tag(&db, "age"),
            Some(ContentPred { op: CmpOp::Gt, value: PredValue::Num(25.0) }),
            LclId(3),
        );
        let mut ctx = ExecCtx::new();
        let trees = match_apt_database(&db, &apt, &mut ctx).unwrap();
        assert_eq!(trees.len(), 1);
    }

    #[test]
    fn extension_match_extends_input_trees() {
        let db = fig4_db();
        // Base select: each B.
        let mut base = Apt::for_document("fig4.xml", LclId(1));
        base.add(None, AxisRel::Descendant, MSpec::One, tag(&db, "B"), None, LclId(2));
        let mut ctx = ExecCtx::new();
        let trees = match_apt_database(&db, &base, &mut ctx).unwrap();
        assert_eq!(trees.len(), 2);
        // Extension: cluster all A children of class (2) with '*'.
        let mut ext = Apt::extending(LclId(2));
        ext.add(None, AxisRel::Child, MSpec::Star, tag(&db, "A"), None, LclId(7));
        let extended = match_apt_extend(&db, &ext, trees, &mut ctx).unwrap();
        assert_eq!(extended.len(), 2);
        let mut counts: Vec<usize> = extended.iter().map(|t| t.members(LclId(7)).len()).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2]);
        for t in &extended {
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn extension_with_required_edge_drops_trees() {
        let db = fig4_db();
        let mut base = Apt::for_document("fig4.xml", LclId(1));
        base.add(None, AxisRel::Descendant, MSpec::One, tag(&db, "B"), None, LclId(2));
        let mut ctx = ExecCtx::new();
        let trees = match_apt_database(&db, &base, &mut ctx).unwrap();
        let mut ext = Apt::extending(LclId(2));
        ext.add(None, AxisRel::Child, MSpec::One, tag(&db, "D"), None, LclId(7));
        let extended = match_apt_extend(&db, &ext, trees, &mut ctx).unwrap();
        // Only the first B has Ds; '-' fans out to two extended trees.
        assert_eq!(extended.len(), 2);
        for t in &extended {
            assert_eq!(t.members(LclId(7)).len(), 1);
        }
    }

    #[test]
    fn unknown_document_is_an_error() {
        let db = fig4_db();
        let apt = Apt::for_document("nope.xml", LclId(1));
        let mut ctx = ExecCtx::new();
        assert!(matches!(match_apt_database(&db, &apt, &mut ctx), Err(Error::UnknownDocument(_))));
    }

    #[test]
    fn value_index_served_predicates() {
        let mut db = Database::new();
        db.load_xml("v.xml", "<ps><p id=\"a\"/><p id=\"b\"/><p id=\"a\"/></ps>").unwrap();
        let mut apt = Apt::for_document("v.xml", LclId(1));
        let p = apt.add(None, AxisRel::Descendant, MSpec::One, tag(&db, "p"), None, LclId(2));
        apt.add(
            Some(p),
            AxisRel::Child,
            MSpec::One,
            tag(&db, "@id"),
            Some(ContentPred { op: CmpOp::Eq, value: PredValue::Str("a".into()) }),
            LclId(3),
        );
        let mut ctx = ExecCtx::new();
        let trees = match_apt_database(&db, &apt, &mut ctx).unwrap();
        assert_eq!(trees.len(), 2);
    }
}
