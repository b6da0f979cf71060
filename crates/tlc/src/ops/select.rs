//! Select — `S[apt](S)` (paper §2.3).
//!
//! Performs an annotated-pattern-tree match. Anchored at a document root it
//! reads base data; anchored at a logical class it *extends* the input trees
//! (pattern-tree reuse, §4.1 — the mechanism behind Selects 8/9 of Figure 7).

use crate::error::Result;
use crate::exec::ExecCtx;
use crate::matching::{match_apt_database, match_apt_extend};
use crate::pattern::{Apt, AptRoot};
use crate::tree::ResultTree;
use xmldb::Database;

/// Runs the select. For document-rooted APTs `inputs` must be empty (the
/// operator is a leaf); for class-rooted APTs it extends `inputs`. Takes
/// the whole execution context (not just counters) so matching can honor
/// the deadline mid-match via [`ExecCtx::tick`].
pub fn select(
    db: &Database,
    apt: &Apt,
    inputs: Vec<ResultTree>,
    ctx: &mut ExecCtx,
) -> Result<Vec<ResultTree>> {
    match &apt.root {
        AptRoot::Document { .. } => {
            debug_assert!(inputs.is_empty(), "document select is a leaf operator");
            match_apt_database(db, apt, ctx)
        }
        AptRoot::Lcl(_) => match_apt_extend(db, apt, inputs, ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical_class::LclId;
    use crate::pattern::MSpec;
    use xmldb::AxisRel;

    #[test]
    fn select_routes_by_anchor() {
        let mut db = Database::new();
        db.load_xml("t.xml", "<r><a><b/></a><a/></r>").unwrap();
        let tag_a = db.interner().lookup("a").unwrap();
        let tag_b = db.interner().lookup("b").unwrap();
        let mut ctx = ExecCtx::new();

        let mut apt = Apt::for_document("t.xml", LclId(1));
        apt.add(None, AxisRel::Descendant, MSpec::One, tag_a, None, LclId(2));
        let base = select(&db, &apt, Vec::new(), &mut ctx).unwrap();
        assert_eq!(base.len(), 2);

        let mut ext = Apt::extending(LclId(2));
        ext.add(None, AxisRel::Child, MSpec::Star, tag_b, None, LclId(3));
        let extended = select(&db, &ext, base, &mut ctx).unwrap();
        assert_eq!(extended.len(), 2);
        let counts: Vec<usize> = extended.iter().map(|t| t.members(LclId(3)).len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 1);
    }
}
