#![warn(missing_docs)]

//! # tlc — the Tree Logical Class algebra
//!
//! From-scratch implementation of *"Tree Logical Classes for Efficient
//! Evaluation of XQuery"* (Paparizos, Wu, Lakshmanan, Jagadish — SIGMOD
//! 2004), the algebra used by the TIMBER native XML database.
//!
//! The crate provides, module by module:
//!
//! * [`pattern`] — **Annotated Pattern Trees** with `-`/`?`/`+`/`*` matching
//!   specifications (Definitions 1–3).
//! * [`logical_class`], [`tree`] — **logical classes** and class-labelled
//!   heterogeneous result trees (Definition 4, §2.2).
//! * [`matching`] — the APT matcher, built on the structural-join access
//!   pattern of §5.2.
//! * [`physical`] — structural joins, **nest-structural-joins**
//!   (Definition 8), and the **sort-merge-sort** value join of §5.1.
//! * [`ops`] — the algebra's operators: Select, Filter, Join, Project,
//!   Duplicate-Elimination, Aggregate, Construct, Sort, Union, and the
//!   redundancy-eliminating **Flatten / Shadow / Illuminate** (§4).
//! * [`plan`], [`exec`] — logical plans and the set-at-a-time executor,
//!   which runs one request on one thread through a lean
//!   [`exec::ExecCtx`] (temp ids, counters, deadline, match cache, and an
//!   optional per-operator observer behind [`execute_traced`]).
//! * [`mod@translate`] — the **XQuery → TLC** translation algorithm (Figure 6),
//!   covering the Figure 5 fragment including nested FLWOR.
//! * [`rewrite`] — the Flatten and Shadow/Illuminate rewrite rules (§4.2,
//!   §4.3).
//! * [`mod@analyze`] — the multi-pass static analysis framework:
//!   type-checks every operator's class references (the dataflow verifier
//!   and differential oracle for the rewrite passes), infers per-operator
//!   read-effect footprints for cache carry-over, and proves distinctness
//!   facts that justify dead-code pruning.
//! * [`mod@lint`] — structured diagnostics over verified plans (statically
//!   empty selects, contradictory predicates, redundant DupElims, dead
//!   Project columns), surfaced through the service's `.explain` command.
//! * [`generator`] — a seeded random generator of *valid* plans, shared by
//!   the negative plan-mutation tests and the `experiments lintcheck`
//!   soundness oracle.
//! * [`optimizer`] — a cost model over index statistics that decides when
//!   the rewrites pay off (the decision the paper defers to an optimizer).
//! * [`vm`] — a compatibility stub of the removed register-IR backend
//!   (an uninhabited [`vm::Program`]); the tree walker in [`exec`] is the
//!   only executor, serving production, `.analyze` traces and the tests.
//! * [`output`] — result serialization.
//!
//! ## Quick start
//!
//! ```
//! let mut db = xmldb::Database::new();
//! db.load_xml("auction.xml",
//!     r#"<site><people>
//!          <person id="person0"><name>Ann</name><age>30</age></person>
//!          <person id="person1"><name>Bo</name></person>
//!        </people></site>"#).unwrap();
//!
//! let plan = tlc::compile(
//!     r#"FOR $p IN document("auction.xml")//person
//!        WHERE $p/age > 25
//!        RETURN $p/name"#,
//!     &db,
//! ).unwrap();
//! assert_eq!(tlc::execute_to_string(&db, &plan).unwrap(), "<name>Ann</name>");
//! ```

pub mod analyze;
pub mod error;
pub mod exec;
pub mod generator;
pub mod guide;
pub mod lint;
pub mod logical_class;
pub mod matching;
pub mod ops;
pub mod optimizer;
pub mod output;
pub mod pattern;
pub mod physical;
pub mod plan;
pub mod rewrite;
pub mod stats;
pub mod translate;
pub mod tree;
pub mod vm;

pub use analyze::{
    analyze, distinctness, plan_footprint, temp_classes, verify, AnalyzeError, Card, Distinctness,
    Footprint, PlanType, PredDomain,
};
pub use error::{Error, Result};
pub use exec::{
    check_conformance, execute, execute_to_string, execute_traced, execute_with_ctx,
    execute_with_deadline, match_chain_footprints, match_chain_key, render_trace, ExecCtx,
    MatchCache, OpTrace, CACHE_HIT_MARK,
};
pub use generator::{random_plan, GenPlan};
pub use lint::{lint, Lint, LintCode};
pub use logical_class::{LclGen, LclId};
pub use optimizer::{optimize_costed, optimize_costed_with, CostModel};
pub use output::{serialize_results, serialize_tree};
pub use pattern::{Apt, AptRoot, ContentPred, MSpec, PredValue};
pub use plan::Plan;
pub use rewrite::{
    optimize, optimize_verified, prune_dead_classes, prune_with_report, PruneReport,
    RewriteViolation,
};
pub use stats::ExecStats;
pub use translate::{translate, translate_with_style, Style};
pub use tree::{RNodeId, RSource, ResultTree, TempIdGen};

/// Parses an XQuery string and translates it into a TLC plan — the main
/// one-call entry point (parse + translate).
pub fn compile(query: &str, db: &xmldb::Database) -> Result<Plan> {
    compile_with_style(query, db, Style::Tlc)
}

/// Parses and translates with an explicit plan style (TLC / GTP / TAX).
pub fn compile_with_style(query: &str, db: &xmldb::Database, style: Style) -> Result<Plan> {
    let ast = xquery::parse(query).map_err(|e| Error::Unsupported(format!("parse: {e}")))?;
    translate::translate_with_style(&ast, db, style)
}
