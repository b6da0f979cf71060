#![warn(missing_docs)]

//! # baselines — the competitors of the paper's evaluation (§6.1)
//!
//! Three alternative evaluators for the same XQuery fragment, matching the
//! paper's experimental line-up:
//!
//! * [`tax`] — the **TAX** tree algebra: per-operator pattern matching,
//!   early materialization of bound-variable subtrees, grouping procedures
//!   for everything TLC expresses with `+`/`*` edges, and a final node-id
//!   stitch join for the RETURN clause.
//! * [`gtp`] — **GTP** (generalized tree patterns): one pattern match per
//!   query block with pattern reuse (like TLC), but nested paths are
//!   recovered with the grouping procedure instead of nest-joins.
//! * [`nav`] — a **navigational** interpreter that walks the tree child by
//!   child ("recursively getting all children of a node and checking them
//!   for a condition on content or name").
//!
//! TAX and GTP plans are generated by the shared translator
//! ([`tlc::translate_with_style`]) and run on the same executor and store as
//! TLC, mirroring the paper's setup where all competitors live inside
//! TIMBER. All four engines produce byte-identical results for the
//! evaluation workload; the integration suite asserts this.

pub mod gtp;
pub mod nav;
pub mod tax;

pub use gtp::gtp_plan;
pub use nav::{evaluate_nav, NavStats};
pub use tax::tax_plan;

use tlc::{Plan, Result};
use xmldb::Database;

/// The engines of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The paper's TLC algebra.
    Tlc,
    /// TLC plans after the Flatten and Shadow/Illuminate rewrites (§6.4's
    /// "OPT").
    TlcOpt,
    /// TLC plans with cost-guarded rewrites (the optimizer extension; see
    /// `tlc::optimizer`).
    TlcCosted,
    /// The GTP baseline.
    Gtp,
    /// The TAX baseline.
    Tax,
    /// The navigational baseline.
    Nav,
}

impl Engine {
    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Tlc => "TLC",
            Engine::TlcOpt => "OPT",
            Engine::TlcCosted => "OPT*",
            Engine::Gtp => "GTP",
            Engine::Tax => "TAX",
            Engine::Nav => "NAV",
        }
    }

    /// All plan-based engines (everything except NAV).
    pub fn plan_engines() -> [Engine; 5] {
        [Engine::Tlc, Engine::TlcOpt, Engine::TlcCosted, Engine::Gtp, Engine::Tax]
    }

    /// The Figure 15 line-up.
    pub fn figure15() -> [Engine; 4] {
        [Engine::Tlc, Engine::Gtp, Engine::Tax, Engine::Nav]
    }
}

/// Parses an engine name as the binaries' `--engine` flags spell it,
/// case-insensitively: `tlc`, `opt` (or `tlcopt`), `costed` (or `opt*`),
/// `gtp`, `tax`, `nav`. Anything else is an `unknown engine` error.
impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(name: &str) -> std::result::Result<Engine, String> {
        match name.to_ascii_lowercase().as_str() {
            "tlc" => Ok(Engine::Tlc),
            "opt" | "tlcopt" => Ok(Engine::TlcOpt),
            "costed" | "opt*" => Ok(Engine::TlcCosted),
            "gtp" => Ok(Engine::Gtp),
            "tax" => Ok(Engine::Tax),
            "nav" => Ok(Engine::Nav),
            _ => Err(format!("unknown engine: {name}")),
        }
    }
}

/// Compiles a query for a plan-based engine.
pub fn plan_for(engine: Engine, query: &str, db: &Database) -> Result<Plan> {
    match engine {
        Engine::Tlc => tlc::compile(query, db),
        Engine::TlcOpt => Ok(tlc::rewrite::optimize(&tlc::compile(query, db)?)),
        Engine::TlcCosted => Ok(tlc::optimize_costed(&tlc::compile(query, db)?, db)),
        Engine::Gtp => gtp_plan(query, db),
        Engine::Tax => tax_plan(query, db),
        Engine::Nav => Err(tlc::Error::Unsupported("NAV is interpreted, not planned".into())),
    }
}

/// Runs a query on any engine, returning its serialized result.
pub fn run(engine: Engine, query: &str, db: &Database) -> Result<String> {
    match engine {
        Engine::Nav => Ok(run_nav(query, db)?.0),
        _ => {
            let plan = plan_for(engine, query, db)?;
            tlc::execute_to_string(db, &plan)
        }
    }
}

/// Parses and runs a query on the navigational engine, returning its
/// serialized result and traversal counters.
pub fn run_nav(query: &str, db: &Database) -> Result<(String, NavStats)> {
    let ast = xquery::parse(query).map_err(|e| tlc::Error::Unsupported(format!("parse: {e}")))?;
    evaluate_nav(db, &ast)
}
