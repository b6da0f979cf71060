//! `vm` — a register IR and bytecode evaluator for verified TLC plans.
//!
//! The tree-walking executor ([`crate::exec`]) re-discovers the same facts
//! on every request: it dispatches over the [`Plan`] enum recursively,
//! rebuilds every match-cache chain key ([`crate::match_chain_key`] is a
//! string format per chain level), and threads intermediate `Vec<ResultTree>`
//! sets through the recursion. For a service whose workload is
//! compile-once/execute-many, all of that is per-request overhead on work
//! that is fixed at compile time.
//!
//! This module compiles an analyzer-verified plan once into a flat
//! [`Program`] — a `Vec<Instr>` over preallocated virtual registers — and
//! evaluates it with a non-recursive loop:
//!
//! * [`lower`] — the lowering compiler. Maximal
//!   Select→Filter→Project→DupElim runs become single composite
//!   [`Instr::Spine`] instructions (one rolling tree set moves through the
//!   fused steps, with no register traffic between stages), and
//!   match-cache interaction is compiled into explicit [`Instr::Probe`] /
//!   [`Instr::Store`] instructions whose canonical chain keys are computed
//!   **at compile time** and interned in the program.
//! * [`run`] — the register evaluator. It executes a
//!   program against a snapshot through the existing [`crate::ExecCtx`]
//!   (deadline ticks, match cache, [`crate::ExecStats`]), calling the very
//!   same operator kernels in [`crate::ops`] in the same order as the tree
//!   walker, so output — and cache content — is byte-identical.
//! * the IR verifier (`verify`) — every [`lower`] call re-runs the LC
//!   dataflow analysis over the lowered form before releasing the program:
//!   registers are checked for single assignment and move-once liveness,
//!   probe/store brackets for well-formed pairing and key agreement, and
//!   every register's recorded class schema (its [`PlanType`]) against a
//!   fresh [`fn@crate::analyze`] of the decompiled instruction stream. An
//!   ill-formed program can never be cached or executed.
//!
//! The per-register schema comes straight from the analyzer: register `rN`
//! carries the [`PlanType`] (classes with per-tree cardinality, root class,
//! ordering) of the subplan whose result it holds, which is what
//! [`Program::display`] prints under `.explain`.

mod eval;
mod lower;
mod verify;

pub use eval::run;
pub use lower::lower;

use crate::analyze::{AnalyzeError, PlanType};
use crate::logical_class::LclId;
use crate::ops::construct::ConstructItem;
use crate::ops::dupelim::DedupKind;
use crate::ops::filter::{FilterMode, FilterPred};
use crate::ops::join::JoinSpec;
use crate::ops::sort::SortKey;
use crate::pattern::Apt;
use crate::plan::Plan;
use std::fmt;
use xmldb::Database;
use xquery::AggFunc;

/// A virtual register: one slot holding a set of result trees. Registers
/// are single-assignment along the all-miss execution path and consumed
/// (moved out of) by the one instruction that reads them — except
/// [`Instr::Store`], which reads by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegId(pub u16);

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An index into the program's interned pool of canonical match-chain keys
/// (see [`crate::match_chain_key`]). Interning at compile time is a real
/// part of the win: the tree walker re-formats these strings per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyId(pub u16);

impl fmt::Display for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// One fused step of an [`Instr::Spine`] instruction. The evaluator moves
/// a single rolling `Vec<ResultTree>` through the steps; no intermediate
/// register writes happen between them.
#[derive(Debug, Clone, PartialEq)]
pub enum SpineOp {
    /// Document-anchored Select — matches the APT against base data; the
    /// chain leaf (takes no input trees).
    Match(Apt),
    /// Class-anchored Select — extends the rolling tree set by matching
    /// the APT below its anchor class.
    Extend(Apt),
    /// Filter the rolling set.
    Filter {
        /// The tested class.
        lcl: LclId,
        /// The predicate.
        pred: FilterPred,
        /// Iteration mode.
        mode: FilterMode,
    },
    /// Project the rolling set onto `keep`.
    Project {
        /// Classes to keep.
        keep: Vec<LclId>,
    },
    /// Duplicate-eliminate the rolling set.
    DupElim {
        /// Key classes.
        on: Vec<LclId>,
        /// Identity vs content comparison.
        kind: DedupKind,
    },
}

/// One instruction of a lowered [`Program`].
///
/// Instructions execute in order except for [`Instr::Probe`], whose hit
/// path jumps forward past the instructions that would recompute (and
/// re-[`Instr::Store`]) the probed chain. The operator payloads are exactly
/// the [`Plan`] payloads — the evaluator calls the same [`crate::ops`]
/// kernels as the tree walker.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Consult the match cache for an interned chain key. On a hit the
    /// cached trees are written to `dst` and control jumps to `target`
    /// (the instruction after the corresponding [`Instr::Store`]); on a
    /// miss — or with no cache attached — control falls through into the
    /// instructions that compute the chain.
    Probe {
        /// The probed chain key.
        key: KeyId,
        /// Register receiving the cached trees on a hit.
        dst: RegId,
        /// Jump target (instruction index) on a hit.
        target: u32,
    },
    /// Publish `src` to the match cache under `key` (recording a miss).
    /// Reads `src` by reference — the register stays live for the next
    /// instruction.
    Store {
        /// The chain key to store under.
        key: KeyId,
        /// Register whose trees are published.
        src: RegId,
    },
    /// A fused Select→Filter→Project→DupElim run: the steps execute
    /// back-to-back over one rolling tree set.
    Spine {
        /// Input register; `None` when the first step is a
        /// [`SpineOp::Match`] chain leaf.
        input: Option<RegId>,
        /// The fused steps, bottom-up.
        steps: Vec<SpineOp>,
        /// Output register.
        dst: RegId,
    },
    /// Value join of two registers.
    Join {
        /// Left input register.
        left: RegId,
        /// Right input register.
        right: RegId,
        /// Join parameters.
        spec: JoinSpec,
        /// Output register.
        dst: RegId,
    },
    /// Aggregate-function application.
    Aggregate {
        /// Input register.
        input: RegId,
        /// The function.
        func: AggFunc,
        /// The aggregated class.
        over: LclId,
        /// Label of the created result node.
        new_lcl: LclId,
        /// Output register.
        dst: RegId,
    },
    /// Result construction.
    Construct {
        /// Input register.
        input: RegId,
        /// The construct-pattern tree.
        spec: Vec<ConstructItem>,
        /// Output register.
        dst: RegId,
    },
    /// Sort by class values.
    Sort {
        /// Input register.
        input: RegId,
        /// ORDER BY keys.
        keys: Vec<SortKey>,
        /// Output register.
        dst: RegId,
    },
    /// Flatten restructuring (Definition 5).
    Flatten {
        /// Input register.
        input: RegId,
        /// Parent class.
        parent: LclId,
        /// Child class.
        child: LclId,
        /// Output register.
        dst: RegId,
    },
    /// Shadow restructuring (Definition 6).
    Shadow {
        /// Input register.
        input: RegId,
        /// Parent class.
        parent: LclId,
        /// Child class.
        child: LclId,
        /// Output register.
        dst: RegId,
    },
    /// Illuminate restructuring (Definition 7).
    Illuminate {
        /// Input register.
        input: RegId,
        /// The re-illuminated class.
        lcl: LclId,
        /// Output register.
        dst: RegId,
    },
    /// Grouping procedure.
    GroupBy {
        /// Input register.
        input: RegId,
        /// The (singleton) grouping key class.
        by: LclId,
        /// The collected class.
        collect: LclId,
        /// Output register.
        dst: RegId,
    },
    /// Subtree materialization.
    Materialize {
        /// Input register.
        input: RegId,
        /// Classes whose member subtrees are materialized.
        lcls: Vec<LclId>,
        /// Output register.
        dst: RegId,
    },
    /// Branch concatenation (with optional dedup).
    Union {
        /// Input registers, one per branch, in branch order.
        inputs: Vec<RegId>,
        /// Dedup key classes (empty for plain concatenation).
        dedup_on: Vec<LclId>,
        /// Output register.
        dst: RegId,
    },
    /// End of program: the value of `src` is the plan's result.
    Return {
        /// Register holding the result trees.
        src: RegId,
    },
}

impl Instr {
    /// The register this instruction writes, if any.
    pub fn dst(&self) -> Option<RegId> {
        match self {
            Instr::Probe { dst, .. }
            | Instr::Spine { dst, .. }
            | Instr::Join { dst, .. }
            | Instr::Aggregate { dst, .. }
            | Instr::Construct { dst, .. }
            | Instr::Sort { dst, .. }
            | Instr::Flatten { dst, .. }
            | Instr::Shadow { dst, .. }
            | Instr::Illuminate { dst, .. }
            | Instr::GroupBy { dst, .. }
            | Instr::Materialize { dst, .. }
            | Instr::Union { dst, .. } => Some(*dst),
            Instr::Store { .. } | Instr::Return { .. } => None,
        }
    }

    /// The registers this instruction consumes (moves out of). `Store`
    /// reads by reference and is deliberately not listed here.
    pub fn consumes(&self) -> Vec<RegId> {
        match self {
            Instr::Probe { .. } | Instr::Store { .. } => Vec::new(),
            Instr::Spine { input, .. } => input.iter().copied().collect(),
            Instr::Join { left, right, .. } => vec![*left, *right],
            Instr::Aggregate { input, .. }
            | Instr::Construct { input, .. }
            | Instr::Sort { input, .. }
            | Instr::Flatten { input, .. }
            | Instr::Shadow { input, .. }
            | Instr::Illuminate { input, .. }
            | Instr::GroupBy { input, .. }
            | Instr::Materialize { input, .. } => vec![*input],
            Instr::Union { inputs, .. } => inputs.clone(),
            Instr::Return { src } => vec![*src],
        }
    }
}

/// A compile error from [`lower`] — either the source plan failed the LC
/// dataflow analysis, or the lowered instruction stream failed the IR
/// verifier (which would be a compiler bug; the verifier exists so such a
/// program can never be cached or executed).
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// The source plan failed static analysis; nothing was lowered.
    Analyze(AnalyzeError),
    /// The lowered program failed IR verification at instruction `at`.
    Malformed {
        /// Index of the offending instruction.
        at: usize,
        /// What the verifier found.
        reason: String,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Analyze(e) => write!(f, "plan failed LC dataflow analysis: {e}"),
            VmError::Malformed { at, reason } => {
                write!(f, "ill-formed program at instruction {at}: {reason}")
            }
        }
    }
}

impl std::error::Error for VmError {}

/// A verified, executable register program — the unit the service caches
/// alongside the plan it was lowered from.
///
/// A `Program` is immutable and self-contained: instructions, the interned
/// chain-key pool, and the per-register [`PlanType`] schema. [`lower`] is
/// the only constructor and it verifies before returning, so every
/// `Program` in existence passed the IR verifier.
#[derive(Debug, Clone)]
pub struct Program {
    instrs: Vec<Instr>,
    keys: Vec<String>,
    regs: Vec<PlanType>,
}

impl Program {
    pub(crate) fn new(instrs: Vec<Instr>, keys: Vec<String>, regs: Vec<PlanType>) -> Program {
        Program { instrs, keys, regs }
    }

    /// The instruction stream.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The interned canonical chain key for `key`.
    pub fn key(&self, key: KeyId) -> &str {
        &self.keys[key.0 as usize]
    }

    /// Number of interned chain keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of virtual registers the evaluator preallocates.
    pub fn reg_count(&self) -> usize {
        self.regs.len()
    }

    /// The analyzer-derived schema of register `reg`: the classes (with
    /// per-tree cardinality), root class, and ordering of the tree set it
    /// holds.
    pub fn reg_type(&self, reg: RegId) -> &PlanType {
        &self.regs[reg.0 as usize]
    }

    /// The type of the program's result (the `Return` register's schema).
    pub fn result_type(&self) -> &PlanType {
        let ret = self.instrs.last().expect("verified programs end in Return");
        match ret {
            Instr::Return { src } => self.reg_type(*src),
            _ => unreachable!("verified programs end in Return"),
        }
    }

    /// Total operator steps fused into `Spine` instructions.
    pub fn fused_steps(&self) -> usize {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::Spine { steps, .. } => steps.len(),
                _ => 0,
            })
            .sum()
    }

    /// The instruction listing with register types — the `.explain` IR
    /// section. Tag names render through `db`'s interner when given.
    pub fn display(&self, db: Option<&Database>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "program: {} instruction(s), {} register(s), {} chain key(s), {} fused step(s)\n",
            self.instrs.len(),
            self.regs.len(),
            self.keys.len(),
            self.fused_steps()
        ));
        for (i, instr) in self.instrs.iter().enumerate() {
            out.push_str(&format!("{i:>3}: {}\n", render_instr(instr, db)));
        }
        out.push_str("registers:\n");
        for (i, t) in self.regs.iter().enumerate() {
            let classes: Vec<String> =
                t.classes.iter().map(|(l, c)| format!("{l}:{c:?}")).collect();
            out.push_str(&format!(
                "  r{i}: {} root={} order={:?}\n",
                if classes.is_empty() { "(none)".to_string() } else { classes.join(" ") },
                t.root.map_or_else(|| "(none)".to_string(), |r| r.to_string()),
                t.order
            ));
        }
        out
    }
}

fn render_spine_op(op: &SpineOp, db: Option<&Database>) -> String {
    match op {
        SpineOp::Match(apt) => format!("match S[{}]", apt.display(db)),
        SpineOp::Extend(apt) => format!("extend S[{}]", apt.display(db)),
        SpineOp::Filter { lcl, mode, .. } => format!("filter[{lcl} mode={mode:?}]"),
        SpineOp::Project { keep } => format!("project[{} class(es)]", keep.len()),
        SpineOp::DupElim { on, kind } => format!("dupelim[{kind:?} on {} class(es)]", on.len()),
    }
}

fn render_instr(instr: &Instr, db: Option<&Database>) -> String {
    match instr {
        Instr::Probe { key, dst, target } => format!("probe {key} -> {dst}, hit -> {target}"),
        Instr::Store { key, src } => format!("store {key} <- {src}"),
        Instr::Spine { input, steps, dst } => {
            let steps: Vec<String> = steps.iter().map(|s| render_spine_op(s, db)).collect();
            match input {
                Some(r) => format!("spine {dst} <- {r}: {}", steps.join(" | ")),
                None => format!("spine {dst} <- {}", steps.join(" | ")),
            }
        }
        Instr::Join { left, right, spec, dst } => {
            format!(
                "join {dst} <- {left}, {right} [root={} right={}]",
                spec.root_lcl, spec.right_mspec
            )
        }
        Instr::Aggregate { input, func, over, new_lcl, dst } => {
            format!("aggregate {dst} <- {input} [{}({over}) -> {new_lcl}]", func.name())
        }
        Instr::Construct { input, spec, dst } => {
            format!("construct {dst} <- {input} [{} item(s)]", spec.len())
        }
        Instr::Sort { input, keys, dst } => {
            format!("sort {dst} <- {input} [{} key(s)]", keys.len())
        }
        Instr::Flatten { input, parent, child, dst } => {
            format!("flatten {dst} <- {input} [{parent}, {child}]")
        }
        Instr::Shadow { input, parent, child, dst } => {
            format!("shadow {dst} <- {input} [{parent}, {child}]")
        }
        Instr::Illuminate { input, lcl, dst } => format!("illuminate {dst} <- {input} [{lcl}]"),
        Instr::GroupBy { input, by, collect, dst } => {
            format!("groupby {dst} <- {input} [by {by} collect {collect}]")
        }
        Instr::Materialize { input, lcls, dst } => {
            format!("materialize {dst} <- {input} [{} class(es)]", lcls.len())
        }
        Instr::Union { inputs, dedup_on, dst } => {
            let regs: Vec<String> = inputs.iter().map(|r| r.to_string()).collect();
            format!("union {dst} <- {} [dedup on {} class(es)]", regs.join(", "), dedup_on.len())
        }
        Instr::Return { src } => format!("return {src}"),
    }
}

impl Program {
    /// Reconstructs the plan this program computes. `Probe`/`Store` are
    /// cache transparency and contribute no operators, so lowering a plan
    /// and decompiling the program round-trips (fused spines unfold back
    /// into the operator chain they were built from).
    pub fn decompile(&self) -> Result<Plan, VmError> {
        verify::decompile(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecCtx, MatchCache};
    use crate::tree::ResultTree;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};
    use xmldb::Database;

    const XML: &str = r#"<site><people>
        <person id="person0"><name>Ann</name><age>30</age></person>
        <person id="person1"><name>Bo</name><age>10</age></person>
        <person id="person2"><name>Cy</name><age>41</age></person>
      </people>
      <regions><item><name>Ann</name><price>12</price></item>
               <item><name>Dee</name><price>7</price></item></regions></site>"#;

    fn db() -> Database {
        let mut db = Database::new();
        db.load_xml("auction.xml", XML).unwrap();
        db
    }

    const QUERIES: &[&str] = &[
        r#"FOR $p IN document("auction.xml")//person WHERE $p/age > 20 RETURN $p/name"#,
        r#"FOR $p IN document("auction.xml")//person RETURN $p"#,
        r#"FOR $p IN document("auction.xml")//person
           FOR $i IN document("auction.xml")//item
           WHERE $p/name = $i/name RETURN $i/price"#,
        r#"FOR $p IN document("auction.xml")//person
           WHERE $p/age > 5
           ORDER BY $p/name RETURN $p/name"#,
        r#"FOR $p IN document("auction.xml")//person
           WHERE count($p/age) > 0 RETURN $p/name"#,
    ];

    /// Toy in-memory MatchCache recording its own content.
    #[derive(Default)]
    struct MapCache {
        map: Mutex<HashMap<String, Arc<Vec<ResultTree>>>>,
    }

    impl MapCache {
        fn keys(&self) -> Vec<String> {
            let mut keys: Vec<String> = self.map.lock().unwrap().keys().cloned().collect();
            keys.sort();
            keys
        }
    }

    impl MatchCache for MapCache {
        fn get(&self, key: &str) -> Option<Arc<Vec<ResultTree>>> {
            self.map.lock().unwrap().get(key).cloned()
        }
        fn put(&self, key: &str, trees: &[ResultTree]) {
            self.map.lock().unwrap().insert(key.to_string(), Arc::new(trees.to_vec()));
        }
    }

    #[test]
    fn lowering_round_trips_through_decompile() {
        let db = db();
        for q in QUERIES {
            let plan = crate::compile(q, &db).unwrap();
            let prog = lower(&plan).unwrap();
            assert_eq!(prog.decompile().unwrap(), plan, "round-trip failed for {q}");
        }
    }

    #[test]
    fn vm_output_and_stats_match_the_tree_walker() {
        let db = db();
        for q in QUERIES {
            let plan = crate::compile(q, &db).unwrap();
            let prog = lower(&plan).unwrap();
            let mut walk = ExecCtx::new();
            let expected = crate::execute_with_ctx(&db, &plan, &mut walk).unwrap();
            let mut vm = ExecCtx::new();
            let got = run(&db, &prog, &mut vm).unwrap();
            assert_eq!(
                crate::serialize_results(&db, &got),
                crate::serialize_results(&db, &expected),
                "byte mismatch for {q}"
            );
            assert_eq!(vm.stats, walk.stats, "stats diverged for {q}");
        }
    }

    #[test]
    fn vm_match_cache_protocol_mirrors_the_tree_walker() {
        let db = db();
        for q in QUERIES {
            let plan = crate::compile(q, &db).unwrap();
            let prog = lower(&plan).unwrap();
            let walk_cache = Arc::new(MapCache::default());
            let vm_cache = Arc::new(MapCache::default());
            for pass in 0..2 {
                let mut walk = ExecCtx::new().with_cache(walk_cache.clone());
                let expected = crate::execute_with_ctx(&db, &plan, &mut walk).unwrap();
                let mut vm = ExecCtx::new().with_cache(vm_cache.clone());
                let got = run(&db, &prog, &mut vm).unwrap();
                assert_eq!(
                    crate::serialize_results(&db, &got),
                    crate::serialize_results(&db, &expected),
                    "byte mismatch for {q} (pass {pass})"
                );
                assert_eq!(vm.stats, walk.stats, "cache stats diverged for {q} (pass {pass})");
            }
            assert_eq!(vm_cache.keys(), walk_cache.keys(), "cache content diverged for {q}");
        }
    }

    #[test]
    fn warm_probe_skips_all_pattern_matching() {
        let db = db();
        let plan = crate::compile(QUERIES[0], &db).unwrap();
        let prog = lower(&plan).unwrap();
        let cache = Arc::new(MapCache::default());
        let mut cold = ExecCtx::new().with_cache(cache.clone());
        run(&db, &prog, &mut cold).unwrap();
        assert!(cold.stats.match_cache_misses > 0);
        let mut warm = ExecCtx::new().with_cache(cache);
        run(&db, &prog, &mut warm).unwrap();
        assert!(warm.stats.match_cache_hits > 0, "second run must hit");
        assert_eq!(warm.stats.pattern_matches, 0, "a top-of-chain hit skips all matching");
    }

    #[test]
    fn expired_deadline_aborts_the_program() {
        let db = db();
        let plan = crate::compile(QUERIES[0], &db).unwrap();
        let prog = lower(&plan).unwrap();
        let mut ctx = ExecCtx::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(run(&db, &prog, &mut ctx).unwrap_err(), crate::Error::DeadlineExceeded);
        let mut ok = ExecCtx::with_deadline(Instant::now() + Duration::from_secs(60));
        assert!(run(&db, &prog, &mut ok).is_ok());
    }

    #[test]
    fn cacheable_chains_compile_to_probe_brackets() {
        let db = db();
        let plan = crate::compile(QUERIES[0], &db).unwrap();
        let prog = lower(&plan).unwrap();
        let probes = prog.instrs().iter().filter(|i| matches!(i, Instr::Probe { .. })).count();
        let stores = prog.instrs().iter().filter(|i| matches!(i, Instr::Store { .. })).count();
        assert!(probes > 0, "document-rooted chain must compile probes");
        assert_eq!(probes, stores, "every probe brackets exactly one store");
        assert_eq!(prog.key_count(), crate::match_chain_keys(&plan).len());
        let listing = prog.display(Some(&db));
        assert!(listing.contains("probe"), "{listing}");
        assert!(listing.contains("store"), "{listing}");
        assert!(listing.contains("registers:"), "{listing}");
        assert!(listing.contains("return"), "{listing}");
    }

    #[test]
    fn verifier_rejects_tampered_programs() {
        let db = db();
        let plan = crate::compile(QUERIES[0], &db).unwrap();
        let good = lower(&plan).unwrap();
        assert!(verify::verify(&good).is_ok());

        // Dropping the Return leaves dead registers and no result.
        let mut truncated = good.clone();
        truncated.instrs.pop();
        assert!(matches!(verify::verify(&truncated), Err(VmError::Malformed { .. })));

        // An empty program is ill-formed.
        let empty = Program::new(Vec::new(), Vec::new(), Vec::new());
        assert!(matches!(verify::verify(&empty), Err(VmError::Malformed { .. })));

        // Rebinding a store to the wrong key breaks the probe bracket.
        let mut wrong_key = good.clone();
        if wrong_key.keys.len() >= 2 {
            for instr in &mut wrong_key.instrs {
                if let Instr::Store { key, .. } = instr {
                    *key = KeyId((key.0 + 1) % wrong_key.keys.len() as u16);
                }
            }
            assert!(matches!(verify::verify(&wrong_key), Err(VmError::Malformed { .. })));
        }

        // Swapping a spine's destination register breaks SSA/type checks.
        let mut swapped = good;
        for instr in &mut swapped.instrs {
            if let Instr::Spine { dst, .. } = instr {
                *dst = RegId((dst.0 + 1) % swapped.regs.len() as u16);
            }
        }
        assert!(matches!(verify::verify(&swapped), Err(VmError::Malformed { .. })));
    }
}
