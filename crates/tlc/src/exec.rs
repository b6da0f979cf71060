//! Plan execution: set-at-a-time, bottom-up, pipelined (paper §5).

use crate::error::{Error, Result};
use crate::ops;
use crate::ops::filter::FilterPred;
use crate::plan::Plan;
use crate::stats::ExecStats;
use crate::tree::{ResultTree, TempIdGen};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmldb::Database;

/// A pluggable store for pattern-match results, consulted by the executor
/// before running a Select/Filter chain and populated after (see
/// [`match_chain_key`] for what is cacheable and how it is keyed).
///
/// Implementations own their eviction and scoping policy; the executor
/// treats the store as a pure key → trees map. The query service scopes
/// keys by `(database, epoch)` so a snapshot hot swap can never serve a
/// stale answer.
pub trait MatchCache: Send + Sync {
    /// Returns the cached result trees for `key`, if present.
    fn get(&self, key: &str) -> Option<Arc<Vec<ResultTree>>>;
    /// Stores `trees` under `key`. Implementations may decline (e.g. when
    /// the entry exceeds a byte budget).
    fn put(&self, key: &str, trees: &[ResultTree]);
}

/// How many deadline ticks pass between `Instant::now()` calls inside long
/// pattern matches. Power of two so the check is a mask.
const DEADLINE_TICK_PERIOD: u32 = 1024;

/// Execution context: temporary-id generator, counters, deadline, match
/// cache and an optional per-operator observer.
#[derive(Default)]
pub struct ExecCtx {
    /// Temporary node identifier source (paper §5.1, Property 4).
    pub tmp: TempIdGen,
    /// Counters.
    pub stats: ExecStats,
    /// Optional wall-clock cut-off. The executor checks it before every
    /// operator evaluation and — via [`ExecCtx::tick`] — every
    /// `DEADLINE_TICK_PERIOD` candidate steps inside pattern matching; an
    /// exceeded deadline aborts the whole plan with
    /// [`Error::DeadlineExceeded`]. No partially-built result escapes.
    pub deadline: Option<Instant>,
    /// Optional pattern-match cache consulted for Select/Filter chains.
    pub cache: Option<Arc<dyn MatchCache>>,
    /// Per-operator observer: when set ([`ExecCtx::with_trace`]), every
    /// operator the executor evaluates appends one [`OpTrace`] in plan
    /// order. Entries hold inclusive times until [`ExecCtx::take_trace`]
    /// derives own times from them.
    trace: Option<Vec<OpTrace>>,
    /// Plan depth of the operator being evaluated (tracing only).
    depth: usize,
    ticks: u32,
}

impl fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecCtx")
            .field("tmp", &self.tmp)
            .field("stats", &self.stats)
            .field("deadline", &self.deadline)
            .field("cache", &self.cache.is_some())
            .field("trace", &self.trace.as_ref().map(Vec::len))
            .field("ticks", &self.ticks)
            .finish()
    }
}

impl ExecCtx {
    /// Fresh context.
    pub fn new() -> Self {
        ExecCtx::default()
    }

    /// Fresh context that aborts once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        ExecCtx { deadline: Some(deadline), ..ExecCtx::default() }
    }

    /// Attaches a match cache (builder style).
    pub fn with_cache(mut self, cache: Arc<dyn MatchCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Turns on the per-operator observer (builder style): the run records
    /// each operator's label, depth, output size and time, and
    /// [`ExecCtx::take_trace`] hands the entries back.
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(Vec::new());
        self
    }

    /// Takes the recorded trace (`None` when the observer is off), in plan
    /// order, each entry's own time derived from the inclusive times of
    /// its direct children. An operator answered from the match cache
    /// carries the [`CACHE_HIT_MARK`] suffix and has no children recorded.
    pub fn take_trace(&mut self) -> Option<Vec<OpTrace>> {
        let mut ops = self.trace.take()?;
        // Forward pass: entry `i`'s children still hold inclusive times
        // when `i` is visited, since they all come after it.
        for i in 0..ops.len() {
            let depth = ops[i].depth;
            let children: Duration = ops[i + 1..]
                .iter()
                .take_while(|t| t.depth > depth)
                .filter(|t| t.depth == depth + 1)
                .map(|t| t.own_time)
                .sum();
            ops[i].own_time = ops[i].own_time.saturating_sub(children);
        }
        Some(ops)
    }

    /// Deadline check at an operator boundary. Free when no deadline is
    /// set — `Instant::now()` is only evaluated on the `Some` path.
    #[inline]
    pub(crate) fn check_deadline(&self) -> Result<()> {
        match self.deadline {
            None => Ok(()),
            Some(d) => {
                if Instant::now() >= d {
                    Err(Error::DeadlineExceeded)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Fine-grained deadline check for long-running matches: a no-op when
    /// no deadline is set, and at most one `Instant::now()` per
    /// `DEADLINE_TICK_PERIOD` calls otherwise. Pattern matching calls this
    /// per candidate step so a request can abort mid-match instead of only
    /// at operator boundaries.
    #[inline]
    pub fn tick(&mut self) -> Result<()> {
        if self.deadline.is_none() {
            return Ok(());
        }
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks.is_multiple_of(DEADLINE_TICK_PERIOD) {
            self.check_deadline()
        } else {
            Ok(())
        }
    }
}

/// Executes a plan, returning the result sequence and execution counters.
pub fn execute(db: &Database, plan: &Plan) -> Result<(Vec<ResultTree>, ExecStats)> {
    let mut ctx = ExecCtx::new();
    let trees = run(db, plan, &mut ctx)?;
    Ok((trees, ctx.stats))
}

/// Executes a plan under a wall-clock deadline.
///
/// Returns [`Error::DeadlineExceeded`] as soon as the deadline is observed
/// past an operator boundary; a deadline already in the past fails before
/// any operator runs. This is the primitive the query service's per-request
/// timeouts are built on.
pub fn execute_with_deadline(
    db: &Database,
    plan: &Plan,
    deadline: Instant,
) -> Result<(Vec<ResultTree>, ExecStats)> {
    let mut ctx = ExecCtx::with_deadline(deadline);
    let trees = run(db, plan, &mut ctx)?;
    Ok((trees, ctx.stats))
}

/// Executes a plan under a caller-supplied context — the full-control entry
/// point: deadline, match cache and counters all live on `ctx`. The other
/// `execute*` functions are conveniences over this.
pub fn execute_with_ctx(db: &Database, plan: &Plan, ctx: &mut ExecCtx) -> Result<Vec<ResultTree>> {
    run(db, plan, ctx)
}

/// Executes a plan and serializes the result (the typical caller surface).
pub fn execute_to_string(db: &Database, plan: &Plan) -> Result<String> {
    let (trees, _) = execute(db, plan)?;
    Ok(crate::output::serialize_results(db, &trees))
}

/// The cache key for a plan whose result the match cache may hold, or
/// `None` when the plan is not cacheable.
///
/// Cacheable plans are the Select/Filter *chains* the translator emits for
/// pattern matching — a document- or class-rooted `Select`, `Filter`,
/// `Project` or `DupElim` whose (optional) input is itself a cacheable
/// chain. Such a chain is a pure function of the database snapshot and its
/// own shape: none of these operators mint temporary nodes, so their
/// output embeds only base node ids and class labels, both of which the
/// key covers (APT fingerprints include labels). Any other operator in the
/// chain (Join, Aggregate, Construct, …) creates fresh temporary ids per
/// execution, so those plans are never cached.
///
/// The key is a canonical form, not a hash: distinct chains cannot collide.
/// Callers scope it further (the service prepends `(db, epoch)`).
pub fn match_chain_key(plan: &Plan) -> Option<String> {
    match plan {
        Plan::Select { input, apt } => {
            let fp = apt.fingerprint();
            match input {
                None => Some(format!("S{fp}")),
                Some(i) => {
                    let prefix = match_chain_key(i)?;
                    Some(format!("{prefix}\u{2}S{fp}"))
                }
            }
        }
        Plan::Filter { input, lcl, pred, mode } => {
            let prefix = match_chain_key(input)?;
            let pred = match pred {
                FilterPred::Content(p) => {
                    // Literals are length/bit-prefixed so keys stay
                    // self-delimiting (same rules as APT fingerprints).
                    match &p.value {
                        crate::pattern::PredValue::Num(n) => {
                            format!("{:?}n{:016x}", p.op, n.to_bits())
                        }
                        crate::pattern::PredValue::Str(s) => {
                            format!("{:?}s{}:{s}", p.op, s.len())
                        }
                    }
                }
                FilterPred::CmpLcl { op, other } => format!("{op:?}c{}", other.0),
            };
            Some(format!("{prefix}\u{2}Fc{};{mode:?};{pred}", lcl.0))
        }
        Plan::Project { input, keep } => {
            let prefix = match_chain_key(input)?;
            let keep: Vec<String> = keep.iter().map(|l| l.0.to_string()).collect();
            Some(format!("{prefix}\u{2}Pc{}", keep.join(",")))
        }
        Plan::DupElim { input, on, kind } => {
            let prefix = match_chain_key(input)?;
            let on: Vec<String> = on.iter().map(|l| l.0.to_string()).collect();
            Some(format!("{prefix}\u{2}D{kind:?}c{}", on.join(",")))
        }
        _ => None,
    }
}

/// Every match-cache key an execution of `plan` can touch, paired with the
/// precise [`crate::Footprint`] of exactly the chain that entry answers
/// for. A chain's footprint is a subset of the whole plan's, so the query
/// service can carry a *chain* entry across an update epoch even when the
/// enclosing plan as a whole reads mutated data. Sorted and deduplicated
/// by key.
pub fn match_chain_footprints(plan: &Plan) -> Vec<(String, crate::analyze::Footprint)> {
    let mut out = Vec::new();
    collect_chain_footprints(plan, &mut out);
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out.dedup_by(|a, b| a.0 == b.0);
    out
}

fn collect_chain_footprints(plan: &Plan, out: &mut Vec<(String, crate::analyze::Footprint)>) {
    if let Some(key) = match_chain_key(plan) {
        out.push((key, crate::analyze::plan_footprint(plan)));
    }
    for input in plan.inputs() {
        collect_chain_footprints(input, out);
    }
}

/// Checks an observed result set against the plan's statically inferred
/// [`crate::PlanType`] — the runtime half of the analyzer soundness oracle.
///
/// Verified claims:
/// - a class inferred [`crate::Card::One`] has exactly one visible member
///   in every output tree, and [`crate::Card::Opt`] at most one;
/// - when the analyzer claims [`crate::analyze::Order::Document`], result
///   roots are non-decreasing in document order.
///
/// Plans containing `Construct` or `GroupBy` are skipped entirely:
/// Construct may copy a member into several constructed elements and
/// GroupBy grafts members across trees, so per-tree member counts
/// legitimately diverge from the per-class cards. Plans containing `Union`
/// skip only the order check (branch concatenation interleaves documents).
/// An unanalyzable plan trivially conforms. Debug builds run this check on
/// every executed (sub)plan, so the whole test suite doubles as a
/// differential test of the analyzer.
pub fn check_conformance(plan: &Plan, trees: &[ResultTree]) -> std::result::Result<(), String> {
    let t = match crate::analyze::analyze(plan) {
        Ok(t) => t,
        Err(_) => return Ok(()),
    };
    if contains(plan, &mut |p| matches!(p, Plan::Construct { .. } | Plan::GroupBy { .. })) {
        return Ok(());
    }
    for (i, tree) in trees.iter().enumerate() {
        for (&lcl, &card) in &t.classes {
            let n = tree.members(lcl).len();
            let ok = match card {
                crate::analyze::Card::One => n == 1,
                crate::analyze::Card::Opt => n <= 1,
                crate::analyze::Card::Many => true,
            };
            if !ok {
                return Err(format!(
                    "tree {i}: class {lcl} has {n} member(s) but the analyzer claims {card:?}"
                ));
            }
        }
    }
    if t.order == crate::analyze::Order::Document
        && !contains(plan, &mut |p| matches!(p, Plan::Union { .. }))
    {
        let mut prev = None;
        for (i, tree) in trees.iter().enumerate() {
            let key = tree.order_key();
            if let Some(p) = prev {
                if key < p {
                    return Err(format!(
                        "tree {i} breaks the claimed document order (root {key:?} < {p:?})"
                    ));
                }
            }
            prev = Some(key);
        }
    }
    Ok(())
}

fn contains(plan: &Plan, pred: &mut impl FnMut(&Plan) -> bool) -> bool {
    pred(plan) || plan.inputs().into_iter().any(|i| contains(i, pred))
}

/// Suffix a traced operator's label carries when the match cache answered
/// it (its inputs then never ran, so they have no entries of their own).
pub const CACHE_HIT_MARK: &str = " [match-cache hit]";

/// One operator's measurements from a traced execution.
#[derive(Debug, Clone)]
pub struct OpTrace {
    /// Short operator description.
    pub label: String,
    /// Nesting depth in the plan (0 = the plan root).
    pub depth: usize,
    /// Trees the operator produced.
    pub out_trees: usize,
    /// Time spent in this operator alone (children excluded).
    pub own_time: Duration,
}

/// Executes a plan recording per-operator timings and output cardinalities —
/// an "EXPLAIN ANALYZE" for TLC plans. Entries are in plan order (root
/// first, inputs following, like [`Plan::display`]). This is the plain
/// executor with its observer on ([`ExecCtx::with_trace`]); attach a match
/// cache the same way to trace a cached run.
pub fn execute_traced(
    db: &Database,
    plan: &Plan,
) -> Result<(Vec<ResultTree>, ExecStats, Vec<OpTrace>)> {
    let mut ctx = ExecCtx::new().with_trace();
    let trees = run(db, plan, &mut ctx)?;
    let traces = ctx.take_trace().unwrap_or_default();
    Ok((trees, ctx.stats, traces))
}

/// Renders a trace table.
pub fn render_trace(traces: &[OpTrace]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>9}  {:>7}  operator
",
        "own time", "trees"
    ));
    for t in traces {
        out.push_str(&format!(
            "{:>8.3}ms  {:>7}  {}{}
",
            t.own_time.as_secs_f64() * 1e3,
            t.out_trees,
            "  ".repeat(t.depth),
            t.label
        ));
    }
    out
}

fn op_label(plan: &Plan, db: &Database) -> String {
    match plan {
        Plan::Select { apt, .. } => format!("Select[{}]", apt.display(Some(db))),
        Plan::Filter { lcl, mode, .. } => format!("Filter[{lcl} mode={mode:?}]"),
        Plan::Join { spec, .. } => {
            format!("Join[root={} right={}]", spec.root_lcl, spec.right_mspec)
        }
        Plan::Project { keep, .. } => format!("Project[{} class(es)]", keep.len()),
        Plan::DupElim { on, kind, .. } => format!("DupElim[{kind:?} on {} class(es)]", on.len()),
        Plan::Aggregate { func, over, .. } => format!("Aggregate[{}({over})]", func.name()),
        Plan::Construct { spec, .. } => format!("Construct[{} item(s)]", spec.len()),
        Plan::Sort { keys, .. } => format!("Sort[{} key(s)]", keys.len()),
        Plan::Flatten { parent, child, .. } => format!("Flatten[{parent}, {child}]"),
        Plan::Shadow { parent, child, .. } => format!("Shadow[{parent}, {child}]"),
        Plan::Illuminate { lcl, .. } => format!("Illuminate[{lcl}]"),
        Plan::GroupBy { by, collect, .. } => format!("GroupBy[by {by} collect {collect}]"),
        Plan::Materialize { lcls, .. } => format!("Materialize[{} class(es)]", lcls.len()),
        Plan::Union { inputs, .. } => format!("Union[{} branch(es)]", inputs.len()),
    }
}

/// Evaluates `plan`, recording it (and, through the recursion, its inputs)
/// when the observer is on.
fn run(db: &Database, plan: &Plan, ctx: &mut ExecCtx) -> Result<Vec<ResultTree>> {
    ctx.check_deadline()?;
    let Some(trace) = ctx.trace.as_mut() else {
        return run_cached(db, plan, ctx).map(|(trees, _)| trees);
    };
    let slot = trace.len();
    trace.push(OpTrace {
        label: op_label(plan, db),
        depth: ctx.depth,
        out_trees: 0,
        own_time: Duration::ZERO,
    });
    ctx.depth += 1;
    let started = Instant::now();
    let result = run_cached(db, plan, ctx);
    ctx.depth -= 1;
    let (trees, hit) = result?;
    if let Some(op) = ctx.trace.as_mut().map(|t| &mut t[slot]) {
        op.out_trees = trees.len();
        op.own_time = started.elapsed();
        if hit {
            op.label.push_str(CACHE_HIT_MARK);
        }
    }
    Ok(trees)
}

/// Pattern-match chains (Select/Filter and the Project/DupElim glue
/// between them) are pure functions of the database snapshot, so a match
/// cache (when attached) can answer them without matching. The key covers
/// the whole chain below this operator; on a miss the chain runs normally
/// and each cacheable level populates its own entry. The flag is `true`
/// when the cache answered.
fn run_cached(db: &Database, plan: &Plan, ctx: &mut ExecCtx) -> Result<(Vec<ResultTree>, bool)> {
    if let Some(cache) = ctx.cache.clone() {
        if let Some(key) = match_chain_key(plan) {
            if let Some(hit) = cache.get(&key) {
                ctx.stats.match_cache_hits += 1;
                return Ok((hit.as_ref().clone(), true));
            }
            let trees = run_checked(db, plan, ctx)?;
            ctx.stats.match_cache_misses += 1;
            cache.put(&key, &trees);
            return Ok((trees, false));
        }
    }
    Ok((run_checked(db, plan, ctx)?, false))
}

/// Runs one operator and, in debug builds, checks the observed output
/// against the analyzer's claims ([`check_conformance`]) — every executed
/// subplan in the test suite exercises the soundness oracle. Cache hits are
/// not re-checked: the entry conformed when it was produced.
fn run_checked(db: &Database, plan: &Plan, ctx: &mut ExecCtx) -> Result<Vec<ResultTree>> {
    let trees = run_op(db, plan, ctx)?;
    #[cfg(debug_assertions)]
    if let Err(msg) = check_conformance(plan, &trees) {
        panic!("analyzer conformance violation: {msg}\nplan:\n{}", plan.display(Some(db)));
    }
    Ok(trees)
}

fn run_op(db: &Database, plan: &Plan, ctx: &mut ExecCtx) -> Result<Vec<ResultTree>> {
    match plan {
        Plan::Select { input, apt } => {
            let inputs = match input {
                Some(i) => run(db, i, ctx)?,
                None => Vec::new(),
            };
            ops::select(db, apt, inputs, ctx)
        }
        Plan::Filter { input, lcl, pred, mode } => {
            let inputs = run(db, input, ctx)?;
            Ok(ops::filter(db, inputs, *lcl, pred, *mode, &mut ctx.stats))
        }
        Plan::Join { left, right, spec } => {
            let l = run(db, left, ctx)?;
            let r = run(db, right, ctx)?;
            ops::join(db, l, r, spec, &mut ctx.tmp, &mut ctx.stats)
        }
        Plan::Project { input, keep } => {
            let inputs = run(db, input, ctx)?;
            Ok(ops::project(inputs, keep, &mut ctx.stats))
        }
        Plan::DupElim { input, on, kind } => {
            let inputs = run(db, input, ctx)?;
            ops::duplicate_elimination(db, inputs, on, *kind, &mut ctx.stats)
        }
        Plan::Aggregate { input, func, over, new_lcl } => {
            let inputs = run(db, input, ctx)?;
            Ok(ops::aggregate(db, inputs, *func, *over, *new_lcl, &mut ctx.tmp, &mut ctx.stats))
        }
        Plan::Construct { input, spec } => {
            let inputs = run(db, input, ctx)?;
            ops::construct(db, inputs, spec, &mut ctx.tmp, &mut ctx.stats)
        }
        Plan::Sort { input, keys } => {
            let inputs = run(db, input, ctx)?;
            Ok(ops::sort_by_keys(db, inputs, keys))
        }
        Plan::Flatten { input, parent, child } => {
            let inputs = run(db, input, ctx)?;
            ops::flatten(inputs, *parent, *child, &mut ctx.stats)
        }
        Plan::Shadow { input, parent, child } => {
            let inputs = run(db, input, ctx)?;
            ops::shadow(inputs, *parent, *child, &mut ctx.stats)
        }
        Plan::Illuminate { input, lcl } => {
            let inputs = run(db, input, ctx)?;
            Ok(ops::illuminate(inputs, *lcl, &mut ctx.stats))
        }
        Plan::GroupBy { input, by, collect } => {
            let inputs = run(db, input, ctx)?;
            ops::grouping_procedure(db, inputs, *by, *collect, &mut ctx.stats)
        }
        Plan::Materialize { input, lcls } => {
            let inputs = run(db, input, ctx)?;
            Ok(ops::materialize(db, inputs, lcls, &mut ctx.stats))
        }
        Plan::Union { inputs, dedup_on } => {
            let branches = inputs.iter().map(|p| run(db, p, ctx)).collect::<Result<Vec<_>>>()?;
            ops::union_all(db, branches, dedup_on, &mut ctx.stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical_class::LclId;
    use crate::pattern::{Apt, ContentPred, MSpec, PredValue};
    use xmldb::AxisRel;
    use xquery::CmpOp;

    #[test]
    fn execute_a_small_select_plan() {
        let mut db = Database::new();
        db.load_xml("e.xml", "<r><p><age>30</age></p><p><age>10</age></p></r>").unwrap();
        let p = db.interner().lookup("p").unwrap();
        let age = db.interner().lookup("age").unwrap();
        let mut apt = Apt::for_document("e.xml", LclId(1));
        let pn = apt.add(None, AxisRel::Descendant, MSpec::One, p, None, LclId(2));
        apt.add(
            Some(pn),
            AxisRel::Child,
            MSpec::One,
            age,
            Some(ContentPred { op: CmpOp::Gt, value: PredValue::Num(20.0) }),
            LclId(3),
        );
        let plan = Plan::Select { input: None, apt };
        let (trees, stats) = execute(&db, &plan).unwrap();
        assert_eq!(trees.len(), 1);
        assert_eq!(stats.pattern_matches, 1);
    }

    #[test]
    fn expired_deadline_aborts_with_typed_error() {
        let mut db = Database::new();
        db.load_xml("e.xml", "<r><p><age>30</age></p></r>").unwrap();
        let plan = crate::compile(r#"FOR $p IN document("e.xml")//p RETURN $p/age"#, &db).unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            execute_with_deadline(&db, &plan, past).unwrap_err(),
            crate::Error::DeadlineExceeded
        );
        // A generous deadline executes normally.
        let future = Instant::now() + Duration::from_secs(60);
        let (trees, _) = execute_with_deadline(&db, &plan, future).unwrap();
        assert_eq!(trees.len(), 1);
    }

    /// Toy in-memory MatchCache for tests.
    #[derive(Default)]
    struct MapCache {
        map: std::sync::Mutex<std::collections::HashMap<String, Arc<Vec<ResultTree>>>>,
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
    fn match_cache_serves_select_filter_chains_byte_identically() {
        let mut db = Database::new();
        db.load_xml("e.xml", "<r><p><age>30</age></p><p><age>10</age></p></r>").unwrap();
        let plan = crate::compile(
            r#"FOR $p IN document("e.xml")//p WHERE $p/age > 20 RETURN $p/age"#,
            &db,
        )
        .unwrap();
        let (fresh, _) = execute(&db, &plan).unwrap();
        let expected = crate::output::serialize_results(&db, &fresh);

        let cache = Arc::new(MapCache::default());
        let mut cold = ExecCtx::new().with_cache(cache.clone());
        let got = execute_with_ctx(&db, &plan, &mut cold).unwrap();
        assert_eq!(crate::output::serialize_results(&db, &got), expected);
        assert_eq!(cold.stats.match_cache_hits, 0);
        assert!(cold.stats.match_cache_misses > 0, "cacheable chain must probe");
        assert!(cold.stats.pattern_matches > 0);

        let mut warm = ExecCtx::new().with_cache(cache);
        let got = execute_with_ctx(&db, &plan, &mut warm).unwrap();
        assert_eq!(crate::output::serialize_results(&db, &got), expected);
        assert!(warm.stats.match_cache_hits > 0, "second run must hit");
        assert_eq!(
            warm.stats.pattern_matches, 0,
            "a hit at the top of the chain skips all matching"
        );
        assert_eq!(warm.stats.candidate_fetches, 0, "no index fetches on a full hit");
    }

    #[test]
    fn match_chain_key_covers_chains_and_rejects_other_operators() {
        let mut db = Database::new();
        db.load_xml("e.xml", "<r><p><age>30</age></p></r>").unwrap();
        let chain =
            crate::compile(r#"FOR $p IN document("e.xml")//p WHERE $p/age > 20 RETURN $p"#, &db)
                .unwrap();
        // The full plan ends in Construct (not cacheable) but its Select/
        // Filter spine below must key.
        assert!(match_chain_key(&chain).is_none());
        let mut spine = &chain;
        while let Plan::Construct { input, .. } | Plan::Sort { input, .. } = spine {
            spine = input;
        }
        assert!(
            match_chain_key(spine).is_some(),
            "Select/Filter spine should be cacheable: {}",
            spine.display(Some(&db))
        );
        // Two compiles of the same text share a key (stable fingerprints).
        let again =
            crate::compile(r#"FOR $p IN document("e.xml")//p WHERE $p/age > 20 RETURN $p"#, &db)
                .unwrap();
        let mut spine2 = &again;
        while let Plan::Construct { input, .. } | Plan::Sort { input, .. } = spine2 {
            spine2 = input;
        }
        assert_eq!(match_chain_key(spine), match_chain_key(spine2));
    }

    #[test]
    fn deadline_aborts_mid_match_through_ticks() {
        let mut db = Database::new();
        // Enough nodes that one Select performs > DEADLINE_TICK_PERIOD
        // candidate steps.
        let mut xml = String::from("<r>");
        for i in 0..3000 {
            xml.push_str(&format!("<p><age>{}</age></p>", i % 90));
        }
        xml.push_str("</r>");
        db.load_xml("big.xml", &xml).unwrap();
        let p = db.interner().lookup("p").unwrap();
        let mut apt = Apt::for_document("big.xml", LclId(1));
        apt.add(None, AxisRel::Descendant, MSpec::One, p, None, LclId(2));
        // Calling the operator directly skips the operator-boundary check,
        // so only the per-candidate ticks can observe the expired deadline.
        let mut ctx = ExecCtx::with_deadline(Instant::now() - Duration::from_millis(1));
        let got = ops::select(&db, &apt, Vec::new(), &mut ctx);
        assert_eq!(got.unwrap_err(), Error::DeadlineExceeded);
        // Without a deadline the same match ticks for free and completes.
        let mut free = ExecCtx::new();
        assert_eq!(ops::select(&db, &apt, Vec::new(), &mut free).unwrap().len(), 3000);
    }

    #[test]
    fn traced_execution_matches_plain_and_reports_ops() {
        let mut db = Database::new();
        db.load_xml("e.xml", "<r><p><age>30</age></p><p><age>10</age></p></r>").unwrap();
        let plan = crate::compile(
            r#"FOR $p IN document("e.xml")//p WHERE $p/age > 20 RETURN $p/age"#,
            &db,
        )
        .unwrap();
        let (plain, _) = execute(&db, &plan).unwrap();
        let (traced, _, traces) = execute_traced(&db, &plan).unwrap();
        assert_eq!(
            crate::output::serialize_results(&db, &plain),
            crate::output::serialize_results(&db, &traced)
        );
        assert_eq!(traces.len(), plan.operator_count());
        assert_eq!(traces[0].depth, 0);
        assert!(traces.iter().any(|t| t.label.starts_with("Construct")));
        let table = render_trace(&traces);
        assert!(table.contains("operator"), "{table}");
        assert!(ExecCtx::new().take_trace().is_none(), "observer is off by default");

        // Traced over a warm match cache: same bytes, the hit is marked and
        // the chain below it never ran.
        let cache = Arc::new(MapCache::default());
        execute_with_ctx(&db, &plan, &mut ExecCtx::new().with_cache(cache.clone())).unwrap();
        let mut warm = ExecCtx::new().with_cache(cache).with_trace();
        let got = execute_with_ctx(&db, &plan, &mut warm).unwrap();
        assert_eq!(
            crate::output::serialize_results(&db, &got),
            crate::output::serialize_results(&db, &plain)
        );
        let traces = warm.take_trace().unwrap();
        assert!(traces.len() < plan.operator_count(), "{traces:?}");
        assert!(traces.iter().any(|t| t.label.ends_with(CACHE_HIT_MARK)), "{traces:?}");
    }
}
