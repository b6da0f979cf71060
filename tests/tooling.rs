//! Tooling-level integration: query pretty-printing, database snapshots,
//! traced execution — the pieces a downstream user leans on daily.

use baselines::Engine;
use tlc_xml::{baselines, queries, tlc, xmark, xmldb, xquery};

/// Every workload query survives a parse → pretty-print → parse round trip.
#[test]
fn workload_queries_round_trip_through_the_pretty_printer() {
    for q in queries::all_queries().iter().chain(queries::extended_queries()) {
        let ast = xquery::parse(q.text).unwrap_or_else(|e| panic!("{}: {e}", q.name));
        let printed = xquery::PrettyQuery(&ast).to_string();
        let reparsed = xquery::parse(&printed)
            .unwrap_or_else(|e| panic!("{} reprint fails to parse: {e}\n{printed}", q.name));
        assert_eq!(ast, reparsed, "{} is not print-stable:\n{printed}", q.name);
    }
}

/// Pretty-printed queries are not just parseable — they still produce the
/// same answers.
#[test]
fn pretty_printed_queries_produce_identical_answers() {
    let db = xmark::auction_database(0.002);
    for name in ["x1", "x5", "x19", "Q1", "Q2"] {
        let q = queries::query(name).unwrap();
        let ast = xquery::parse(q.text).unwrap();
        let printed = xquery::PrettyQuery(&ast).to_string();
        let original = baselines::run(Engine::Tlc, q.text, &db).unwrap();
        let reprinted = baselines::run(Engine::Tlc, &printed, &db).unwrap();
        assert_eq!(original, reprinted, "{name}");
    }
}

/// A snapshot of XMark data answers queries identically to the original.
#[test]
fn snapshots_answer_queries_identically() {
    let db = xmark::auction_database(0.002);
    let path = std::env::temp_dir().join(format!("tlcx_it_{}.tlcx", std::process::id()));
    xmldb::save_file(&db, &path).unwrap();
    let restored = xmldb::load_file(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(db.node_count(), restored.node_count());
    for name in ["x1", "x6", "x14", "Q1"] {
        let q = queries::query(name).unwrap();
        assert_eq!(
            baselines::run(Engine::Tlc, q.text, &db).unwrap(),
            baselines::run(Engine::Tlc, q.text, &restored).unwrap(),
            "{name} over the snapshot"
        );
    }
}

/// Traced execution agrees with plain execution on the whole workload and
/// accounts for every operator; a second traced run over a warm match
/// cache answers the same bytes and shows its hits in the trace.
#[test]
fn traced_execution_covers_the_workload() {
    let db = xmark::auction_database(0.002);
    let mut cached_hits = 0;
    for q in queries::all_queries() {
        let plan = baselines::plan_for(Engine::Tlc, q.text, &db).unwrap();
        let (plain, _) = tlc::execute(&db, &plan).unwrap();
        let (traced, _, traces) = tlc::execute_traced(&db, &plan).unwrap();
        assert_eq!(
            tlc::serialize_results(&db, &plain),
            tlc::serialize_results(&db, &traced),
            "{}",
            q.name
        );
        assert_eq!(traces.len(), plan.operator_count(), "{}", q.name);
        assert_eq!(traces[0].out_trees, traced.len(), "{}: root trace reports the output", q.name);

        let cache = std::sync::Arc::new(MapCache::default());
        tlc::execute_with_ctx(&db, &plan, &mut tlc::ExecCtx::new().with_cache(cache.clone()))
            .unwrap();
        let mut warm = tlc::ExecCtx::new().with_cache(cache).with_trace();
        let trees = tlc::execute_with_ctx(&db, &plan, &mut warm).unwrap();
        assert_eq!(
            tlc::serialize_results(&db, &trees),
            tlc::serialize_results(&db, &plain),
            "{}: warm traced run",
            q.name
        );
        let traces = warm.take_trace().expect("observer was on");
        let hits = traces.iter().filter(|t| t.label.ends_with(tlc::CACHE_HIT_MARK)).count();
        assert_eq!(hits as u64, warm.stats.match_cache_hits, "{}: every hit is traced", q.name);
        assert!(traces.len() <= plan.operator_count(), "{}", q.name);
        cached_hits += hits;
    }
    assert!(cached_hits > 0, "no warm traced run was answered from the match cache");
}

/// A plain in-memory match cache.
#[derive(Default)]
struct MapCache {
    map: std::sync::Mutex<std::collections::HashMap<String, std::sync::Arc<Vec<tlc::ResultTree>>>>,
}

impl tlc::MatchCache for MapCache {
    fn get(&self, key: &str) -> Option<std::sync::Arc<Vec<tlc::ResultTree>>> {
        self.map.lock().unwrap().get(key).cloned()
    }
    fn put(&self, key: &str, trees: &[tlc::ResultTree]) {
        self.map.lock().unwrap().insert(key.to_string(), std::sync::Arc::new(trees.to_vec()));
    }
}

/// The cost model ranks the workload plans without panicking and with sane
/// (finite, non-negative) numbers.
#[test]
fn cost_model_is_total_over_the_workload() {
    let db = xmark::auction_database(0.002);
    let model = tlc::CostModel::new(&db);
    for q in queries::all_queries().iter().chain(queries::extended_queries()) {
        let plan = baselines::plan_for(Engine::Tlc, q.text, &db).unwrap();
        let cost = model.plan_cost(&plan);
        assert!(cost.is_finite() && cost >= 0.0, "{}: cost {cost}", q.name);
        let card = model.plan_cardinality(&plan);
        assert!(card.is_finite() && card >= 0.0, "{}: cardinality {card}", q.name);
    }
}

/// The XMark schema validator accepts what the generator produces, at the
/// factor the cross-engine tests use.
#[test]
fn generated_data_is_schema_valid() {
    let db = xmark::auction_database(0.002);
    let violations = xmark::validate(&db, xmldb::DocId(0));
    assert!(violations.is_empty(), "first: {:?}", violations.first());
}
