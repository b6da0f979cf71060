//! Cross-engine equivalence: every query of the Figure 15 workload must
//! produce byte-identical output on TLC, TLC+rewrites (OPT), GTP, TAX and
//! the navigational interpreter, over a real XMark document.
//!
//! This is the strongest correctness check in the repository: the five
//! evaluators share almost no code paths above the store (NAV shares none),
//! so agreement on 23 queries over thousands of nodes is hard to achieve by
//! accident. The query service rides the same harness: its cached path
//! (plan cache and match cache, cold and warm) must answer every query
//! byte-identically to the single-threaded reference.

use baselines::Engine;
use queries::{all_queries, run_query};

fn xmark_db() -> xmldb::Database {
    // Factor 0.002 ≈ small but non-trivial: every query has work to do.
    xmark::auction_database(0.002)
}

#[test]
fn all_queries_agree_across_all_engines() {
    let db = xmark_db();
    let mut checked = 0;
    for q in all_queries() {
        let reference = run_query(&db, q.name, Engine::Tlc)
            .unwrap_or_else(|e| panic!("TLC failed on {}: {e}", q.name));
        for engine in [Engine::TlcOpt, Engine::TlcCosted, Engine::Gtp, Engine::Tax, Engine::Nav] {
            let out = run_query(&db, q.name, engine)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", engine.name(), q.name));
            assert_eq!(out, reference, "{} disagrees with TLC on {}", engine.name(), q.name);
        }
        checked += 1;
    }
    assert_eq!(checked, 23);
}

#[test]
fn extended_workload_agrees_across_all_engines() {
    let db = xmark_db();
    for q in queries::extended_queries() {
        let reference = baselines::run(Engine::Tlc, q.text, &db)
            .unwrap_or_else(|e| panic!("TLC failed on {}: {e}", q.name));
        for engine in [Engine::TlcOpt, Engine::TlcCosted, Engine::Gtp, Engine::Tax, Engine::Nav] {
            let out = baselines::run(engine, q.text, &db)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", engine.name(), q.name));
            assert_eq!(out, reference, "{} disagrees on {}", engine.name(), q.name);
        }
    }
}

/// The cached service path end to end: for both plan-based engines, the
/// service's cold answer (plan compiled, match cache filled) and warm
/// answer (plan and match entries served from the caches) to every
/// workload query must equal the single-threaded reference.
#[test]
fn service_cold_and_warm_answers_match_the_reference() {
    let db = std::sync::Arc::new(xmark_db());
    for engine in [Engine::Tlc, Engine::TlcOpt] {
        let svc = service::Service::new(
            std::sync::Arc::clone(&db),
            service::ServiceConfig { engine, ..Default::default() },
        );
        for q in all_queries() {
            let reference = baselines::run(engine, q.text, &db)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", engine.name(), q.name));
            let cold = svc
                .execute(q.text)
                .unwrap_or_else(|e| panic!("cold service run failed {}: {e}", q.name));
            let warm = svc
                .execute(q.text)
                .unwrap_or_else(|e| panic!("warm service run failed {}: {e}", q.name));
            assert!(!cold.cache_hit && warm.cache_hit, "{}: plan cache not exercised", q.name);
            assert_eq!(cold.output, reference, "cold answer to {} ({})", q.name, engine.name());
            assert_eq!(warm.output, reference, "warm answer to {} ({})", q.name, engine.name());
        }
        let cache = svc.match_cache_stats().expect("match cache enabled by default");
        assert!(cache.hits > 0, "{}: warm runs never hit the match cache", engine.name());
    }
}

/// Spellings that differ only in whitespace inside a string literal or
/// inside element-constructor text mean different queries, so they must
/// not share a plan-cache entry. Each pair runs through one service in
/// both orders; every answer must equal the single-threaded reference.
#[test]
fn whitespace_inside_literals_and_constructor_text_keys_apart() {
    let mut db = xmldb::Database::new();
    db.load_xml(
        "auction.xml",
        "<site><person><name>Ann  Lee</name></person><person><name>Ann Lee</name></person></site>",
    )
    .unwrap();
    let db = std::sync::Arc::new(db);
    let by_name = |lit: &str| {
        format!(r#"FOR $p IN document("auction.xml")//person WHERE $p/name = {lit} RETURN $p/name"#)
    };
    let build = |text: &str| format!(r#"FOR $p IN document("auction.xml")//person RETURN {text}"#);
    let pairs = [
        (by_name(r#""Ann Lee""#), by_name(r#""Ann  Lee""#)),
        (by_name("'Ann Lee'"), by_name("'Ann  Lee'")),
        (build("<a>x y</a>"), build("<a>x   y</a>")),
        (build("<a>x y {$p/name}</a>"), build("<a>x\n  y {$p/name}</a>")),
    ];
    for (first, second) in &pairs {
        for order in [[first, second], [second, first]] {
            let svc = service::Service::new(std::sync::Arc::clone(&db), Default::default());
            for query in order {
                let reference = baselines::run(Engine::Tlc, query, &db).unwrap();
                let got = svc.execute(query).unwrap();
                assert_eq!(got.output, reference, "{query}");
                assert!(!got.cache_hit, "{query} was served another spelling's plan");
            }
            assert_eq!(svc.cache_stats().len, 2, "{order:?}");
        }
    }
    // The references really differ, so sharing an entry would be visible.
    let answer = |q: &str| baselines::run(Engine::Tlc, q, &db).unwrap();
    for (first, second) in &pairs {
        assert_ne!(answer(first), answer(second), "{first}");
    }
}

#[test]
fn queries_produce_shapely_output() {
    let db = xmark_db();
    // Spot-check that queries are not vacuously empty / trivially identical.
    let x1 = run_query(&db, "x1", Engine::Tlc).unwrap();
    assert_eq!(x1.matches("<name>").count(), 1, "x1 is single-output: {x1}");

    let x2 = run_query(&db, "x2", Engine::Tlc).unwrap();
    assert!(x2.matches("<increase>").count() > 10, "x2 has lots of output trees");

    let x6 = run_query(&db, "x6", Engine::Tlc).unwrap();
    let n: u32 = x6.trim().parse().expect("x6 returns one number");
    assert!(n >= 12, "x6 counts all items, got {n}");

    let x20 = run_query(&db, "x20", Engine::Tlc).unwrap();
    assert!(x20.contains("<people>") && x20.contains("<items>"), "{x20}");

    let q1 = run_query(&db, "Q1", Engine::Tlc).unwrap();
    assert!(q1.contains("<person name="), "Q1 should have matches at this factor: {q1}");

    let x19 = run_query(&db, "x19", Engine::Tlc).unwrap();
    let locs: Vec<&str> = x19.matches("<location>").map(|_| "").collect();
    assert!(locs.len() >= 12, "x19 returns every item");
}

#[test]
fn x19_is_sorted_by_location() {
    let db = xmark_db();
    let out = run_query(&db, "x19", Engine::Tlc).unwrap();
    let mut locations = Vec::new();
    for part in out.split("<location>").skip(1) {
        locations.push(part.split("</location>").next().unwrap().to_string());
    }
    let mut sorted = locations.clone();
    sorted.sort();
    assert_eq!(locations, sorted, "ORDER BY $i/location must hold");
}

#[test]
fn rewrites_preserve_results_on_the_figure_16_set() {
    let db = xmark_db();
    for name in queries::FIG16_QUERIES {
        let plain = run_query(&db, name, Engine::Tlc).unwrap();
        let opt = run_query(&db, name, Engine::TlcOpt).unwrap();
        assert_eq!(plain, opt, "rewrite changed the answer of {name}");
    }
}
