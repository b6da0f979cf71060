//! Paper-style experiment driver.
//!
//! ```text
//! experiments fig15 [--factor F] [--budget SECS] [--json FILE]
//! experiments fig16 [--factor F]
//! experiments fig17 [--factors F1,F2,...]
//! experiments stats [--factor F]     # per-engine ExecStats (redundancy metrics)
//! experiments rw [--factor F] [--ops N] [--seed S] [--write-fractions F1,F2,...] [--json FILE]
//! experiments hotswap [--factor F] [--threads N] [--rounds R] [--swap-ms MS] [--json FILE]
//! experiments lintcheck [--factor F] [--plans N] [--seed S] [--json FILE]
//! experiments check [--factor F]     # store invariant check on generated data
//! experiments all   [--factor F]
//! ```
//!
//! `rw` drives a seeded mixed read/write stream through the in-place
//! update engine at each configured write fraction: writes go through the
//! copy-on-write commit (epoch bump + footprint-based cache seeding),
//! reads replay the workload queries, and every read answer is
//! byte-checked against a from-scratch reference obtained by serializing
//! the current snapshot back to XML and reparsing it. Exits non-zero on
//! any mismatch, failed op, or store-invariant violation. `--json FILE`
//! additionally writes the machine-readable report (`BENCH_rw.json`).
//!
//! `hotswap` soaks the catalog's epoch-versioned snapshot swap: clients
//! replay the workload while a background thread republishes the database
//! every `--swap-ms` milliseconds; every answer is byte-checked against a
//! single-threaded reference for the epoch it reports. Exits non-zero on
//! any failed request or wrong-snapshot answer.
//!
//! `lintcheck` is the static-analysis soundness oracle: N seeded random
//! plans (default 300), each checked for runtime conformance to its
//! inferred type, liveness-pruning byte-identity, empty-select lint
//! truthfulness, footprint-based cache-carry correctness under a seeded
//! mutation, and match-cache transparency (no cache, cold cache and warm
//! cache answer byte-identically). Exits non-zero on any soundness violation.
//!
//! `fig15 --json` and `hotswap --json` write machine-readable reports
//! (`BENCH_fig15.json`, `BENCH_hotswap.json`), mirroring `rw`.
//!
//! Serving throughput and latency are not measured here: the serving
//! benchmark is `perfbench` (see `BENCHMARK.json`), and tier 1 gates on
//! its deterministic counters (`scripts/check_counters.sh`).

use baselines::Engine;
use bench::{
    fig15, fig16, fig17, render_fig15, render_fig16, render_fig17, setup, DEFAULT_FACTOR,
    FIG17_FACTORS,
};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let factor =
        flag_value(&args, "--factor").and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_FACTOR);
    let budget = Duration::from_secs_f64(
        flag_value(&args, "--budget").and_then(|v| v.parse().ok()).unwrap_or(120.0),
    );
    let factors: Vec<f64> = flag_value(&args, "--factors")
        .map(|v| v.split(',').filter_map(|s| s.parse().ok()).collect())
        .unwrap_or_else(|| FIG17_FACTORS.to_vec());

    match cmd {
        "fig15" => run_fig15(factor, budget, flag_value(&args, "--json")),
        "fig16" => run_fig16(factor, budget),
        "fig17" => run_fig17(&factors, budget),
        "stats" => run_stats(factor),
        "rw" => {
            let ops = flag_value(&args, "--ops").and_then(|v| v.parse().ok()).unwrap_or(200);
            let seed = flag_value(&args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(11);
            // Small database: reference reparses after every write stay
            // cheap, and the cache-carry effect on reads is most visible.
            let factor =
                flag_value(&args, "--factor").and_then(|v| v.parse().ok()).unwrap_or(0.0005);
            let fractions: Vec<f64> = flag_value(&args, "--write-fractions")
                .map(|v| v.split(',').filter_map(|s| s.parse().ok()).collect())
                .unwrap_or_else(|| vec![0.05, 0.2, 0.5]);
            let json = flag_value(&args, "--json");
            run_rw(factor, ops, seed, &fractions, json);
        }
        "hotswap" => {
            let threads = flag_value(&args, "--threads").and_then(|v| v.parse().ok()).unwrap_or(4);
            let rounds = flag_value(&args, "--rounds").and_then(|v| v.parse().ok()).unwrap_or(10);
            let factor =
                flag_value(&args, "--factor").and_then(|v| v.parse().ok()).unwrap_or(0.0005);
            let swap_ms = flag_value(&args, "--swap-ms").and_then(|v| v.parse().ok()).unwrap_or(10);
            run_hotswap(
                factor,
                threads,
                rounds,
                Duration::from_millis(swap_ms),
                flag_value(&args, "--json"),
            );
        }
        "lintcheck" => {
            let plans = flag_value(&args, "--plans").and_then(|v| v.parse().ok()).unwrap_or(300);
            let seed = flag_value(&args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(17);
            // Small database: hundreds of plans each execute every subplan
            // and replay a mutation, so per-plan cost must stay tiny.
            let factor =
                flag_value(&args, "--factor").and_then(|v| v.parse().ok()).unwrap_or(0.0005);
            run_lintcheck(factor, plans, seed, flag_value(&args, "--json"));
        }
        "check" => run_check(factor),
        "all" => {
            run_fig15(factor, budget, None);
            println!();
            run_fig16(factor, budget);
            println!();
            run_fig17(&factors, budget);
            println!();
            run_stats(factor);
        }
        other => {
            eprintln!(
                "unknown command {other:?}; use fig15|fig16|fig17|stats|rw|hotswap|lintcheck|check|all"
            );
            std::process::exit(2);
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn run_fig15(factor: f64, budget: Duration, json: Option<&str>) {
    eprintln!("generating XMark factor {factor} ...");
    let db = setup(factor);
    eprintln!("database: {} nodes", db.node_count());
    let rows = fig15(&db, budget);
    print!("{}", render_fig15(&rows, factor));
    if let Some(path) = json {
        write_json(path, &bench::fig15_json(&rows, factor, budget));
    }
}

fn run_fig16(factor: f64, budget: Duration) {
    let db = setup(factor);
    let rows = fig16(&db, budget);
    print!("{}", render_fig16(&rows, factor));
}

fn run_fig17(factors: &[f64], budget: Duration) {
    let rows = fig17(factors, budget);
    print!("{}", render_fig17(&rows, factors));
}

fn write_json(path: &str, doc: &str) {
    match std::fs::write(path, doc) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Mixed read/write streams through the update engine, one per write
/// fraction, every read byte-checked against a reparse-from-scratch
/// reference and every commit followed by a store-invariant check. Exits
/// non-zero on any defect; `--json` writes the machine-readable report.
fn run_rw(factor: f64, ops: usize, seed: u64, fractions: &[f64], json: Option<&str>) {
    eprintln!(
        "generating XMark factor {factor}; {ops} ops at write fractions {fractions:?}, seed {seed} ..."
    );
    let runs = bench::rw::sweep(factor, ops, seed, fractions);
    println!("Mixed read/write streams, XMark factor {factor}, {ops} ops, seed {seed}");
    for run in &runs {
        print!("{}", run.render());
    }
    if let Some(path) = json {
        write_json(path, &bench::rw::sweep_json(factor, ops, seed, &runs));
    }
    let defects: Vec<&bench::rw::RwReport> = runs.iter().filter(|r| !r.clean()).collect();
    if !defects.is_empty() {
        for d in defects {
            eprintln!(
                "rw run FAILED at write fraction {}: {} mismatch(es), {} error(s), {} check failure(s)",
                d.write_fraction, d.mismatches, d.errors, d.check_failures
            );
        }
        std::process::exit(1);
    }
    if runs.iter().all(|r| r.writes == 0 || r.plans_seeded == 0) {
        eprintln!("rw run FAILED: no plan ever carried across a mutation epoch");
        std::process::exit(1);
    }
    println!("rw run clean: every read matched the reparse-from-scratch reference");
}

/// Hot-swap soak: correctness under concurrent snapshot republishes. Any
/// failed request or answer from the wrong snapshot exits non-zero.
fn run_hotswap(
    factor: f64,
    threads: usize,
    rounds: usize,
    swap_every: Duration,
    json: Option<&str>,
) {
    eprintln!(
        "soaking hot swap: XMark factors {factor} / {}, {threads} clients x {rounds} rounds, \
         swap every {swap_every:?} ...",
        factor * 2.0
    );
    let report = bench::concurrent::hot_swap_soak(factor, threads, rounds, swap_every);
    println!("{}", report.summary());
    if let Some(path) = json {
        write_json(path, &bench::concurrent::soak_json(&report, factor, rounds, swap_every));
    }
    if !report.clean() {
        eprintln!(
            "hot swap soak FAILED: {} error(s), {} stale answer(s)",
            report.errors, report.stale
        );
        std::process::exit(1);
    }
    println!("hot swap soak clean: every answer matched its epoch's reference");
}

/// Static-analysis soundness oracle over seeded random plans. Exits
/// non-zero on any violation; `--json` writes the machine-readable report.
fn run_lintcheck(factor: f64, plans: usize, seed: u64, json: Option<&str>) {
    eprintln!("generating XMark factor {factor}; checking {plans} random plans, seed {seed} ...");
    let report = bench::lintcheck::run(factor, plans, seed);
    print!("{}", report.render(factor, seed));
    if let Some(path) = json {
        write_json(path, &report.to_json(factor, seed));
    }
    if !report.clean() {
        eprintln!("lintcheck FAILED: the analyzer made a claim the runtime disproved");
        std::process::exit(1);
    }
    println!("lintcheck clean: {plans} random plans, zero soundness violations");
}

/// Generates XMark data at the given factor and runs the full store
/// invariant check (interval encoding, arena layout, index completeness)
/// over it. Exits non-zero on corruption.
fn run_check(factor: f64) {
    eprintln!("generating XMark factor {factor} ...");
    let db = setup(factor);
    eprintln!("database: {} nodes", db.node_count());
    match xmldb::check_database(&db) {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("store check FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// The redundancy metrics behind the timings: per-query, per-engine
/// ExecStats counters (index probes, nodes inspected, subtrees
/// materialized) — the paper's §4 argument made quantitative.
fn run_stats(factor: f64) {
    let db = setup(factor);
    println!(
        "Execution counters, factor {factor} (probes / nodes inspected / subtrees materialized; NAV: nodes visited)"
    );
    println!("{:<6} {:>28} {:>28} {:>28} {:>12}", "query", "TLC", "GTP", "TAX", "NAV");
    for q in queries::all_queries() {
        let mut cells = Vec::new();
        for engine in [Engine::Tlc, Engine::Gtp, Engine::Tax] {
            let cell = match baselines::plan_for(engine, q.text, &db)
                .and_then(|p| tlc::execute(&db, &p))
            {
                Ok((_, s)) => format!(
                    "{:>8}/{:>12}/{:>6}",
                    s.probes, s.nodes_inspected, s.subtrees_materialized
                ),
                Err(_) => format!("{:>28}", "ERR"),
            };
            cells.push(cell);
        }
        let nav = xquery::parse(q.text)
            .ok()
            .and_then(|ast| baselines::evaluate_nav(&db, &ast).ok())
            .map(|(_, s)| format!("{:>12}", s.nodes_visited))
            .unwrap_or_else(|| format!("{:>12}", "ERR"));
        println!("{:<6} {} {} {} {}", q.name, cells[0], cells[1], cells[2], nav);
    }
}
