#![warn(missing_docs)]

//! # bench — the evaluation harness (paper §6)
//!
//! Regenerates every table and figure of the paper's evaluation section:
//!
//! * [`fig15`] — the Figure 15 table: execution time of x1…x20, Q1, Q2 and
//!   x10a under NAV / TAX / GTP / TLC.
//! * [`fig16`] — the Figure 16 chart: plain TLC plans vs OPT plans (Flatten
//!   and Shadow/Illuminate rewrites) for x3, x5, Q1, Q2.
//! * [`fig17`] — the Figure 17 chart: scalability of x3, x5, x13, Q1, Q2
//!   over a sweep of XMark scale factors.
//!
//! Measurement follows the paper's protocol: each query runs five times,
//! the highest and lowest times are dropped, and the remaining three are
//! averaged (§6, footnote 6). A configurable time budget stands in for the
//! paper's 10-minute DNF cut-off.
//!
//! The same functions back both the `experiments` binary (paper-style
//! tables on stdout) and the timed bench targets (see [`micro`]).

pub mod concurrent;
pub mod lintcheck;
pub mod micro;
pub mod rw;

use baselines::Engine;
use queries::{all_queries, query, QuerySpec};
use std::time::{Duration, Instant};
use xmldb::Database;

/// Default scale factor for the Figure 15/16 runs. The paper uses XMark
/// factor 1 (~710 MB in TIMBER); this in-memory reproduction defaults to a
/// smaller factor and reports the *shape* of the comparison (see DESIGN.md
/// §5 and EXPERIMENTS.md).
pub const DEFAULT_FACTOR: f64 = 0.05;

/// The Figure 17 sweep (the paper sweeps 0.1–5).
pub const FIG17_FACTORS: [f64; 6] = [0.005, 0.01, 0.025, 0.05, 0.1, 0.25];

/// Builds the benchmark database at a scale factor.
pub fn setup(factor: f64) -> Database {
    xmark::auction_database(factor)
}

/// Outcome of one measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measurement {
    /// Trimmed-mean-of-five execution time.
    Time(Duration),
    /// Exceeded the time budget ("DNF" in Figure 15).
    DidNotFinish,
    /// The engine could not run the query.
    Failed,
}

impl Measurement {
    /// Seconds, if finished.
    pub fn secs(&self) -> Option<f64> {
        match self {
            Measurement::Time(d) => Some(d.as_secs_f64()),
            _ => None,
        }
    }

    /// Table cell rendering.
    pub fn cell(&self) -> String {
        match self {
            Measurement::Time(d) => format!("{:>9.4}", d.as_secs_f64()),
            Measurement::DidNotFinish => format!("{:>9}", "DNF"),
            Measurement::Failed => format!("{:>9}", "ERR"),
        }
    }
}

/// Runs one query on one engine with the paper's trimmed-mean-of-5 protocol.
/// If a single run exceeds `budget`, reports [`Measurement::DidNotFinish`].
pub fn measure(db: &Database, spec: &QuerySpec, engine: Engine, budget: Duration) -> Measurement {
    // Warm-up / budget probe.
    let start = Instant::now();
    if baselines::run(engine, spec.text, db).is_err() {
        return Measurement::Failed;
    }
    let probe = start.elapsed();
    if probe > budget {
        return Measurement::DidNotFinish;
    }
    // Five timed runs, trim the extremes, average the rest.
    let runs = 5;
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        let _ = baselines::run(engine, spec.text, db);
        times.push(t.elapsed());
    }
    times.sort_unstable();
    let kept = &times[1..runs - 1];
    let total: Duration = kept.iter().sum();
    Measurement::Time(total / kept.len() as u32)
}

/// One row of the Figure 15 table.
#[derive(Debug, Clone)]
pub struct Fig15Row {
    /// Query name.
    pub name: &'static str,
    /// Figure 15 comment.
    pub comment: &'static str,
    /// TLC, GTP, TAX, NAV times in that order.
    pub cells: [Measurement; 4],
}

/// Runs the Figure 15 experiment.
pub fn fig15(db: &Database, budget: Duration) -> Vec<Fig15Row> {
    all_queries()
        .iter()
        .map(|q| {
            let cells = [
                measure(db, q, Engine::Tlc, budget),
                measure(db, q, Engine::Gtp, budget),
                measure(db, q, Engine::Tax, budget),
                measure(db, q, Engine::Nav, budget),
            ];
            Fig15Row { name: q.name, comment: q.comment, cells }
        })
        .collect()
}

/// One bar group of Figure 16.
#[derive(Debug, Clone)]
pub struct Fig16Row {
    /// Query name.
    pub name: &'static str,
    /// Plain TLC plan time.
    pub tlc: Measurement,
    /// Rewritten (OPT) plan time — the paper's unconditional rewrites.
    pub opt: Measurement,
    /// Cost-guarded rewrites (OPT*, the optimizer extension): applies a
    /// rewrite only when the cost model predicts a win.
    pub costed: Measurement,
}

/// Runs the Figure 16 experiment (rewrites).
pub fn fig16(db: &Database, budget: Duration) -> Vec<Fig16Row> {
    queries::FIG16_QUERIES
        .iter()
        .map(|name| {
            let q = query(name).expect("known query");
            Fig16Row {
                name: q.name,
                tlc: measure(db, q, Engine::Tlc, budget),
                opt: measure(db, q, Engine::TlcOpt, budget),
                costed: measure(db, q, Engine::TlcCosted, budget),
            }
        })
        .collect()
}

/// One line of Figure 17: per-factor TLC times for one query.
#[derive(Debug, Clone)]
pub struct Fig17Row {
    /// Query name.
    pub name: &'static str,
    /// `(factor, time)` series.
    pub series: Vec<(f64, Measurement)>,
}

/// Generates the per-factor databases in parallel (generation dominates the
/// sweep's wall-clock at the larger factors).
pub fn setup_many(factors: &[f64]) -> Vec<(f64, Database)> {
    let mut out: Vec<Option<(f64, Database)>> = factors.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        for (slot, &f) in out.iter_mut().zip(factors) {
            s.spawn(move || {
                *slot = Some((f, setup(f)));
            });
        }
    });
    out.into_iter().map(|o| o.expect("every slot filled")).collect()
}

/// Runs the Figure 17 scalability sweep.
pub fn fig17(factors: &[f64], budget: Duration) -> Vec<Fig17Row> {
    let dbs: Vec<(f64, Database)> = setup_many(factors);
    queries::FIG17_QUERIES
        .iter()
        .map(|name| {
            let q = query(name).expect("known query");
            let series =
                dbs.iter().map(|(f, db)| (*f, measure(db, q, Engine::Tlc, budget))).collect();
            Fig17Row { name: q.name, series }
        })
        .collect()
}

/// Renders the Figure 15 table in the paper's layout.
pub fn render_fig15(rows: &[Fig15Row], factor: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 15 — execution time in seconds, XMark factor {factor} (paper: factor 1)\n"
    ));
    out.push_str(&format!(
        "{:<6} {:>9} {:>9} {:>9} {:>9}  {}\n",
        "query", "TLC", "GTP", "TAX", "NAV", "comments"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<6} {} {} {} {}  {}\n",
            r.name,
            r.cells[0].cell(),
            r.cells[1].cell(),
            r.cells[2].cell(),
            r.cells[3].cell(),
            r.comment
        ));
    }
    out
}

/// One [`Measurement`] as a JSON value: seconds as a number, `"DNF"` or
/// `"ERR"` as a string otherwise.
pub fn measurement_json(m: &Measurement) -> String {
    match m {
        Measurement::Time(d) => format!("{:.6}", d.as_secs_f64()),
        Measurement::DidNotFinish => "\"DNF\"".to_string(),
        Measurement::Failed => "\"ERR\"".to_string(),
    }
}

/// The full `BENCH_fig15.json` document: per-query TLC/GTP/TAX/NAV times.
pub fn fig15_json(rows: &[Fig15Row], factor: f64, budget: Duration) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"query\":\"{}\",\"tlc\":{},\"gtp\":{},\"tax\":{},\"nav\":{}}}",
                r.name,
                measurement_json(&r.cells[0]),
                measurement_json(&r.cells[1]),
                measurement_json(&r.cells[2]),
                measurement_json(&r.cells[3]),
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"fig15\",\"factor\":{factor},\"budget_secs\":{},\
         \"rows\":[{}]}}\n",
        budget.as_secs_f64(),
        rows.join(",")
    )
}

/// Renders the Figure 16 comparison.
pub fn render_fig16(rows: &[Fig16Row], factor: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 16 — plain TLC plan vs OPT (Flatten + Shadow/Illuminate rewrites), factor {factor}\n"
    ));
    out.push_str(&format!(
        "{:<6} {:>9} {:>9} {:>8} {:>9}\n",
        "query", "TLC", "OPT", "speedup", "OPT*"
    ));
    for r in rows {
        let speedup = match (r.tlc.secs(), r.opt.secs()) {
            (Some(a), Some(b)) if b > 0.0 => format!("{:>7.2}x", a / b),
            _ => format!("{:>8}", "-"),
        };
        out.push_str(&format!(
            "{:<6} {} {} {} {}\n",
            r.name,
            r.tlc.cell(),
            r.opt.cell(),
            speedup,
            r.costed.cell()
        ));
    }
    out
}

/// Renders the Figure 17 sweep.
pub fn render_fig17(rows: &[Fig17Row], factors: &[f64]) -> String {
    let mut out = String::new();
    out.push_str("Figure 17 — TLC execution time in seconds over XMark scale factors\n");
    out.push_str(&format!("{:<6}", "query"));
    for f in factors {
        out.push_str(&format!(" {f:>9}"));
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:<6}", r.name));
        for (_, m) in &r.series {
            out.push_str(&format!(" {}", m.cell()));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_time_for_a_quick_query() {
        let db = setup(0.001);
        let q = query("x1").unwrap();
        let m = measure(&db, q, Engine::Tlc, Duration::from_secs(30));
        assert!(matches!(m, Measurement::Time(_)));
    }

    #[test]
    fn tiny_fig15_has_23_rows() {
        let db = setup(0.001);
        let rows = fig15(&db, Duration::from_secs(60));
        assert_eq!(rows.len(), 23);
        for r in &rows {
            for c in &r.cells {
                assert!(!matches!(c, Measurement::Failed), "{} failed: {:?}", r.name, r.cells);
            }
        }
        let table = render_fig15(&rows, 0.001);
        assert!(table.contains("x10a"));
    }

    #[test]
    fn fig16_rows_cover_the_rewritable_set() {
        let db = setup(0.001);
        let rows = fig16(&db, Duration::from_secs(60));
        assert_eq!(rows.len(), 4);
        let rendered = render_fig16(&rows, 0.001);
        assert!(rendered.contains("speedup"));
    }
}
