//! `tlc-shell` — an interactive console for the TLC reproduction.
//!
//! ```text
//! tlc-shell [--factor F | --load FILE.xml | --db FILE.tlcx]
//!           [--engine tlc|opt|gtp|tax|nav]
//! tlc-shell --connect HOST:PORT        # client for a running tlc-serve
//! ```
//!
//! Type a query (multi-line; finish with an empty line or `;`), or one of
//! the commands:
//!
//! ```text
//! .engine tlc|opt|costed|gtp|tax|nav  switch evaluator
//! .explain [<query>]            toggle plan display, or print the static
//!                               analysis report (type, footprint, liveness,
//!                               lints) for one query without running it
//! .stats                        toggle execution counters
//! .analyze                      toggle per-operator timings
//! .bench <name>                 run a Figure 15 workload query by name
//! .queries                      list the workload queries
//! .open <name> <file>           load a snapshot/XML as catalog database <name>
//! .use <name>                   switch the shell to a catalog database
//! .reload [<name>]              re-read a database's file and hot-swap it
//! .drop <name>                  unregister a catalog database
//! .catalog                      list the registered databases
//! .check                        verify store invariants and indexes
//! .insert <doc> <parent-ord> <xml>  append a parsed fragment under a node
//! .delete <doc> <ord>           delete a subtree
//! .settext <doc> <ord> [<text>] replace an element's text content
//! .save <file.tlcx>             snapshot the current database to disk
//! .serve <addr>                 share this database over TCP (tlc-serve protocol)
//! .help  .quit
//! ```
//!
//! The startup database (generated, `--load`ed, or `--db` snapshot) is
//! catalog entry `main`; queries and `.check`/`.save`/`.serve` act on
//! whichever database the shell is currently `.use`-ing.
//!
//! With `--connect` the shell sends each query line to a `tlc-serve`
//! process instead of evaluating locally; `.metrics` fetches the server's
//! metrics report and the catalog commands drive the server's catalog.

use baselines::Engine;
use service::catalog::{self, Catalog, DEFAULT_DB};
use std::io::{BufRead, Write};
use std::sync::Arc;

struct Shell {
    catalog: Catalog,
    current: String,
    engine: Engine,
    explain: bool,
    stats: bool,
    analyze: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(addr) = flag(&args, "--connect") {
        std::process::exit(client(addr));
    }
    let engine = flag(&args, "--engine").map(parse_engine).unwrap_or(Engine::Tlc);
    let db = if let Some(file) = flag(&args, "--db") {
        match xmldb::load_file(std::path::Path::new(file)) {
            Ok(db) => {
                eprintln!("loaded snapshot {file}: {} nodes", db.node_count());
                db
            }
            Err(e) => {
                eprintln!("cannot load snapshot {file}: {e}");
                std::process::exit(1);
            }
        }
    } else if let Some(file) = flag(&args, "--load") {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("cannot read {file}: {e}");
            std::process::exit(1);
        });
        let mut db = xmldb::Database::new();
        if let Err(e) = db.load_xml("auction.xml", &text) {
            eprintln!("cannot parse {file}: {e}");
            std::process::exit(1);
        }
        eprintln!("loaded {file} as document(\"auction.xml\"): {} nodes", db.node_count());
        db
    } else {
        let factor: f64 = flag(&args, "--factor").and_then(|f| f.parse().ok()).unwrap_or(0.01);
        eprintln!("generating XMark data at factor {factor} ...");
        let db = xmark::auction_database(factor);
        eprintln!("document(\"auction.xml\"): {} nodes", db.node_count());
        db
    };

    let shell_catalog = Catalog::new();
    shell_catalog.register(DEFAULT_DB, Arc::new(db)).expect("default name is valid");
    let mut shell = Shell {
        catalog: shell_catalog,
        current: DEFAULT_DB.to_string(),
        engine,
        explain: false,
        stats: false,
        analyze: false,
    };
    eprintln!("engine: {} — type .help for commands", shell.engine.name());

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            if shell.current == DEFAULT_DB {
                eprint!("tlc> ");
            } else {
                eprint!("tlc:{}> ", shell.current);
            }
        } else {
            eprint!("...> ");
        }
        std::io::stderr().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            if !shell.command(trimmed) {
                break;
            }
            continue;
        }
        if trimmed.is_empty() || trimmed.ends_with(';') {
            buffer.push_str(trimmed.trim_end_matches(';'));
            let query = buffer.trim().to_string();
            buffer.clear();
            if !query.is_empty() {
                shell.run(&query);
            }
            continue;
        }
        buffer.push_str(&line);
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Client mode: forward query lines to a running `tlc-serve` and print the
/// framed responses. Returns the process exit code.
fn client(addr: &str) -> i32 {
    use service::protocol::{read_response, Frame};
    let stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return 1;
        }
    };
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot clone connection: {e}");
            return 1;
        }
    });
    let mut writer = stream;
    eprintln!("connected to {addr}; one query per line, .metrics for the report, .quit to leave");
    let stdin = std::io::stdin();
    loop {
        eprint!("tlc@{addr}> ");
        std::io::stderr().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => {
                let _ = writer.write_all(b".quit\n");
                return 0;
            }
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if writer
            .write_all(format!("{trimmed}\n").as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            eprintln!("connection lost");
            return 1;
        }
        if trimmed == ".quit" {
            return 0;
        }
        match read_response(&mut reader) {
            Ok(Frame::Ok(payload)) => println!("{payload}"),
            Ok(Frame::Err(message)) => println!("error: {message}"),
            Err(e) => {
                eprintln!("connection lost: {e}");
                return 1;
            }
        }
    }
}

/// Splits up to `n` whitespace-separated words off `s`, returning them and
/// the raw (trimmed) remainder — `.insert` fragments and `.settext`
/// payloads may themselves contain spaces, so they must not be word-split.
fn split_words(s: &str, n: usize) -> (Vec<&str>, &str) {
    let mut words = Vec::new();
    let mut rest = s.trim_start();
    while words.len() < n {
        let Some(end) = rest.find(char::is_whitespace) else {
            if !rest.is_empty() {
                words.push(rest);
            }
            return (words, "");
        };
        words.push(&rest[..end]);
        rest = rest[end..].trim_start();
    }
    (words, rest.trim_end())
}

/// Comma-joins `items`, or renders `(none)` for an empty sequence —
/// keeps the `.explain` report's footprint lines readable.
fn parse_engine(s: &str) -> Engine {
    match s.to_ascii_lowercase().as_str() {
        "opt" => Engine::TlcOpt,
        "costed" => Engine::TlcCosted,
        "gtp" => Engine::Gtp,
        "tax" => Engine::Tax,
        "nav" => Engine::Nav,
        _ => Engine::Tlc,
    }
}

impl Shell {
    /// The current database's published snapshot. The shell resolves per
    /// command/query, so a `.reload` is visible immediately.
    fn db(&self) -> Arc<xmldb::Database> {
        let entry = self.catalog.resolve(&self.current).expect("current db is registered");
        Arc::clone(entry.database())
    }

    /// Handles a dot-command; returns false to quit.
    fn command(&mut self, cmd: &str) -> bool {
        let mut parts = cmd.split_whitespace();
        match parts.next().unwrap_or("") {
            ".quit" | ".exit" => return false,
            ".open" => match (parts.next(), parts.next()) {
                (Some(name), Some(file)) => {
                    match self.catalog.open(name, std::path::Path::new(file)) {
                        Ok(entry) => {
                            self.current = name.to_string();
                            println!(
                                "opened {name}: epoch {}, {} document(s), {} nodes",
                                entry.epoch(),
                                entry.database().document_count(),
                                entry.database().node_count()
                            );
                        }
                        Err(e) => println!("error: {e}"),
                    }
                }
                _ => println!("usage: .open <name> <file>"),
            },
            ".use" => match parts.next() {
                Some(name) if self.catalog.contains(name) => {
                    self.current = name.to_string();
                    println!("using {name}");
                }
                Some(name) => println!("error: unknown database {name}"),
                None => println!("usage: .use <name>"),
            },
            ".reload" => {
                let name = parts.next().unwrap_or(&self.current).to_string();
                match self.catalog.reload(&name) {
                    Ok(entry) => println!("reloaded {name}: epoch {}", entry.epoch()),
                    Err(e) => println!("error: {e}"),
                }
            }
            ".drop" => match parts.next() {
                Some(name) if name == self.current => {
                    println!(
                        "error: cannot drop the shell's current database {name:?}; .use another first"
                    );
                }
                Some(name) => match self.catalog.remove(name) {
                    Ok(()) => println!("dropped {name}"),
                    Err(e) => println!("error: {e}"),
                },
                None => println!("usage: .drop <name>"),
            },
            ".catalog" => print!("{}", catalog::render(&self.catalog.list())),
            ".engine" => {
                if let Some(e) = parts.next() {
                    self.engine = parse_engine(e);
                }
                println!("engine: {}", self.engine.name());
            }
            ".explain" => {
                let tail = cmd.strip_prefix(".explain").unwrap_or_default().trim();
                if tail.is_empty() {
                    self.explain = !self.explain;
                    println!("explain: {}", self.explain);
                } else {
                    self.explain_query(tail);
                }
            }
            ".stats" => {
                self.stats = !self.stats;
                println!("stats: {}", self.stats);
            }
            ".analyze" => {
                self.analyze = !self.analyze;
                println!("analyze: {}", self.analyze);
            }
            ".save" => match parts.next() {
                Some(path) => match xmldb::save_file(&self.db(), std::path::Path::new(path)) {
                    Ok(()) => println!("snapshot written to {path}"),
                    Err(e) => println!("error: {e}"),
                },
                None => println!("usage: .save <file.tlcx>"),
            },
            ".check" => match xmldb::check_database(&self.db()) {
                Ok(report) => println!("{report}"),
                Err(e) => println!("error: {e}"),
            },
            ".insert" => {
                let tail = cmd.strip_prefix(".insert").unwrap_or_default();
                let (head, xml) = split_words(tail, 2);
                match (head.as_slice(), xml) {
                    ([doc, parent], xml) if !xml.is_empty() => match parent.parse::<u32>() {
                        Ok(parent) => {
                            self.mutate(doc, |db, d| xmldb::insert_subtree(db, d, parent, xml))
                        }
                        Err(_) => println!("error: parent must be a pre ordinal (u32)"),
                    },
                    _ => println!("usage: .insert <doc> <parent-ord> <xml-fragment>"),
                }
            }
            ".delete" => match (parts.next(), parts.next()) {
                (Some(doc), Some(ord)) => match ord.parse::<u32>() {
                    Ok(pre) => self.mutate(doc, |db, d| xmldb::delete_subtree(db, d, pre)),
                    Err(_) => println!("error: ord must be a pre ordinal (u32)"),
                },
                _ => println!("usage: .delete <doc> <ord>"),
            },
            ".settext" => {
                let tail = cmd.strip_prefix(".settext").unwrap_or_default();
                let (head, text) = split_words(tail, 2);
                match head.as_slice() {
                    [doc, ord] => match ord.parse::<u32>() {
                        Ok(pre) => self.mutate(doc, |db, d| xmldb::set_text(db, d, pre, text)),
                        Err(_) => println!("error: ord must be a pre ordinal (u32)"),
                    },
                    _ => println!("usage: .settext <doc> <ord> [<text>]"),
                }
            }
            ".queries" => {
                for q in queries::all_queries() {
                    println!("{:<6} {}", q.name, q.comment);
                }
            }
            ".bench" => match parts.next().and_then(queries::query) {
                Some(q) => self.run(q.text),
                None => println!("usage: .bench <x1..x20|Q1|Q2|x10a>"),
            },
            ".serve" => match parts.next() {
                Some(addr) => self.serve(addr),
                None => println!("usage: .serve <host:port>"),
            },
            ".help" => {
                println!(
                    ".engine tlc|opt|costed|gtp|tax|nav  switch evaluator\n\
                     .explain [<query>]            toggle plan display, or analyze a query\n\
                     .stats                        toggle execution counters\n\
                     .analyze                      toggle per-operator timings\n\
                     .bench <name>                 run a workload query\n\
                     .queries                      list workload queries\n\
                     .open <name> <file>           load snapshot/XML as database <name>\n\
                     .use <name>                   switch to a catalog database\n\
                     .reload [<name>]              re-read a database's file, hot-swap\n\
                     .drop <name>                  unregister a catalog database\n\
                     .catalog                      list registered databases\n\
                     .check                        verify store invariants and indexes\n\
                     .insert <doc> <parent-ord> <xml>  append a fragment under a node\n\
                     .delete <doc> <ord>           delete a subtree\n\
                     .settext <doc> <ord> [<text>] replace an element's text\n\
                     .save <file.tlcx>             snapshot the current database\n\
                     .serve <host:port>            share this database over TCP\n\
                     .quit                         leave"
                );
            }
            other => println!("unknown command {other}; try .help"),
        }
        true
    }

    /// Copy-on-write mutation of the current database: clone the published
    /// snapshot, apply `op` to document `doc` in the clone, publish it as
    /// the next epoch. A concurrent `.serve` reader mid-query keeps the
    /// snapshot it pinned; the next resolve sees the new one.
    fn mutate(
        &self,
        doc: &str,
        op: impl FnOnce(&mut xmldb::Database, xmldb::DocId) -> xmldb::Result<xmldb::UpdateSummary>,
    ) {
        let mut next: xmldb::Database = (*self.db()).clone();
        let result = next.document_by_name(doc).and_then(|d| op(&mut next, d));
        match result {
            Ok(summary) => match self.catalog.register(&self.current, Arc::new(next)) {
                Ok(entry) => {
                    let renumbered = if summary.renumbered > 0 {
                        format!(", {} node(s) renumbered", summary.renumbered)
                    } else {
                        String::new()
                    };
                    println!(
                        "updated {}: epoch {}, +{}/-{} node(s){renumbered}",
                        self.current,
                        entry.epoch(),
                        summary.nodes_added,
                        summary.nodes_removed
                    );
                }
                Err(e) => println!("error: {e}"),
            },
            Err(e) => println!("error: {e}"),
        }
    }

    /// Shares this shell's database over TCP in the background; the local
    /// prompt stays usable (both sides read the same immutable store).
    fn serve(&self, addr: &str) {
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                println!("error: cannot bind {addr}: {e}");
                return;
            }
        };
        let config = service::ServiceConfig { engine: self.engine, ..Default::default() };
        let svc = Arc::new(service::Service::new(self.db(), config));
        println!(
            "serving on {addr} (engine {}, {} workers) — connect with: tlc-shell --connect {addr}",
            self.engine.name(),
            svc.workers()
        );
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else { return };
                    let mut reader = std::io::BufReader::new(read_half);
                    let mut writer = std::io::BufWriter::new(stream);
                    let _ = service::protocol::serve_connection(&svc, &mut reader, &mut writer);
                });
            }
        });
    }

    /// Prints the static analysis report for `query` — typed plan, read
    /// footprint, liveness-pruning outcome and lint warnings — without
    /// executing it: the server's `.explain <query>` report
    /// ([`service::explain`]).
    fn explain_query(&self, query: &str) {
        match service::explain(self.engine, &self.db(), query) {
            Ok(report) => print!("{}", report.text),
            Err(service::ServiceError::Compile(e)) => println!("error: {e}"),
            Err(service::ServiceError::Unsupported(m)) => println!("error: {m}"),
            Err(e) => println!("error: {e}"),
        }
    }

    fn run(&mut self, query: &str) {
        let started = std::time::Instant::now();
        // Pin the current snapshot for the whole run; a concurrent `.serve`
        // client reloading mid-query cannot pull the store out from under us.
        let db = self.db();
        if self.engine == Engine::Nav {
            match xquery::parse(query) {
                Ok(ast) => match baselines::evaluate_nav(&db, &ast) {
                    Ok((out, stats)) => {
                        println!("{out}");
                        if self.stats {
                            println!(
                                "-- {} nodes visited, {} tuples, {:?}",
                                stats.nodes_visited,
                                stats.tuples,
                                started.elapsed()
                            );
                        }
                    }
                    Err(e) => println!("error: {e}"),
                },
                Err(e) => println!("error: {e}"),
            }
            return;
        }
        match baselines::plan_for(self.engine, query, &db) {
            Ok(plan) => {
                if self.explain {
                    println!("{}", plan.display(Some(&db)));
                }
                if self.analyze {
                    match tlc::execute_traced(&db, &plan) {
                        Ok((trees, _, traces)) => {
                            println!("{}", tlc::serialize_results(&db, &trees));
                            println!("{}", tlc::render_trace(&traces));
                        }
                        Err(e) => println!("error: {e}"),
                    }
                    return;
                }
                match tlc::execute(&db, &plan) {
                    Ok((trees, stats)) => {
                        println!("{}", tlc::serialize_results(&db, &trees));
                        if self.stats {
                            println!(
                                "-- {} tree(s), {} pattern matches, {} probes, {} nodes inspected, \
                                 {} candidate fetches, {} structural-join comparisons, {:?}",
                                trees.len(),
                                stats.pattern_matches,
                                stats.probes,
                                stats.nodes_inspected,
                                stats.candidate_fetches,
                                stats.struct_cmps,
                                started.elapsed()
                            );
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
}
