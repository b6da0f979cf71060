//! `tlc-shell` — an interactive console for the TLC reproduction.
//!
//! ```text
//! tlc-shell [--factor F | --load FILE] [--engine tlc|opt|costed|gtp|tax|nav]
//! tlc-shell --connect HOST:PORT        # client for a running tlc-serve
//! ```
//!
//! `--load` accepts a TLCX snapshot or an XML file (chosen by content, as
//! `tlc-serve --load` and `.open` do); without it an XMark database is
//! generated at `--factor` (default 0.01).
//!
//! Type a query (multi-line; finish with an empty line or `;`), or one of
//! the commands:
//!
//! ```text
//! .engine tlc|opt|costed|gtp|tax|nav  switch the prompt's evaluator
//! .explain [<query>]            toggle plan display, or print the static
//!                               analysis report (type, footprint, liveness,
//!                               lints) for one query without running it
//! .stats                        toggle execution counters
//! .analyze                      toggle per-operator timings
//! .bench <name>                 run a Figure 15 workload query by name
//! .queries                      list the workload queries
//! .check                        verify store invariants and indexes
//! .save <file.tlcx>             snapshot the current database to disk
//! .serve <addr>                 share the catalog over TCP (tlc-serve protocol)
//! .help  .quit
//! ```
//!
//! The catalog and update commands — `.open .use .reload .drop .catalog
//! .insert .delete .settext .metrics` — are the query service's own: the
//! shell builds one in-process [`service::Service`] at startup and answers
//! them through a [`service::protocol::Session`] on it, exactly as
//! `tlc-serve` answers a connection. The startup database is catalog entry
//! `main`. Queries evaluate locally on the session's current snapshot with
//! the shell's engine (the single-threaded reference path), so `.engine`,
//! `.explain`, `.stats` and `.analyze` apply to them; they never reach the
//! service, so `.metrics` counts commits and `.serve` traffic, not prompt
//! queries. `.serve` shares that
//! same service, served with the startup engine: the prompt and every
//! connection see one catalog and each other's commits.
//!
//! With `--connect` the same prompt sends every request to a `tlc-serve`
//! process instead (a multi-line query is joined into one line) and prints
//! its replies.

use baselines::Engine;
use service::catalog::DEFAULT_DB;
use service::protocol::{read_response, Frame, Session};
use service::{Service, ServiceConfig};
use std::io::{self, BufRead, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match flag(&args, "--connect") {
        Some(addr) => Remote::connect(addr).map(repl),
        None => Local::start(&args).map(repl),
    };
    std::process::exit(code.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        1
    }));
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn print_frame(frame: Frame) {
    match frame {
        Frame::Ok(payload) if payload.ends_with('\n') => print!("{payload}"),
        Frame::Ok(payload) => println!("{payload}"),
        Frame::Err(message) => println!("error: {message}"),
    }
}

/// What the prompt drives: the in-process service, or a remote `tlc-serve`.
trait Backend {
    /// The prompt shown before a new request.
    fn prompt(&self) -> String;
    /// Handles one dot-command other than `.quit`.
    fn command(&mut self, cmd: &str) -> io::Result<()>;
    /// Runs one query (possibly spanning lines).
    fn query(&mut self, query: &str) -> io::Result<()>;
    /// Called once when the prompt ends, on `.quit` or end of input.
    fn quit(&mut self) {}
}

/// The read-eval-print loop: prompt, multi-line query buffering and
/// `.quit`. End of input ends a pending query, like an empty line.
/// Returns the process exit code; an I/O error from the backend (a lost
/// connection) ends the loop with 1.
fn repl(mut backend: impl Backend) -> i32 {
    let stdin = io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            eprint!("{}", backend.prompt());
        } else {
            eprint!("...> ");
        }
        io::stderr().flush().ok();
        let mut line = String::new();
        let eof = !matches!(stdin.lock().read_line(&mut line), Ok(n) if n > 0);
        if eof && buffer.trim().is_empty() {
            break;
        }
        let trimmed = line.trim();
        let outcome = if buffer.is_empty() && trimmed.starts_with('.') {
            if matches!(trimmed, ".quit" | ".exit") {
                break;
            }
            backend.command(trimmed)
        } else if trimmed.is_empty() || trimmed.ends_with(';') {
            buffer.push_str(trimmed.trim_end_matches(';'));
            let query = std::mem::take(&mut buffer);
            match query.trim() {
                "" => continue,
                query => backend.query(query),
            }
        } else {
            buffer.push_str(&line);
            continue;
        };
        if let Err(e) = outcome {
            eprintln!("connection lost: {e}");
            return 1;
        }
        if eof {
            break;
        }
    }
    backend.quit();
    0
}

/// Client mode: every request goes to a running `tlc-serve`.
struct Remote {
    addr: String,
    reader: io::BufReader<TcpStream>,
    writer: TcpStream,
}

impl Remote {
    fn connect(addr: &str) -> Result<Remote, String> {
        let cannot = |e: io::Error| format!("cannot connect to {addr}: {e}");
        let writer = TcpStream::connect(addr).map_err(cannot)?;
        let reader = io::BufReader::new(writer.try_clone().map_err(cannot)?);
        eprintln!("connected to {addr}; queries end with `;` or an empty line, .quit to leave");
        Ok(Remote { addr: addr.to_string(), reader, writer })
    }

    /// Sends one request line and prints the reply frame.
    fn request(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()?;
        print_frame(read_response(&mut self.reader)?);
        Ok(())
    }
}

impl Backend for Remote {
    fn prompt(&self) -> String {
        format!("tlc@{}> ", self.addr)
    }

    fn command(&mut self, cmd: &str) -> io::Result<()> {
        self.request(cmd)
    }

    fn query(&mut self, query: &str) -> io::Result<()> {
        self.request(&query.replace(['\n', '\r'], " "))
    }

    fn quit(&mut self) {
        let _ = self.writer.write_all(b".quit\n");
    }
}

/// Local mode: one in-process service, shared with `.serve`.
struct Local {
    session: Session,
    engine: Engine,
    explain: bool,
    stats: bool,
    analyze: bool,
}

impl Local {
    /// Loads or generates the startup database and builds the service.
    fn start(args: &[String]) -> Result<Local, String> {
        let known = |a: &&String| matches!(a.as_str(), "--factor" | "--load" | "--engine");
        if let Some(bad) = args.iter().step_by(2).find(|a| !known(a)) {
            return Err(format!("unknown flag: {bad}"));
        }
        let engine = match flag(args, "--engine") {
            Some(name) => name.parse()?,
            None => Engine::Tlc,
        };
        let db = match flag(args, "--load") {
            Some(file) => {
                let db = xmldb::load_path(std::path::Path::new(file))
                    .map_err(|e| format!("cannot load {file}: {e}"))?;
                eprintln!(
                    "loaded {file}: {} document(s), {} nodes",
                    db.document_count(),
                    db.node_count()
                );
                db
            }
            None => {
                let factor: f64 =
                    flag(args, "--factor").and_then(|f| f.parse().ok()).unwrap_or(0.01);
                eprintln!("generating XMark data at factor {factor} ...");
                let db = xmark::auction_database(factor);
                eprintln!("document(\"auction.xml\"): {} nodes", db.node_count());
                db
            }
        };
        let config = ServiceConfig { engine, ..Default::default() };
        let service = Arc::new(Service::new(Arc::new(db), config));
        eprintln!("engine: {} — type .help for commands", engine.name());
        Ok(Local {
            session: Session::new(service),
            engine,
            explain: false,
            stats: false,
            analyze: false,
        })
    }

    /// The session's current snapshot, resolved per command so every
    /// commit (local or from a `.serve` client) is visible at once.
    fn db(&self) -> Option<Arc<xmldb::Database>> {
        match self.session.service().entry(self.session.current()) {
            Ok(entry) => Some(Arc::clone(entry.database())),
            Err(e) => {
                println!("error: {e}");
                None
            }
        }
    }

    /// Shares the shell's service over TCP in the background; the local
    /// prompt stays usable.
    fn serve(&self, addr: &str) {
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                println!("error: cannot bind {addr}: {e}");
                return;
            }
        };
        let svc = Arc::clone(self.session.service());
        println!(
            "serving on {addr} (engine {}, {} workers) — connect with: tlc-shell --connect {addr}",
            svc.engine().name(),
            svc.workers()
        );
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else { return };
                    let mut reader = io::BufReader::new(read_half);
                    let mut writer = io::BufWriter::new(stream);
                    let _ = service::protocol::serve_connection(&svc, &mut reader, &mut writer);
                });
            }
        });
    }
}

impl Backend for Local {
    fn prompt(&self) -> String {
        match self.session.current() {
            DEFAULT_DB => "tlc> ".to_string(),
            current => format!("tlc:{current}> "),
        }
    }

    fn command(&mut self, cmd: &str) -> io::Result<()> {
        let mut parts = cmd.split_whitespace();
        match parts.next().unwrap_or("") {
            ".engine" => match parts.next().map(str::parse) {
                Some(Err(e)) => println!("error: {e}"),
                choice => {
                    if let Some(Ok(engine)) = choice {
                        self.engine = engine;
                    }
                    println!("engine: {}", self.engine.name());
                }
            },
            ".explain" => match cmd[".explain".len()..].trim() {
                "" => {
                    self.explain = !self.explain;
                    println!("explain: {}", self.explain);
                }
                // The server's `.explain <query>` report, with the shell's engine.
                query => match self.db().map(|db| service::explain(self.engine, &db, query)) {
                    Some(Ok(report)) => print!("{}", report.text),
                    Some(Err(e)) => println!("error: {e}"),
                    None => {}
                },
            },
            ".stats" => {
                self.stats = !self.stats;
                println!("stats: {}", self.stats);
            }
            ".analyze" => {
                self.analyze = !self.analyze;
                println!("analyze: {}", self.analyze);
            }
            ".save" => match (parts.next(), self.db()) {
                (Some(path), Some(db)) => match xmldb::save_file(&db, std::path::Path::new(path)) {
                    Ok(()) => println!("snapshot written to {path}"),
                    Err(e) => println!("error: {e}"),
                },
                (None, _) => println!("usage: .save <file.tlcx>"),
                (Some(_), None) => {}
            },
            ".check" => {
                if let Some(db) = self.db() {
                    match xmldb::check_database(&db) {
                        Ok(report) => println!("{report}"),
                        Err(e) => println!("error: {e}"),
                    }
                }
            }
            ".queries" => {
                for q in queries::all_queries() {
                    println!("{:<6} {}", q.name, q.comment);
                }
            }
            ".bench" => match parts.next().and_then(queries::query) {
                Some(q) => self.query(q.text)?,
                None => println!("usage: .bench <x1..x20|Q1|Q2|x10a>"),
            },
            ".serve" => match parts.next() {
                Some(addr) => self.serve(addr),
                None => println!("usage: .serve <host:port>"),
            },
            ".help" => {
                println!(
                    ".engine tlc|opt|costed|gtp|tax|nav  switch the prompt's evaluator\n\
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
                     .metrics                      the service's metrics: commits and\n\
                     \x20                             .serve traffic, not prompt queries\n\
                     .save <file.tlcx>             snapshot the current database\n\
                     .serve <host:port>            share the catalog over TCP, served\n\
                     \x20                             with the startup engine\n\
                     .quit                         leave"
                );
            }
            _ => {
                if let ControlFlow::Continue(frame) | ControlFlow::Break(Some(frame)) =
                    self.session.answer(cmd)
                {
                    print_frame(frame);
                }
            }
        }
        Ok(())
    }

    fn query(&mut self, query: &str) -> io::Result<()> {
        let started = std::time::Instant::now();
        // Pin the current snapshot for the whole run; a commit or reload
        // mid-query cannot pull the store out from under us.
        let Some(db) = self.db() else { return Ok(()) };
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
            return Ok(());
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
                    return Ok(());
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
        Ok(())
    }
}
