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
//! Type a query (multi-line; finish with an empty line or `;`; the lines
//! are joined into one request), or one of the commands:
//!
//! ```text
//! .bench <name>                 run a Figure 15 workload query by name
//! .queries                      list the workload queries
//! .check                        verify store invariants and indexes
//! .save <file.tlcx>             snapshot the current database to disk
//! .serve <addr>                 share the catalog over TCP (tlc-serve protocol)
//! .help  .quit
//! ```
//!
//! Every other line — each query, `.engine`, `.explain <query>`, `.stats`,
//! `.analyze`, and the catalog, update and `.metrics` commands — is the
//! query service's own: the shell builds one in-process
//! [`service::Service`] at startup (with `--engine` as its engine) and
//! answers those lines through a [`service::protocol::Session`] on it,
//! exactly as `tlc-serve` answers a connection. The startup database is
//! catalog entry `main`. So `.metrics` counts prompt queries, and prompt
//! queries warm the caches that commits carry. `.serve` shares that same
//! service: the prompt and every connection see one catalog, one set of
//! caches and each other's commits.
//!
//! With `--connect` the same prompt sends every line to a `tlc-serve`
//! process instead and prints its replies.

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

/// The transport the prompt drives: the in-process service, or a remote
/// `tlc-serve`.
trait Backend {
    /// The prompt shown before a new request.
    fn prompt(&self) -> String;
    /// Sends one request line other than `.quit` and returns its reply.
    fn send(&mut self, line: &str) -> io::Result<Frame>;
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
        let request = if buffer.is_empty() && trimmed.starts_with('.') {
            if matches!(trimmed, ".quit" | ".exit") {
                break;
            }
            trimmed.to_string()
        } else if trimmed.is_empty() || trimmed.ends_with(';') {
            buffer.push_str(trimmed.trim_end_matches(';'));
            let query = std::mem::take(&mut buffer);
            match query.trim() {
                "" => continue,
                query => query.replace(['\n', '\r'], " "),
            }
        } else {
            buffer.push_str(&line);
            continue;
        };
        match backend.send(&request) {
            Ok(frame) => print_frame(frame),
            Err(e) => {
                eprintln!("connection lost: {e}");
                return 1;
            }
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
}

impl Backend for Remote {
    fn prompt(&self) -> String {
        format!("tlc@{}> ", self.addr)
    }

    fn send(&mut self, line: &str) -> io::Result<Frame> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()?;
        read_response(&mut self.reader)
    }

    fn quit(&mut self) {
        let _ = self.writer.write_all(b".quit\n");
    }
}

/// Local mode: one in-process service, shared with `.serve`.
struct Local {
    session: Session,
}

const HELP: &str = "\
.engine [tlc|opt|costed|gtp|tax|nav]  show or switch this session's engine
.explain <query>              the plan, its pruned form, footprint and lints
.stats                        toggle a counters line after each answer
.analyze                      toggle a per-operator trace after each answer
.bench <name>                 run a workload query
.queries                      list workload queries
.open <name> <file>           load snapshot/XML as database <name>
.use <name>                   switch to a catalog database
.reload [<name>]              re-read a database's file, hot-swap
.drop <name>                  unregister a catalog database
.catalog                      list registered databases
.check                        verify store invariants and indexes
.insert <doc> <parent-ord> <xml>  append a fragment under a node
.delete <doc> <ord>           delete a subtree
.settext <doc> <ord> [<text>] replace an element's text
.metrics                      the service's metrics: prompt queries,
                              commits and .serve traffic
.save <file.tlcx>             snapshot the current database
.serve <host:port>            share the catalog over TCP
.quit                         leave";

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
        Ok(Local { session: Session::new(service) })
    }

    /// Runs `f` on the session's current snapshot, resolved per command so
    /// every commit (local or from a `.serve` client) is visible at once.
    fn with_db<E: ToString>(&self, f: impl FnOnce(&xmldb::Database) -> Result<String, E>) -> Frame {
        let result = match self.session.service().entry(self.session.current()) {
            Ok(entry) => f(entry.database()).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        result.map_or_else(Frame::Err, Frame::Ok)
    }

    /// Shares the shell's service over TCP in the background; the local
    /// prompt stays usable.
    fn serve(&self, addr: &str) -> Frame {
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => return Frame::Err(format!("cannot bind {addr}: {e}")),
        };
        let svc = Arc::clone(self.session.service());
        let reply = format!(
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
        Frame::Ok(reply)
    }
}

impl Backend for Local {
    fn prompt(&self) -> String {
        match self.session.current() {
            DEFAULT_DB => "tlc> ".to_string(),
            current => format!("tlc:{current}> "),
        }
    }

    fn send(&mut self, line: &str) -> io::Result<Frame> {
        let mut words = line.split_whitespace();
        let frame = match (words.next().unwrap_or(""), words.next()) {
            (".save", Some(path)) => self.with_db(|db| {
                xmldb::save_file(db, std::path::Path::new(path))
                    .map(|()| format!("snapshot written to {path}"))
            }),
            (".save", None) => Frame::Err("usage: .save <file.tlcx>".into()),
            (".check", _) => self.with_db(|db| xmldb::check_database(db).map(|r| r.to_string())),
            (".queries", _) => Frame::Ok(
                queries::all_queries()
                    .iter()
                    .map(|q| format!("{:<6} {}", q.name, q.comment))
                    .collect::<Vec<_>>()
                    .join("\n"),
            ),
            (".bench", name) => match name.and_then(queries::query) {
                Some(q) => return self.send(q.text),
                None => Frame::Err("usage: .bench <x1..x20|Q1|Q2|x10a>".into()),
            },
            (".serve", Some(addr)) => self.serve(addr),
            (".serve", None) => Frame::Err("usage: .serve <host:port>".into()),
            (".help", _) => Frame::Ok(HELP.into()),
            // `.quit` never gets here: the prompt ends on it.
            _ => match self.session.answer(line) {
                ControlFlow::Continue(frame) | ControlFlow::Break(Some(frame)) => frame,
                ControlFlow::Break(None) => Frame::Ok(String::new()),
            },
        };
        Ok(frame)
    }
}
