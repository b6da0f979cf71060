//! `tlc-serve` — the query service as a process.
//!
//! Loads (or generates) a database, builds a [`service::Service`] around
//! it, and speaks the line protocol of [`service::protocol`] either on
//! stdin/stdout (default) or to any number of concurrent TCP clients:
//!
//! ```text
//! tlc-serve                          # XMark factor 0.05 on stdin/stdout
//! tlc-serve --factor 0.2            # bigger generated database
//! tlc-serve --load site.xml         # serve a document from disk
//! tlc-serve --open b=snap.tlcx      # also register `b` in the catalog
//! tlc-serve --tcp 127.0.0.1:7001    # TCP, one thread per connection
//! tlc-serve --engine gtp --workers 4 --cache 64 --queue 32 --deadline-ms 500
//! ```
//!
//! Requests are one query per line; `.open`/`.use`/`.reload`/`.catalog`
//! drive the database catalog, `.insert`/`.delete`/`.settext` mutate the
//! current database, `.engine`/`.stats`/`.analyze` set this connection's
//! engine and its counters line and operator trace (`--engine` is where
//! every connection starts), `.metrics` prints the metrics report, `.quit`
//! ends the connection (see `service::protocol`). In TCP mode the process
//! runs until killed.
//! The generated or `--load`ed database is catalog entry `main`; every
//! `--open NAME=FILE` (repeatable) registers another. With
//! `--manifest FILE` the catalog (every database with a reload source,
//! plus its epoch) is written to FILE after startup and after each
//! connection closes, and restored from it on the next start.

use service::{manifest, protocol, Service, ServiceConfig};
use std::io::{BufReader, BufWriter};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Options {
    factor: f64,
    load: Option<String>,
    open: Vec<(String, String)>,
    manifest: Option<String>,
    tcp: Option<String>,
    config: ServiceConfig,
}

/// Serializes manifest writes (TCP connection threads race otherwise)
/// and remembers where to write. `None` path disables persistence.
struct ManifestKeeper {
    path: Option<PathBuf>,
    lock: Mutex<()>,
}

impl ManifestKeeper {
    fn save(&self, service: &Service) {
        let Some(path) = &self.path else { return };
        let _guard = self.lock.lock().unwrap();
        if let Err(e) = manifest::save(path, &service.databases()) {
            eprintln!("tlc-serve: manifest {}: {e}", path.display());
        }
    }

    fn restore(&self, service: &Service) {
        let Some(path) = &self.path else { return };
        if !path.exists() {
            return;
        }
        match manifest::load(path) {
            Ok(entries) => {
                let (restored, failures) = manifest::restore(service, &entries);
                if restored > 0 {
                    eprintln!("tlc-serve: restored {restored} database(s) from manifest");
                }
                for failure in failures {
                    eprintln!("tlc-serve: manifest restore: {failure}");
                }
            }
            Err(e) => eprintln!("tlc-serve: manifest {}: {e}", path.display()),
        }
    }
}

const USAGE: &str = "usage: tlc-serve [OPTIONS]

  --factor F        generate an XMark database at scale factor F (default 0.05)
  --load FILE       serve FILE (registered as document(\"auction.xml\")) instead
  --open NAME=FILE  register FILE (TLCX snapshot or XML) as catalog database
                    NAME; repeatable
  --manifest FILE   persist the catalog (every sourced database + epoch) to
                    FILE and restore it at startup
  --tcp ADDR        listen on ADDR (e.g. 127.0.0.1:7001) instead of stdin
  --engine NAME     tlc | opt | costed | gtp | tax | nav (default tlc)
  --workers N       executor threads
  --queue N         admission queue depth
  --cache N         plan cache capacity in entries
  --match-cache-mb N  pattern-match cache byte budget in MiB (0 disables;
                    default 32)
  --deadline-ms N   default per-request wall-clock budget
  --client-wait-ms N  max time a connection waits for a reply before
                    abandoning it (default: wait forever)
  --help            this text";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        factor: 0.05,
        load: None,
        open: Vec::new(),
        manifest: None,
        tcp: None,
        config: ServiceConfig::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--factor" => {
                opts.factor = value("--factor")?.parse().map_err(|e| format!("--factor: {e}"))?
            }
            "--load" => opts.load = Some(value("--load")?),
            "--open" => {
                let spec = value("--open")?;
                let (name, file) =
                    spec.split_once('=').ok_or(format!("--open wants NAME=FILE, got {spec:?}"))?;
                opts.open.push((name.to_string(), file.to_string()));
            }
            "--manifest" => opts.manifest = Some(value("--manifest")?),
            "--tcp" => opts.tcp = Some(value("--tcp")?),
            "--engine" => {
                opts.config.engine = value("--engine")?.parse()?;
            }
            "--workers" => {
                opts.config.workers =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                opts.config.queue_depth =
                    value("--queue")?.parse().map_err(|e| format!("--queue: {e}"))?
            }
            "--cache" => {
                opts.config.plan_cache_capacity =
                    value("--cache")?.parse().map_err(|e| format!("--cache: {e}"))?
            }
            "--match-cache-mb" => {
                let mb: usize = value("--match-cache-mb")?
                    .parse()
                    .map_err(|e| format!("--match-cache-mb: {e}"))?;
                opts.config.match_cache_bytes = mb << 20;
            }
            "--deadline-ms" => {
                let ms: u64 =
                    value("--deadline-ms")?.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
                opts.config.default_deadline = Some(Duration::from_millis(ms));
            }
            "--client-wait-ms" => {
                let ms: u64 = value("--client-wait-ms")?
                    .parse()
                    .map_err(|e| format!("--client-wait-ms: {e}"))?;
                opts.config.client_wait = Some(Duration::from_millis(ms));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(opts)
}

fn build_database(opts: &Options) -> Result<xmldb::Database, String> {
    match &opts.load {
        // Snapshot or XML, decided by content — same loader `.open` uses.
        Some(path) => xmldb::load_path(Path::new(path)).map_err(|e| format!("{path}: {e}")),
        None => Ok(xmark::auction_database(opts.factor)),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("tlc-serve: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let db = match build_database(&opts) {
        Ok(db) => Arc::new(db),
        Err(msg) => {
            eprintln!("tlc-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let engine = opts.config.engine;
    let keeper = Arc::new(ManifestKeeper {
        path: opts.manifest.as_ref().map(PathBuf::from),
        lock: Mutex::new(()),
    });
    let service = Arc::new(Service::new(db, opts.config));
    // Manifest first, explicit --open flags second: a flag naming a
    // restored database swaps it, so the command line always wins.
    keeper.restore(&service);
    for (name, file) in &opts.open {
        match service.open(name, Path::new(file)) {
            Ok(entry) => eprintln!(
                "tlc-serve: opened {name} from {file} ({} nodes)",
                entry.database().node_count()
            ),
            Err(e) => {
                eprintln!("tlc-serve: --open {name}={file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "tlc-serve: engine {}, {} workers, {} nodes loaded, {} database(s)",
        engine.name(),
        service.workers(),
        service.database().node_count(),
        service.databases().len(),
    );
    keeper.save(&service);

    match &opts.tcp {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut reader = stdin.lock();
            let mut writer = BufWriter::new(stdout.lock());
            let outcome = protocol::serve_connection(&service, &mut reader, &mut writer);
            keeper.save(&service);
            match outcome {
                Ok(served) => {
                    eprintln!("tlc-serve: served {served} queries");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("tlc-serve: io error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(addr) => {
            let listener = match TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("tlc-serve: bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("tlc-serve: listening on {addr}");
            // One thread per connection; the worker pool bounds actual
            // execution concurrency, so connections are cheap.
            let mut next_id = 0u64;
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("tlc-serve: accept: {e}");
                        continue;
                    }
                };
                let service = Arc::clone(&service);
                let keeper = Arc::clone(&keeper);
                let id = next_id;
                next_id += 1;
                let spawned = std::thread::Builder::new()
                    .name(format!("tlc-serve-conn-{id}"))
                    .spawn(move || {
                        let peer = stream.peer_addr().ok();
                        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                        let mut writer = BufWriter::new(stream);
                        match protocol::serve_connection(&service, &mut reader, &mut writer) {
                            Ok(served) => {
                                eprintln!("tlc-serve: {peer:?} served {served} queries")
                            }
                            Err(e) => eprintln!("tlc-serve: {peer:?} io error: {e}"),
                        }
                        // The connection may have opened/reloaded/updated
                        // databases; snapshot the catalog it left behind.
                        keeper.save(&service);
                    });
                if let Err(e) = spawned {
                    eprintln!("tlc-serve: spawn: {e}");
                }
            }
            ExitCode::SUCCESS
        }
    }
}
