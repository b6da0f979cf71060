//! Spans and the traced request path.
//!
//! The service does not expose its internal stages, so the traced pass
//! serves requests through [`Traced`]: the public layer calls the service
//! makes, in the same order and with caches of the same kinds and sizes,
//! each wrapped in a span, run inline on the connection thread. Writes
//! still commit through `Service::apply_update`. Spans carry the request
//! id, their parent and the allocations their thread made meanwhile; they
//! stay in memory until the run ends.

use crate::alloc;
use crate::wire::HELLO;
use crate::workload::DOC;
use service::cache::{self, CachedPlan, LruCache, MatchStore, ScopedMatchCache};
use service::catalog::DEFAULT_DB;
use service::protocol::{write_err, FrameBuf};
use service::{Service, UpdateOp};
use std::io::{self, BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xmldb::Database;

#[derive(Debug, Clone)]
pub struct Span {
    pub rid: u64,
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub start: Duration,
    pub dur: Duration,
    pub allocs: u64,
}

/// Request id: the connection in the high half, its request number below.
pub fn rid(conn: u64, n: u64) -> u64 {
    conn << 32 | n
}

/// Where every thread's spans end up.
#[derive(Default)]
pub struct Collector {
    spans: Mutex<Vec<Span>>,
}

impl Collector {
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock"))
    }
}

/// A span still running.
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    began: Instant,
    allocs: u64,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// One thread's span buffer; hands its spans to the collector when dropped.
pub struct Recorder {
    base: Instant,
    sink: Arc<Collector>,
    spans: Vec<Span>,
    next: u32,
    pub rid: u64,
}

impl Recorder {
    pub fn new(base: Instant, sink: Arc<Collector>) -> Recorder {
        Recorder { base, sink, spans: Vec::new(), next: 1, rid: 0 }
    }

    pub fn open(&mut self, name: &'static str, parent: u32) -> Open {
        let id = self.next;
        self.next += 1;
        Open { id, parent, name, allocs: alloc::thread(), began: Instant::now() }
    }

    pub fn close(&mut self, open: Open) {
        let dur = open.began.elapsed();
        self.spans.push(Span {
            rid: self.rid,
            id: open.id,
            parent: open.parent,
            name: open.name,
            start: open.began - self.base,
            dur,
            allocs: alloc::thread() - open.allocs,
        });
    }

    /// Records an interval measured elsewhere (no allocation count).
    pub fn record(&mut self, name: &'static str, parent: u32, began: Instant, dur: Duration) {
        let id = self.next;
        self.next += 1;
        let start = began - self.base;
        self.spans.push(Span { rid: self.rid, id, parent, name, start, dur, allocs: 0 });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, parent);
        let out = f();
        self.close(open);
        out
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if let Ok(mut all) = self.sink.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}

/// The traced request path: the service's read pipeline composed from its
/// public layers, with a plan cache and match cache of the service's default
/// sizes, and writes committed through the real service.
pub struct Traced {
    svc: Arc<Service>,
    /// The snapshot reads run against, and its epoch.
    current: Mutex<(Arc<Database>, u64)>,
    plans: Mutex<LruCache<CachedPlan>>,
    matches: Arc<MatchStore>,
    base: Instant,
    sink: Arc<Collector>,
}

impl Traced {
    pub fn new(svc: Arc<Service>, base: Instant, sink: Arc<Collector>) -> Traced {
        let defaults = service::ServiceConfig::default();
        Traced {
            current: Mutex::new((svc.database(), 0)),
            svc,
            plans: Mutex::new(LruCache::new(defaults.plan_cache_capacity)),
            matches: Arc::new(MatchStore::new(defaults.match_cache_bytes)),
            base,
            sink,
        }
    }

    /// Serves one connection: queries and the three update commands.
    pub fn serve(
        &self,
        conn: u64,
        reader: &mut impl BufRead,
        writer: &mut impl Write,
    ) -> io::Result<()> {
        let mut rec = Recorder::new(self.base, Arc::clone(&self.sink));
        let mut frame = FrameBuf::new();
        let mut line = String::new();
        let mut n = 0;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            let request = line.trim();
            match request {
                ".quit" => break,
                // The handshake; not a request.
                HELLO => {
                    frame.write_ok(writer, "using main")?;
                    continue;
                }
                _ => {}
            }
            rec.rid = rid(conn, n);
            n += 1;
            let root = rec.open("server.request", 0);
            let reply = match parse_update(request) {
                Some(op) => self.write(&op, &mut rec, root.id()),
                None => self.read(request, &mut rec, root.id()),
            };
            let framing = rec.open("service.protocol.frame", root.id());
            match reply {
                Ok(payload) => frame.write_ok(writer, &payload)?,
                Err(message) => write_err(writer, &message)?,
            }
            rec.close(framing);
            rec.close(root);
        }
        Ok(())
    }

    fn read(&self, query: &str, rec: &mut Recorder, parent: u32) -> Result<String, String> {
        let (db, epoch) = self.current.lock().expect("snapshot lock").clone();
        let key = cache::plan_key(DEFAULT_DB, epoch, &cache::normalize_query(query));
        let hit = self.plans.lock().expect("plan lock").get(&key);
        let cached = match hit {
            Some(cached) => cached,
            None => {
                let ast = rec
                    .span("xquery.parse", parent, || xquery::parse(query))
                    .map_err(|e| format!("compile error: {e}"))?;
                let plan = rec
                    .span("tlc.translate", parent, || tlc::translate(&ast, &db))
                    .map_err(|e| format!("compile error: {e}"))?;
                let plan = rec.span("tlc.analyze", parent, || {
                    tlc::analyze::verify(&plan)?;
                    let _lints = tlc::lint(&plan, &db);
                    let (pruned, report) = tlc::prune_with_report(&plan);
                    Ok::<_, tlc::AnalyzeError>(
                        if report.changed() && tlc::analyze::verify(&pruned).is_ok() {
                            pruned
                        } else {
                            plan
                        },
                    )
                });
                let plan = plan.map_err(|e| format!("compile error: {e}"))?;
                let cached = Arc::new(CachedPlan::new(Arc::new(plan)));
                self.plans.lock().expect("plan lock").insert(&key, Arc::clone(&cached));
                cached
            }
        };
        let lowering = rec.open("tlc.vm.lower", parent);
        let (program, compiled) = cached.program();
        if compiled.is_some() {
            rec.close(lowering);
        }
        let trees = rec
            .span("tlc.exec", parent, || {
                let mut ctx = tlc::ExecCtx::new();
                ctx.cache = Some(Arc::new(ScopedMatchCache::new(
                    Arc::clone(&self.matches),
                    DEFAULT_DB,
                    epoch,
                )));
                match &program {
                    Some(prog) => tlc::vm::run(&db, prog, &mut ctx),
                    None => tlc::execute_with_ctx(&db, cached.plan(), &mut ctx),
                }
            })
            .map_err(|e| format!("execution error: {e}"))?;
        Ok(rec.span("tlc.output.serialize", parent, || tlc::serialize_results(&db, &trees)))
    }

    /// Commits through the service; the store copy and the mutation are
    /// also replayed on a private copy, to time those two layers alone.
    fn write(&self, op: &UpdateOp, rec: &mut Recorder, parent: u32) -> Result<String, String> {
        let base = Arc::clone(&self.current.lock().expect("snapshot lock").0);
        let mut copy = rec.span("xmldb.clone", parent, || (*base).clone());
        let doc = copy.document_by_name(op.doc()).map_err(|e| e.to_string())?;
        let replayed = rec
            .span("xmldb.update", parent, || match op {
                UpdateOp::Insert { parent, xml, .. } => {
                    xmldb::insert_subtree(&mut copy, doc, *parent, xml)
                }
                UpdateOp::Delete { pre, .. } => xmldb::delete_subtree(&mut copy, doc, *pre),
                UpdateOp::SetText { pre, text, .. } => xmldb::set_text(&mut copy, doc, *pre, text),
            })
            .map_err(|e| format!("update error: {e}"))?;
        let o = rec
            .span("service.commit", parent, || self.svc.apply_update(DEFAULT_DB, op))
            .map_err(|e| e.to_string())?;
        let s = &o.summary;
        if (replayed.nodes_added, replayed.nodes_removed, replayed.renumbered)
            != (s.nodes_added, s.nodes_removed, s.renumbered)
        {
            return Err("replayed update diverged from the committed one".into());
        }
        let epoch = o.entry.epoch();
        *self.current.lock().expect("snapshot lock") = (Arc::clone(o.entry.database()), epoch);
        // This path keeps no footprints, so it purges superseded epochs
        // instead of carrying entries across.
        let live = cache::epoch_prefix(DEFAULT_DB, epoch);
        self.plans.lock().expect("plan lock").purge_where(|k| !k.starts_with(&live));
        self.matches.purge_where(|k| !k.starts_with(&live));
        let renumbered = if s.renumbered > 0 {
            format!(", {} node(s) renumbered", s.renumbered)
        } else {
            String::new()
        };
        Ok(format!(
            "updated {DEFAULT_DB}: epoch {epoch}, +{}/-{} node(s){renumbered}, {} plan(s) and {} match entr(ies) carried",
            s.nodes_added, s.nodes_removed, o.plans_seeded, o.matches_seeded
        ))
    }
}

/// Parses the update commands this benchmark sends; `None` for a query.
fn parse_update(line: &str) -> Option<UpdateOp> {
    let (cmd, rest) = line.split_once(' ')?;
    let (doc, rest) = rest.split_once(' ').unwrap_or((rest, ""));
    let (ord, tail) = rest.split_once(' ').unwrap_or((rest, ""));
    let ord: u32 = ord.parse().ok()?;
    let doc = doc.to_string();
    debug_assert_eq!(doc, DOC);
    match cmd {
        ".insert" => Some(UpdateOp::Insert { doc, parent: ord, xml: tail.to_string() }),
        ".settext" => Some(UpdateOp::SetText { doc, pre: ord, text: tail.to_string() }),
        ".delete" => Some(UpdateOp::Delete { doc, pre: ord }),
        _ => None,
    }
}
