//! Checking every reply against references computed from scratch, after
//! the timed window.
//!
//! Reads must byte-match `baselines::run(Engine::Tlc, …)` evaluated on a
//! store rebuilt by serializing the current state and parsing it again
//! (as `experiments rw` does); write replies must report what the same
//! mutation does to a private copy of the store.

use crate::workload::{Op, DOC};
use baselines::Engine;
use service::protocol::Frame;
use service::UpdateOp;
use std::collections::HashMap;
use std::hash::Hasher;
use xmldb::Database;

/// What came back for one request.
#[derive(Debug)]
pub enum Reply {
    /// A result: its hash and length, plus the text for write replies.
    Ok { hash: u64, len: usize, text: Option<String> },
    /// An `ERR` frame or a broken connection.
    Failed(String),
}

impl Reply {
    pub fn of(frame: Frame, keep_text: bool) -> Reply {
        match frame {
            Frame::Ok(payload) => Reply::Ok {
                hash: hash(&payload),
                len: payload.len(),
                text: keep_text.then_some(payload),
            },
            Frame::Err(message) => Reply::Failed(message),
        }
    }
}

pub fn hash(text: &str) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    h.write(text.as_bytes());
    h.finish()
}

/// One request as sent and answered, in the order its client sent it.
#[derive(Debug)]
pub struct Entry {
    pub op: Op,
    pub reply: Reply,
    pub latency_us: f64,
    /// Seconds from the start of its drive to the reply.
    pub done_at: f64,
}

/// The outcome of checking one log.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests that failed (`ERR`, broken connection), and the first
    /// failure's message.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Replies that differ from the reference.
    pub mismatched: u64,
    /// Whether the final store passes `xmldb::check_database` and matches
    /// the reference copy in size.
    pub store_ok: bool,
}

fn reparse(store: &Database) -> Database {
    let doc = store.document_by_name(DOC).expect("store carries the workload document");
    let xml = xmldb::serialize::serialize_subtree(store, store.root(doc));
    let mut fresh = Database::new();
    fresh.load_xml(DOC, &xml).expect("serialized store parses");
    fresh
}

fn apply(store: &mut Database, op: &UpdateOp) -> xmldb::Result<xmldb::UpdateSummary> {
    let doc = store.document_by_name(op.doc())?;
    match op {
        UpdateOp::Insert { parent, xml, .. } => xmldb::insert_subtree(store, doc, *parent, xml),
        UpdateOp::Delete { pre, .. } => xmldb::delete_subtree(store, doc, *pre),
        UpdateOp::SetText { pre, text, .. } => xmldb::set_text(store, doc, *pre, text),
    }
}

/// The reads of one epoch, checked together once the epoch ends, so only
/// one reference store is alive at a time.
#[derive(Default)]
struct Epoch {
    /// Distinct query texts to evaluate.
    queries: Vec<String>,
    /// Suite index to its position in `queries`.
    memo: HashMap<usize, usize>,
    /// Each read's position in `queries` and the hash it got.
    reads: Vec<(usize, u64)>,
}

impl Epoch {
    fn push(&mut self, op: &Op, suite: &[String], got: u64) {
        let job = match op {
            Op::Suite(i) => *self.memo.entry(*i).or_insert_with(|| {
                self.queries.push(suite[*i].clone());
                self.queries.len() - 1
            }),
            Op::Adhoc(_, text) => {
                self.queries.push(text.clone());
                self.queries.len() - 1
            }
            Op::Write(_) => unreachable!("writes end an epoch"),
        };
        self.reads.push((job, got));
    }

    /// Evaluates the epoch's queries on a reparse of `store` and returns
    /// how many reads differ; leaves the epoch empty.
    fn settle(&mut self, store: &Database, threads: usize) -> u64 {
        if self.reads.is_empty() {
            return 0;
        }
        let reference = reparse(store);
        let expected = evaluate(&reference, &self.queries, threads);
        let mismatched = self.reads.iter().filter(|(job, got)| expected[*job] != Some(*got));
        let n = mismatched.count() as u64;
        *self = Epoch::default();
        n
    }
}

/// Checks `log` (writes in commit order) against references built from
/// `base`, and `last` as the store the service ended with. Reads are
/// evaluated on `threads` threads.
pub fn verify(
    base: &Database,
    suite: &[String],
    log: &[&Entry],
    last: &Database,
    threads: usize,
) -> Verdict {
    let mut v = Verdict::default();
    let mut mirror = base.clone();
    let mut epoch = 0u64;
    let mut reads = Epoch::default();
    for e in log {
        let (got, text) = match &e.reply {
            Reply::Ok { hash, text, .. } => (*hash, text),
            // A refused write leaves the store as it was.
            Reply::Failed(message) => {
                v.failed += 1;
                v.first_failure.get_or_insert_with(|| message.clone());
                continue;
            }
        };
        let Op::Write(op) = &e.op else {
            reads.push(&e.op, suite, got);
            continue;
        };
        v.mismatched += reads.settle(&mirror, threads);
        epoch += 1;
        let expected = apply(&mut mirror, op).ok().map(|s| {
            let renumbered = if s.renumbered > 0 {
                format!(", {} node(s) renumbered", s.renumbered)
            } else {
                String::new()
            };
            format!(
                "updated main: epoch {epoch}, +{}/-{} node(s){renumbered}, ",
                s.nodes_added, s.nodes_removed
            )
        });
        let reply = text.as_deref().unwrap_or("");
        if !expected.is_some_and(|x| reply.starts_with(&x)) {
            v.mismatched += 1;
        }
    }
    v.mismatched += reads.settle(&mirror, threads);
    v.store_ok = xmldb::check_database(last).is_ok() && last.node_count() == mirror.node_count();
    v
}

/// Hashes of the reference answers on `store`, `None` where the reference
/// failed.
fn evaluate(store: &Database, queries: &[String], threads: usize) -> Vec<Option<u64>> {
    let threads = threads.clamp(1, queries.len().max(1));
    let mut out = vec![None; queries.len()];
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..queries.len())
                        .step_by(threads)
                        .map(|i| {
                            let answer = baselines::run(Engine::Tlc, &queries[i], store);
                            (i, answer.ok().map(|r| hash(&r)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (i, h) in w.join().expect("reference thread panicked") {
                out[i] = h;
            }
        }
    });
    out
}
