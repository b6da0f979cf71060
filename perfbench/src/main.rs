//! The serving benchmark of the TLC query service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_mix|adhoc_large|rw_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates an XMark database, starts an in-process server that
//! serves `service::protocol` over loopback TCP (one thread per connection,
//! `ServiceConfig::default()`, as `tlc-serve --tcp` does) and drives it with
//! closed-loop clients for the given seconds. Every reply is checked against
//! a from-scratch reference after the timed window. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `design.json` next
//! to this package records the workloads and what each layer metric should
//! move; traced runs leave their spans in `.perfbench_out/`.

mod alloc;
mod check;
mod trace;
mod wire;
mod workload;

use check::{Entry, Reply, Verdict};
use service::metrics::{DbCounters, Histogram};
use service::pool::BatchStats;
use service::{cache::CacheStats, Service, ServiceConfig};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tlc::ExecStats;
use trace::{Collector, Recorder, Span, Traced};
use wire::Server;
use workload::{Adhoc, Kind, Op, Rw, Spec, Stream};
use xmldb::Database;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median. `SETUP_BEFORE` of them are
/// torn down before the one that serves the run, the rest follow the timed
/// work, so one slow spell of the host cannot slow them all.
const SETUP_REPEATS: usize = 9;
const SETUP_BEFORE: usize = 4;

/// Slices a timed stream is cut into. Figures are taken over the faster
/// half, after dropping the `TRIM` slowest slices (see `Window::trimmed`;
/// the paper's §6 protocol drops the extremes, and on a shared host noise
/// only ever slows a slice down, so only the slow extreme is dropped), so
/// the host's slow spells, which last seconds, do not move them.
const SLICES: usize = 20;
const TRIM: usize = 10;

/// A `--trace 1` run sends this share of the workload's write probe.
const TRACE_PROBE_SHARE: usize = 5;

/// Reads per round of the read mix (see `workload::hot_deck`).
const ROUND_READS: usize = 115;

/// Stream id of the write probe's RNG.
const PROBE_STREAM: u64 = 0x9B0B;

/// Allocation counts of one seed may differ between runs by less than one
/// part in this many: the service's hash maps are randomly keyed, and where
/// one rehashes after removals depends on those keys. Every other
/// deterministic count must repeat exactly.
const ALLOC_JITTER: u64 = 10_000;

const MIB: f64 = 1024.0 * 1024.0;

/// Where traced runs leave their spans.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <hot_mix|adhoc_large|rw_mix> --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::find(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("perfbench: host nproc {nproc}; {} with {} client(s)", spec.name, spec.clients);
    if spec.clients > nproc {
        eprintln!(
            "perfbench: refusing {}: {} client(s) on {nproc} core(s) would measure the scheduler",
            spec.name, spec.clients
        );
        return ExitCode::from(2);
    }
    let result =
        if args.trace { traced_run(spec, &args, nproc) } else { timed_run(spec, &args, nproc) };
    match result {
        Ok(out) => {
            for defect in &out.defects {
                eprintln!("perfbench: defect: {defect}");
            }
            println!("{}", out.json());
            if out.defects.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result line and what is wrong with the run, if anything.
struct Output {
    attempted: usize,
    failed: u64,
    defects: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Output {
    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.defects.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }

    fn judge(&mut self, what: &str, v: &Verdict) {
        self.failed += v.failed + v.mismatched;
        if v.failed > 0 {
            let first = v.first_failure.as_deref().unwrap_or("");
            self.defects.push(format!("{what}: {} request(s) failed, first: {first}", v.failed));
        }
        if v.mismatched > 0 {
            self.defects
                .push(format!("{what}: {} reply(ies) differ from the reference", v.mismatched));
        }
        if !v.store_ok {
            self.defects.push(format!("{what}: the final store fails its invariant check"));
        }
    }
}

/// Service-side counters at one instant.
#[derive(Clone)]
struct Counters {
    exec: ExecStats,
    plan: CacheStats,
    matches: CacheStats,
    db: DbCounters,
    batch: BatchStats,
    /// Queue waits since the service started.
    queue: Histogram,
    allocs: u64,
}

impl Counters {
    fn take(svc: &Service) -> Counters {
        let allocs = alloc::total();
        let snap = svc.metrics_snapshot();
        Counters {
            exec: snap.exec,
            plan: svc.cache_stats(),
            matches: svc.match_cache_stats().unwrap_or_default(),
            db: snap.db(service::catalog::DEFAULT_DB).copied().unwrap_or_default(),
            batch: svc.batch_stats(),
            queue: snap.queue_wait,
            allocs,
        }
    }

    /// Counts that one client and one seed fix exactly, as deltas from
    /// `earlier`.
    fn deterministic(&self, earlier: &Counters) -> Vec<(&'static str, u64)> {
        let (a, b) = (&self.exec, &earlier.exec);
        vec![
            ("exec.probes", a.probes - b.probes),
            ("exec.nodes_inspected", a.nodes_inspected - b.nodes_inspected),
            ("exec.pattern_matches", a.pattern_matches - b.pattern_matches),
            ("exec.trees_built", a.trees_built - b.trees_built),
            ("exec.subtrees_materialized", a.subtrees_materialized - b.subtrees_materialized),
            ("exec.join_steps", a.join_steps - b.join_steps),
            ("exec.candidate_fetches", a.candidate_fetches - b.candidate_fetches),
            ("exec.struct_cmps", a.struct_cmps - b.struct_cmps),
            ("exec.match_cache_hits", a.match_cache_hits - b.match_cache_hits),
            ("exec.match_cache_misses", a.match_cache_misses - b.match_cache_misses),
            ("plan.hits", self.plan.hits - earlier.plan.hits),
            ("plan.misses", self.plan.misses - earlier.plan.misses),
            ("plan.evictions", self.plan.evictions - earlier.plan.evictions),
            ("match.hits", self.matches.hits - earlier.matches.hits),
            ("match.misses", self.matches.misses - earlier.matches.misses),
            ("match.evictions", self.matches.evictions - earlier.matches.evictions),
            ("carry.updates", self.db.updates - earlier.db.updates),
            ("carry.plans", self.db.plans_seeded - earlier.db.plans_seeded),
            ("carry.matches", self.db.matches_seeded - earlier.db.matches_seeded),
            ("allocs", self.allocs - earlier.allocs),
        ]
    }
}

/// Utime plus stime of the whole process, from `/proc/self/stat` (in
/// clock ticks of 10 ms, the Linux user-space `HZ`).
fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks: u64 = [11, 12].iter().filter_map(|&i| fields.get(i)?.parse::<u64>().ok()).sum();
    Duration::from_millis(ticks * 10)
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Quantile `q` of `values` by linear interpolation between order
/// statistics.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q` of a service histogram in microseconds. The histogram
/// answers with the upper bound of a log2 bucket; this interpolates
/// linearly between the bucket's bounds by the rank within the bucket.
fn histogram_quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Upper bound of the bucket holding the `r`-th smallest sample.
    let upper = |r: u64| h.quantile((r as f64 - 0.5) / n as f64).as_micros() as u64;
    // First rank in 1..=n whose upper bound passes `pred`, by bisection.
    let first_rank = |pred: &dyn Fn(u64) -> bool| {
        let (mut lo, mut hi) = (1, n + 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if pred(upper(mid)) {
                hi = mid
            } else {
                lo = mid + 1
            }
        }
        lo
    };
    let t = (q * n as f64).clamp(1.0, n as f64);
    let u = upper(t.ceil() as u64);
    let first = first_rank(&|v| v >= u);
    let last = first_rank(&|v| v > u) - 1;
    // The bucket's lower bound: the power of two below its upper bound
    // (which the histogram clamps to the largest sample).
    let lower = if u.is_power_of_two() { u / 2 } else { 1 << u.ilog2() };
    let within = (t - (first - 1) as f64) / (last - first + 1) as f64;
    lower as f64 + (u - lower) as f64 * within
}

/// How long a drive goes on: until a time, for a number of requests, or
/// until its lists run dry.
struct Limit {
    until: Option<Instant>,
    max_ops: usize,
}

/// One answered request: when it completed (seconds into the drive), its
/// latency, whether it was a write and its cost class (see `Op::class`).
struct Sample {
    at: f64,
    us: f64,
    write: bool,
    class: usize,
}

/// The timed part of a session.
struct Window {
    elapsed: Duration,
    /// The planned length, for drives that run against the clock.
    planned: Option<Duration>,
    /// Process CPU time at each slice boundary of a planned drive.
    cpu_marks: Vec<Duration>,
    ops: usize,
    samples: Vec<Sample>,
    reads: usize,
    read_bytes: u64,
    /// Most heap bytes live at once during the drive outside the client
    /// threads (whose request logs grow with every reply), sampled every
    /// millisecond.
    peak_heap: u64,
    start: Counters,
    end: Counters,
    /// Counters after the deterministic prefix, and the renumberings its
    /// writes reported.
    prefix: Option<(Counters, u64)>,
}

/// A window's figures over its kept slices.
struct Trimmed {
    reads: Vec<f64>,
    writes: Vec<f64>,
    ops: usize,
    secs: f64,
    cpu: Option<Duration>,
}

impl Window {
    fn trimmed(&self) -> Trimmed {
        let span = self.planned.unwrap_or(self.elapsed).as_secs_f64() / SLICES as f64;
        let slice = |at: f64| ((at / span) as usize).min(SLICES - 1);
        // A slice's slowness is its requests' latency over the window-wide
        // median latency of their classes, so slices are ranked by how fast
        // the host served them, not by which requests fell into them. A
        // slice where nothing completed is the slowest; ties go to the one
        // with fewer requests.
        let mut by_class: HashMap<usize, Vec<f64>> = HashMap::new();
        for s in &self.samples {
            by_class.entry(s.class).or_default().push(s.us);
        }
        let typical: HashMap<usize, f64> =
            by_class.iter().map(|(&c, v)| (c, median(v).max(f64::MIN_POSITIVE))).collect();
        let (mut spent, mut expected, mut counts) = ([0.0; SLICES], [0.0; SLICES], [0; SLICES]);
        for s in &self.samples {
            let i = slice(s.at);
            spent[i] += s.us;
            expected[i] += typical[&s.class];
            counts[i] += 1;
        }
        let slowness =
            |i: usize| if counts[i] == 0 { f64::INFINITY } else { spent[i] / expected[i] };
        let mut order: Vec<usize> = (0..SLICES).collect();
        order.sort_by(|&a, &b| {
            slowness(b).total_cmp(&slowness(a)).then(counts[a].cmp(&counts[b])).then(a.cmp(&b))
        });
        let mut keep = [false; SLICES];
        for &i in &order[TRIM..] {
            keep[i] = true;
        }
        let mut t = Trimmed {
            reads: Vec::new(),
            writes: Vec::new(),
            ops: 0,
            secs: span * (SLICES - TRIM) as f64,
            cpu: (self.cpu_marks.len() == SLICES + 1).then(|| {
                (0..SLICES)
                    .filter(|&i| keep[i])
                    .map(|i| self.cpu_marks[i + 1] - self.cpu_marks[i])
                    .sum()
            }),
        };
        for s in self.samples.iter().filter(|s| keep[slice(s.at)]) {
            t.ops += 1;
            if s.write { &mut t.writes } else { &mut t.reads }.push(s.us);
        }
        t
    }
}

/// One service behind one server, and the log of everything sent to it.
struct Session {
    server: Server,
    log: Vec<Entry>,
    adhoc: Option<Adhoc>,
    probe_writes: Vec<f64>,
}

impl Session {
    fn start(
        spec: &Spec,
        seed: u64,
        base: &Arc<Database>,
        traced: Option<(Instant, Arc<Collector>)>,
    ) -> Result<Session, String> {
        let svc = Arc::new(Service::new(Arc::clone(base), ServiceConfig::default()));
        let traced = traced.map(|(at, sink)| Arc::new(Traced::new(Arc::clone(&svc), at, sink)));
        let server = Server::start(svc, traced).map_err(|e| format!("server: {e}"))?;
        let adhoc = (spec.kind == Kind::AdhocLarge).then(|| Adhoc::new(seed, base));
        Ok(Session { server, log: Vec::new(), adhoc, probe_writes: Vec::new() })
    }

    /// One request per template: the whole suite, or one fresh instance of
    /// each ad hoc template.
    fn warm(&mut self, suite: &[String]) -> Result<(), String> {
        let ops = match &mut self.adhoc {
            Some(gen) => gen.warm(),
            None => (0..suite.len()).map(Op::Suite).collect(),
        };
        let n = ops.len();
        self.drive(vec![Stream::List(ops)], Limit { until: None, max_ops: n }, suite, None, None)?;
        Ok(())
    }

    /// The write probe: `count` seeded commits.
    fn probe(
        &mut self,
        count: usize,
        seed: u64,
        suite: &[String],
        trace: Option<&Tracing>,
    ) -> Result<(), String> {
        if count == 0 {
            return Ok(());
        }
        let stream = Stream::Rw(Rw::new(seed, PROBE_STREAM, Arc::clone(&self.server.svc), 0, 1));
        let limit = Limit { until: None, max_ops: count };
        let w = self.drive(vec![stream], limit, suite, None, trace)?;
        self.probe_writes = w.trimmed().writes;
        Ok(())
    }

    /// The timed stream: one closed-loop client per connection.
    fn window(
        &mut self,
        spec: &Spec,
        seed: u64,
        limit: Limit,
        suite: &[String],
        prefix: Option<usize>,
        trace: Option<&Tracing>,
    ) -> Result<Window, String> {
        let streams = (0..spec.clients)
            .map(|c| match spec.kind {
                Kind::HotMix => {
                    Stream::Hot(workload::hot_deck(workload::stream_rng(seed, c as u64)))
                }
                Kind::AdhocLarge => Stream::Adhoc(self.adhoc.take().expect("ad hoc generator")),
                Kind::RwMix => Stream::Rw(Rw::new(
                    seed,
                    c as u64,
                    Arc::clone(&self.server.svc),
                    ROUND_READS,
                    spec.writes_per_round,
                )),
            })
            .collect();
        self.drive(streams, limit, suite, prefix, trace)
    }

    /// Sends `streams` over one connection each until `limit`, appending
    /// every answered request to the log, client by client.
    fn drive(
        &mut self,
        streams: Vec<Stream>,
        limit: Limit,
        suite: &[String],
        prefix: Option<usize>,
        trace: Option<&Tracing>,
    ) -> Result<Window, String> {
        let mut clients = Vec::new();
        for _ in &streams {
            clients.push(self.server.connect().map_err(|e| format!("connect: {e}"))?);
        }
        let svc = Arc::clone(&self.server.svc);
        let issued = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let at_prefix: Mutex<Option<Counters>> = Mutex::new(None);
        let limit = &limit;
        let start = Counters::take(&svc);
        let finished = AtomicBool::new(false);
        let client_slots: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let began = Instant::now();
        let planned = limit.until.map(|u| u.saturating_duration_since(began));
        let (logs, (peak_heap, cpu_marks)) = std::thread::scope(|s| {
            // Every millisecond while the clients run: the live heap, and
            // the CPU time whenever a slice boundary has passed.
            let sampler = s.spawn(|| {
                let heap = || alloc::live_bytes(&client_slots.lock().expect("slot lock"));
                let mut peak = heap();
                let mut marks = vec![cpu_time()];
                let boundary = |i: usize| planned.map(|p| began + p * i as u32 / SLICES as u32);
                while !finished.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                    peak = peak.max(heap());
                    if marks.len() <= SLICES
                        && boundary(marks.len()).is_some_and(|b| Instant::now() >= b)
                    {
                        marks.push(cpu_time());
                    }
                }
                if planned.is_some() {
                    marks.resize(SLICES + 1, cpu_time());
                }
                (peak, marks)
            });
            let handles: Vec<_> = streams
                .into_iter()
                .zip(clients)
                .map(|(mut stream, (mut client, conn))| {
                    let (issued, done, at_prefix, svc) = (&issued, &done, &at_prefix, &svc);
                    let client_slots = &client_slots;
                    s.spawn(move || -> Result<Vec<Entry>, String> {
                        client_slots.lock().expect("slot lock").push(alloc::slot_index());
                        let mut rec = trace.map(|t| Recorder::new(t.base, Arc::clone(&t.sink)));
                        let mut log = Vec::new();
                        for n in 0.. {
                            if limit.until.is_some_and(|u| Instant::now() >= u)
                                || issued.fetch_add(1, Ordering::Relaxed) >= limit.max_ops
                            {
                                break;
                            }
                            let Some(op) = stream.next() else { break };
                            let line = op.line(suite);
                            let open = rec.as_mut().map(|r| {
                                r.rid = trace::rid(conn, n);
                                r.open(
                                    if op.is_write() { "client.write" } else { "client.read" },
                                    0,
                                )
                            });
                            let answer = client.call(&line).map_err(|e| format!("wire: {e}"))?;
                            if let (Some(r), Some(open)) = (rec.as_mut(), open) {
                                let arrived = Instant::now() - answer.read;
                                r.record("service.protocol.read", open.id(), arrived, answer.read);
                                r.close(open);
                            }
                            let write = op.is_write();
                            log.push(Entry {
                                reply: Reply::of(answer.frame, write),
                                op,
                                latency_us: answer.latency.as_secs_f64() * 1e6,
                                done_at: began.elapsed().as_secs_f64(),
                            });
                            if prefix == Some(done.fetch_add(1, Ordering::Relaxed) + 1) {
                                *at_prefix.lock().expect("prefix lock") = Some(Counters::take(svc));
                            }
                        }
                        Ok(log)
                    })
                })
                .collect();
            let logs: Vec<Result<Vec<Entry>, String>> =
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
            finished.store(true, Ordering::Relaxed);
            (logs, sampler.join().expect("sampler thread panicked"))
        });
        let elapsed = began.elapsed();
        let end = Counters::take(&svc);
        let mut w = Window {
            elapsed,
            planned,
            cpu_marks,
            ops: 0,
            samples: Vec::new(),
            reads: 0,
            read_bytes: 0,
            peak_heap,
            start,
            end,
            prefix: None,
        };
        let mut renumbered = 0;
        let first = self.log.len();
        for log in logs {
            for e in log? {
                let write = e.op.is_write();
                match &e.reply {
                    Reply::Ok { text, len, .. } => {
                        let class = e.op.class();
                        w.samples.push(Sample { at: e.done_at, us: e.latency_us, write, class });
                        if write && w.ops < prefix.unwrap_or(0) {
                            renumbered += text.as_deref().map_or(0, renumbered_in);
                        }
                        if !write {
                            w.reads += 1;
                            w.read_bytes += *len as u64;
                        }
                    }
                    Reply::Failed(_) => {}
                }
                w.ops += 1;
                self.log.push(e);
            }
        }
        debug_assert!(self.log.len() - first == w.ops);
        w.prefix = at_prefix.into_inner().expect("prefix lock").map(|c| (c, renumbered));
        Ok(w)
    }
}

/// Nodes a write reply says were renumbered.
fn renumbered_in(reply: &str) -> u64 {
    reply
        .split(", ")
        .find_map(|part| part.strip_suffix(" node(s) renumbered")?.parse().ok())
        .unwrap_or(0)
}

/// Span sink shared by a traced session's clients and server.
struct Tracing {
    base: Instant,
    sink: Arc<Collector>,
}

/// One set-up and the session it left running.
struct Setup {
    base: Arc<Database>,
    session: Session,
    /// Seconds in all, generate ms, load ms, generate and load allocations.
    figures: [f64; 5],
}

/// Generate, load, start the service and warm it.
fn setup(spec: &Spec, seed: u64, suite: &[String]) -> Result<Setup, String> {
    let t0 = Instant::now();
    let a0 = alloc::thread();
    let xml = xmark::auction_xml(spec.factor);
    let (t1, a1) = (Instant::now(), alloc::thread());
    let mut db = Database::new();
    db.load_xml(workload::DOC, &xml).map_err(|e| format!("load: {e}"))?;
    let (t2, a2) = (Instant::now(), alloc::thread());
    drop(xml);
    let base = Arc::new(db);
    let mut session = Session::start(spec, seed, &base, None)?;
    session.warm(suite)?;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let figures =
        [t0.elapsed().as_secs_f64(), ms(t1 - t0), ms(t2 - t1), (a1 - a0) as f64, (a2 - a1) as f64];
    Ok(Setup { base, session, figures })
}

/// The figures of `n` set-ups, each torn down at once.
fn setups(n: usize, spec: &Spec, seed: u64, suite: &[String]) -> Result<Vec<[f64; 5]>, String> {
    (0..n).map(|_| Ok(setup(spec, seed, suite)?.figures)).collect()
}

/// The medians of set-up figures, figure by figure.
fn setup_medians(all: &[[f64; 5]]) -> [f64; 5] {
    std::array::from_fn(|i| median(&all.iter().map(|f| f[i]).collect::<Vec<_>>()))
}

/// Set-up, then a write probe of `probe` commits and a second warm pass
/// where the workload has a probe, leaving the session ready for its timed
/// window.
fn ready(spec: &Spec, seed: u64, suite: &[String], probe: usize) -> Result<Setup, String> {
    let mut s = setup(spec, seed, suite)?;
    eprintln!("perfbench: XMark factor {} gives {} nodes", spec.factor, s.base.node_count());
    if probe > 0 {
        s.session.probe(probe, seed, suite, None)?;
        s.session.warm(suite)?;
    }
    Ok(s)
}

fn check_session(session: &Session, base: &Database, suite: &[String], nproc: usize) -> Verdict {
    let last = session.server.svc.database();
    let log: Vec<&Entry> = session.log.iter().collect();
    check::verify(base, suite, &log, &last, nproc)
}

/// `--trace 0`: the end-to-end metrics.
fn timed_run(spec: &Spec, args: &Args, nproc: usize) -> Result<Output, String> {
    let suite = workload::suite_lines();
    let mut setup_figures = setups(SETUP_BEFORE, spec, args.seed, &suite)?;
    let mut s = ready(spec, args.seed, &suite, spec.probe_writes)?;
    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    let limit = Limit { until: Some(until), max_ops: usize::MAX };
    let w = s.session.window(spec, args.seed, limit, &suite, None, None)?;
    let t = w.trimmed();
    let writes = if spec.probe_writes > 0 { &s.session.probe_writes } else { &t.writes };
    let cpu = t.cpu.unwrap_or_default();
    let mut out = Output {
        attempted: w.ops + spec.probe_writes,
        failed: 0,
        defects: Vec::new(),
        metrics: vec![
            ("setup_s", 0.0, "s"),
            ("qps", t.ops as f64 / t.secs, "1/s"),
            ("p50_ms", median(&t.reads) / 1e3, "ms"),
            ("p99_ms", quantile(&t.reads, 0.99) / 1e3, "ms"),
            ("write_p50_ms", median(writes) / 1e3, "ms"),
            ("write_p95_ms", quantile(writes, 0.95) / 1e3, "ms"),
            ("cpu_ms_per_req", cpu.as_secs_f64() * 1e3 / t.ops.max(1) as f64, "ms"),
            ("peak_heap_mb", w.peak_heap as f64 / MIB, "MiB"),
        ],
    };
    eprintln!(
        "perfbench: {} requests ({} reads) in {:.2?}, {} in the kept slices; checking replies",
        w.ops, w.reads, w.elapsed, t.ops
    );
    let tail = |v: &[f64]| -> String {
        let qs = [0.5, 0.9, 0.95, 0.99, 0.999, 1.0];
        let ms: Vec<String> = qs.iter().map(|&q| format!("{:.3}", quantile(v, q) / 1e3)).collect();
        format!("{} samples, p50/p90/p95/p99/p99.9/max ms {}", v.len(), ms.join("/"))
    };
    eprintln!("perfbench: kept reads: {}", tail(&t.reads));
    eprintln!("perfbench: kept writes: {}", tail(writes));
    let verdict = check_session(&s.session, &s.base, &suite, nproc);
    out.judge("untraced run", &verdict);
    setup_figures.push(s.figures);
    drop(s);
    setup_figures.extend(setups(SETUP_REPEATS - 1 - SETUP_BEFORE, spec, args.seed, &suite)?);
    out.metrics[0].1 = setup_medians(&setup_figures)[0];
    Ok(out)
}

/// `--trace 1`: an untraced half for the service's own counters, a replay
/// of its deterministic prefix on single-client workloads, then a traced
/// half for the per-layer times.
fn traced_run(spec: &Spec, args: &Args, nproc: usize) -> Result<Output, String> {
    let suite = workload::suite_lines();
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut out = Output { attempted: 0, failed: 0, defects: Vec::new(), metrics: Vec::new() };
    // Per-layer figures need fewer commits than a write latency percentile.
    let probe = spec.probe_writes / TRACE_PROBE_SHARE;

    // Untraced half.
    let mut setup_figures = setups(SETUP_BEFORE, spec, args.seed, &suite)?;
    let mut s = ready(spec, args.seed, &suite, probe)?;
    let limit = Limit { until: Some(Instant::now() + half), max_ops: usize::MAX };
    let w = s.session.window(spec, args.seed, limit, &suite, Some(spec.prefix), None)?;
    out.attempted += w.ops + probe;
    let verdict = check_session(&s.session, &s.base, &suite, nproc);
    out.judge("untraced half", &verdict);
    let (at_prefix, renumbered) = w.prefix.clone().unwrap_or((w.end.clone(), 0));
    let prefix_ops = if w.prefix.is_some() { spec.prefix } else { w.ops }.max(1) as f64;
    let base = Arc::clone(&s.base);
    setup_figures.push(s.figures);
    // Carry figures come from the prefix where the timed stream writes,
    // else from the write probe (everything this service committed).
    let prefix_counts = at_prefix.deterministic(&w.start);
    let count = |name: &str| prefix_counts.iter().find(|(k, _)| *k == name).map_or(0, |(_, v)| *v);
    let carry = if count("carry.updates") > 0 {
        Carry {
            writes: count("carry.updates"),
            plans: count("carry.plans"),
            matches: count("carry.matches"),
            renumbered,
        }
    } else {
        let texts = s.session.log.iter().filter_map(|e| match &e.reply {
            Reply::Ok { text: Some(t), .. } => Some(t.as_str()),
            _ => None,
        });
        Carry {
            writes: w.end.db.updates,
            plans: w.end.db.plans_seeded,
            matches: w.end.db.matches_seeded,
            renumbered: texts.map(renumbered_in).sum(),
        }
    };
    drop(s);

    // Determinism replay of the prefix on a fresh service.
    let mut drift = 0u64;
    if spec.clients == 1 {
        if w.prefix.is_none() {
            out.defects.push(format!("the window ended before its {}-request prefix", spec.prefix));
        } else {
            let mut again = Session::start(spec, args.seed, &base, None)?;
            again.warm(&suite)?;
            if probe > 0 {
                again.probe(probe, args.seed, &suite, None)?;
                again.warm(&suite)?;
            }
            let limit = Limit { until: None, max_ops: spec.prefix };
            let r = again.window(spec, args.seed, limit, &suite, Some(spec.prefix), None)?;
            let (replayed, renumbered2) = r.prefix.ok_or("replay stopped short of its prefix")?;
            let again_counts = replayed.deterministic(&r.start);
            for ((name, a), (_, b)) in prefix_counts.iter().zip(&again_counts) {
                if a != b && !(*name == "allocs" && a.abs_diff(*b) * ALLOC_JITTER < *a) {
                    drift += 1;
                    out.defects
                        .push(format!("{name} drifted between same-seed runs: {a} then {b}"));
                }
            }
            if renumbered != renumbered2 {
                drift += 1;
                out.defects.push(format!("renumbered drifted: {renumbered} then {renumbered2}"));
            }
            let fingerprint: Vec<String> =
                prefix_counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
            eprintln!("perfbench: prefix counts {}", fingerprint.join(" "));
        }
    }

    // Traced half.
    let tracing = Tracing { base: Instant::now(), sink: Arc::new(Collector::default()) };
    let mut t =
        Session::start(spec, args.seed, &base, Some((tracing.base, Arc::clone(&tracing.sink))))?;
    t.probe(probe, args.seed, &suite, Some(&tracing))?;
    let limit = Limit { until: Some(Instant::now() + half), max_ops: usize::MAX };
    let tw = t.window(spec, args.seed, limit, &suite, None, Some(&tracing))?;
    out.attempted += tw.ops + probe;
    let verdict = check_session(&t, &base, &suite, nproc);
    out.judge("traced half", &verdict);
    drop(t);
    let spans = tracing.sink.take();
    write_spans(spec, &spans);

    setup_figures.extend(setups(SETUP_REPEATS - 1 - SETUP_BEFORE, spec, args.seed, &suite)?);
    let setup = setup_medians(&setup_figures);
    out.metrics =
        layer_metrics(&w, &prefix_counts, prefix_ops, &carry, &spans, &setup, drift, &out);
    Ok(out)
}

/// Sum and count of one span name over the requests in `rids` (all
/// requests when `None`).
fn span_total(spans: &[Span], name: &str, rids: Option<&HashSet<u64>>) -> (f64, f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name && rids.is_none_or(|r| r.contains(&s.rid)))
        .fold((0.0, 0.0, 0), |(us, allocs, n), s| {
            (us + s.dur.as_secs_f64() * 1e6, allocs + s.allocs as f64, n + 1)
        })
}

/// Commits of the untraced half and what they carried into new epochs.
struct Carry {
    writes: u64,
    plans: u64,
    matches: u64,
    renumbered: u64,
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: &Window,
    prefix_counts: &[(&'static str, u64)],
    prefix_ops: f64,
    carry: &Carry,
    spans: &[Span],
    setup: &[f64; 5],
    drift: u64,
    out: &Output,
) -> Vec<(&'static str, f64, &'static str)> {
    let get =
        |name: &str| prefix_counts.iter().find(|(k, _)| *k == name).map_or(0.0, |(_, v)| *v as f64);
    let rate =
        |hits: f64, misses: f64| if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
    let per_write = |v: u64| v as f64 / carry.writes.max(1) as f64;

    let reads: HashSet<u64> =
        spans.iter().filter(|s| s.name == "client.read").map(|s| s.rid).collect();
    let traced_lat: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "client.read")
        .map(|s| s.dur.as_secs_f64() * 1e6)
        .collect();
    let n_reads = reads.len().max(1) as f64;
    let per_read = |name: &str| span_total(spans, name, Some(&reads)).0 / n_reads;
    let layers = [
        "xquery.parse",
        "tlc.translate",
        "tlc.analyze",
        "tlc.vm.lower",
        "tlc.exec",
        "tlc.output.serialize",
        "service.protocol.frame",
        "service.protocol.read",
    ];
    let covered: f64 = layers.iter().map(|l| per_read(l)).sum();
    let mean_of = |name: &str| {
        let (us, _, n) = span_total(spans, name, None);
        us / n.max(1) as f64
    };
    let allocs_of = |name: &str| {
        let (_, a, n) = span_total(spans, name, None);
        a / n.max(1) as f64
    };
    let untraced_p50 = median(&w.trimmed().reads);
    let batches = (w.end.batch.batches - w.start.batch.batches).max(1) as f64;
    vec![
        ("xmark.generate_ms", setup[1], "ms"),
        ("xmldb.load_ms", setup[2], "ms"),
        ("xquery.parse_us", per_read("xquery.parse"), "us"),
        ("tlc.translate_us", per_read("tlc.translate"), "us"),
        ("tlc.analyze_us", per_read("tlc.analyze"), "us"),
        ("tlc.vm.lower_us", per_read("tlc.vm.lower"), "us"),
        ("service.cache.plan_hit_rate", rate(get("plan.hits"), get("plan.misses")), "ratio"),
        ("service.cache.plan_evictions", get("plan.evictions"), "count"),
        ("service.cache.match_hit_rate", rate(get("match.hits"), get("match.misses")), "ratio"),
        ("tlc.exec_us", per_read("tlc.exec"), "us"),
        ("tlc.exec.probes", get("exec.probes") / prefix_ops, "count"),
        ("tlc.exec.nodes_inspected", get("exec.nodes_inspected") / prefix_ops, "count"),
        ("tlc.exec.candidate_fetches", get("exec.candidate_fetches") / prefix_ops, "count"),
        ("tlc.exec.struct_cmps", get("exec.struct_cmps") / prefix_ops, "count"),
        ("tlc.exec.join_steps", get("exec.join_steps") / prefix_ops, "count"),
        ("tlc.exec.trees_built", get("exec.trees_built") / prefix_ops, "count"),
        ("tlc.output.serialize_us", per_read("tlc.output.serialize"), "us"),
        ("tlc.output.bytes_per_req", w.read_bytes as f64 / w.reads.max(1) as f64, "bytes"),
        (
            "service.protocol.frame_us",
            per_read("service.protocol.frame") + per_read("service.protocol.read"),
            "us",
        ),
        ("service.pool.queue_wait_us_p50", histogram_quantile(&w.end.queue, 0.5), "us"),
        ("service.pool.queue_wait_us_p99", histogram_quantile(&w.end.queue, 0.99), "us"),
        (
            "service.pool.jobs_per_batch",
            (w.end.batch.jobs - w.start.batch.jobs) as f64 / batches,
            "count",
        ),
        ("service.overhead_us", per_read("client.read") - covered, "us"),
        ("xmldb.clone_ms", mean_of("xmldb.clone") / 1e3, "ms"),
        ("xmldb.update_us", mean_of("xmldb.update"), "us"),
        ("service.commit_ms", mean_of("service.commit") / 1e3, "ms"),
        ("service.carry.plans_seeded_per_write", per_write(carry.plans), "count"),
        ("service.carry.matches_seeded_per_write", per_write(carry.matches), "count"),
        ("xmldb.renumbered_per_write", per_write(carry.renumbered), "count"),
        ("alloc.per_req", get("allocs") / prefix_ops, "count"),
        ("alloc.xmark.generate", setup[3], "count"),
        ("alloc.xmldb.load", setup[4], "count"),
        ("alloc.xquery.parse", allocs_of("xquery.parse"), "count"),
        ("alloc.tlc.translate", allocs_of("tlc.translate"), "count"),
        ("alloc.tlc.analyze", allocs_of("tlc.analyze"), "count"),
        ("alloc.tlc.vm.lower", allocs_of("tlc.vm.lower"), "count"),
        ("alloc.tlc.exec", allocs_of("tlc.exec"), "count"),
        ("alloc.tlc.output.serialize", allocs_of("tlc.output.serialize"), "count"),
        ("alloc.service.protocol.frame", allocs_of("service.protocol.frame"), "count"),
        ("alloc.xmldb.clone", allocs_of("xmldb.clone"), "count"),
        ("alloc.xmldb.update", allocs_of("xmldb.update"), "count"),
        ("alloc.service.commit", allocs_of("service.commit"), "count"),
        ("process.peak_rss_mb", peak_rss_mb(), "MiB"),
        ("tracing.overhead_pct", (median(&traced_lat) - untraced_p50) / untraced_p50 * 100.0, "%"),
        ("service.error_rate", out.failed as f64 / out.attempted.max(1) as f64, "ratio"),
        ("determinism.drift", drift as f64, "count"),
    ]
}

/// Writes the traced half's spans, one JSON object per line, replacing the
/// previous file for this workload.
fn write_spans(spec: &Spec, spans: &[Span]) {
    let mut text = String::with_capacity(spans.len() * 120);
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"rid\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"dur_us\": {:.3}, \"allocs\": {}}}",
            s.rid,
            s.id,
            s.parent,
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.dur.as_secs_f64() * 1e6,
            s.allocs
        );
    }
    let path = std::path::Path::new(OUT_DIR).join(format!("spans-{}.jsonl", spec.name));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => eprintln!("perfbench: {} span(s) written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let mut h = Histogram::default();
        for us in 1..=1000 {
            h.record(Duration::from_micros(us));
        }
        assert!((histogram_quantile(&h, 0.5) - 500.0).abs() < 5.0);
        assert!((histogram_quantile(&h, 0.99) - 990.0).abs() < 10.0);
        assert!(histogram_quantile(&h, 0.99) <= 1000.0);
    }

    #[test]
    fn trimming_drops_the_slowest_slices() {
        // One-second slices; slice 3 is starved and slice 7 is flooded.
        let mut samples = Vec::new();
        for slice in 0..SLICES {
            let n = match slice {
                3 => 1,
                7 => 50,
                _ => 10,
            };
            for k in 0..n {
                let at = slice as f64 + k as f64 / n as f64;
                let us = if slice == 3 { 1e6 } else { 100.0 };
                samples.push(Sample { at, us, write: false, class: 0 });
            }
        }
        let zero = Counters {
            exec: ExecStats::new(),
            plan: CacheStats::default(),
            matches: CacheStats::default(),
            db: DbCounters::default(),
            batch: BatchStats::default(),
            queue: Histogram::default(),
            allocs: 0,
        };
        let w = Window {
            elapsed: Duration::from_secs(SLICES as u64),
            planned: Some(Duration::from_secs(SLICES as u64)),
            cpu_marks: (0..=SLICES as u64).map(Duration::from_secs).collect(),
            ops: samples.len(),
            samples,
            reads: 0,
            read_bytes: 0,
            peak_heap: 0,
            start: zero.clone(),
            end: zero,
            prefix: None,
        };
        let t = w.trimmed();
        let kept = SLICES - TRIM;
        assert_eq!(t.ops, 10 * (kept - 1) + 50, "the starved slice goes, the flooded one stays");
        assert!(t.reads.iter().all(|&us| us == 100.0));
        assert_eq!(t.cpu, Some(Duration::from_secs(kept as u64)));
        assert_eq!(t.secs, kept as f64);
    }
}
