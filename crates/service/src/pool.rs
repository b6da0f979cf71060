//! The worker pool: bounded admission, a plain FIFO queue, clean shutdown.
//!
//! Requests wait in a bounded `VecDeque` behind a `Mutex` + `Condvar`; a
//! full queue rejects at admission ([`crate::ServiceError::Overloaded`])
//! instead of building an unbounded backlog — the service degrades by
//! shedding load, not by growing latency without limit. A worker that
//! wakes pops the front job and runs it; one job per wake-up, in
//! admission order. A job's deadline is re-checked when it is dequeued, so
//! time spent queued counts against it.
//!
//! Each worker is a plain `std::thread`. Deadline aborts inside execution
//! are cooperative (see `tlc::exec`), so a timed-out request returns a
//! typed error and the worker moves on — nothing is left wedged.
//!
//! **Panics.** A job's closure runs under `catch_unwind`: a panic is
//! answered with [`Reply::Panicked`] and the worker goes on to the next
//! job, so a panicking request costs neither a worker nor its caller's
//! connection. The closure runs outside the queue lock, so the lock is
//! never poisoned by it.
//!
//! Dropping the pool closes admission; workers drain what was already
//! admitted and exit, and `Drop` joins them all.
//!
//! **Abandonment.** The reply channel is a `sync_channel(1)`, so a worker's
//! send always succeeds (or observes disconnection) without blocking: a
//! caller that gave up waiting ([`crate::ServiceConfig::client_wait`]) and
//! dropped its receiver costs the worker nothing — the job's result is
//! discarded and the worker moves to the next job. Abandonment is a
//! client-side decision; the pool itself never cancels running work.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of queued work: a closure producing a `T`, the reply slot, the
/// request's absolute deadline (checked again at dequeue), and the
/// admission timestamp the queue-wait measurement is taken from.
struct Job<T> {
    deadline: Option<Instant>,
    submitted: Instant,
    work: Box<dyn FnOnce() -> T + Send>,
    reply: SyncSender<Reply<T>>,
}

/// What the worker sends back. Every reply carries the measured
/// submit→dequeue wait, so the service can report queue pressure separately
/// from execution latency.
pub enum Reply<T> {
    /// The closure's result.
    Done {
        /// The closure's return value.
        value: T,
        /// How long the job sat in the queue before a worker picked it up.
        queue_wait: Duration,
    },
    /// The deadline had already passed when the job was dequeued; the
    /// closure never ran.
    ExpiredInQueue {
        /// How long the job sat in the queue before expiry was noticed.
        queue_wait: Duration,
    },
    /// The closure panicked; the worker caught the panic and lives on.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
        /// How long the job sat in the queue before a worker picked it up.
        queue_wait: Duration,
    },
}

/// Why a submission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity.
    QueueFull,
    /// The pool is shutting down.
    Disconnected,
}

/// Cumulative dispatch counters; read through [`Pool::batch_stats`]. Every
/// dispatch runs exactly one job, so `batches == jobs` and `max_batch` is 1
/// once anything ran (the fields keep the shape external readers use).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Dispatches performed.
    pub batches: u64,
    /// Jobs run across all dispatches.
    pub jobs: u64,
    /// Largest number of jobs one dispatch ran.
    pub max_batch: u64,
}

struct State<T> {
    jobs: VecDeque<Job<T>>,
    open: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    dispatched: AtomicU64,
}

/// Fixed-size worker pool over a bounded FIFO job queue.
pub struct Pool<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    queue_depth: usize,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> Pool<T> {
    /// Spawns `workers` threads behind a queue admitting at most
    /// `queue_depth` waiting jobs.
    pub fn new(workers: usize, queue_depth: usize) -> Pool<T> {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { jobs: VecDeque::new(), open: true }),
            available: Condvar::new(),
            dispatched: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tlc-service-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Pool { shared, queue_depth: queue_depth.max(1), workers: handles }
    }

    /// Queues `work`; returns the reply channel to block on. Fails fast if
    /// the queue is full.
    pub fn submit(
        &self,
        deadline: Option<Instant>,
        work: Box<dyn FnOnce() -> T + Send>,
    ) -> Result<Receiver<Reply<T>>, SubmitError> {
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = Job { deadline, submitted: Instant::now(), work, reply: reply_tx };
        {
            let mut st = self.shared.state.lock().unwrap();
            if !st.open {
                return Err(SubmitError::Disconnected);
            }
            if st.jobs.len() >= self.queue_depth {
                return Err(SubmitError::QueueFull);
            }
            st.jobs.push_back(job);
        }
        self.shared.available.notify_one();
        Ok(reply_rx)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Cumulative dispatch counters.
    pub fn batch_stats(&self) -> BatchStats {
        let n = self.shared.dispatched.load(Ordering::Relaxed);
        BatchStats { batches: n, jobs: n, max_batch: n.min(1) }
    }
}

impl<T: Send + 'static> Drop for Pool<T> {
    fn drop(&mut self) {
        // Closing admission ends the worker loops once the queue drains.
        self.shared.state.lock().unwrap().open = false;
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop<T>(shared: Arc<Shared<T>>) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    break job;
                }
                if !st.open {
                    return; // queue drained and admission closed: shut down
                }
                st = shared.available.wait(st).unwrap();
            }
        };
        shared.dispatched.fetch_add(1, Ordering::Relaxed);
        let queue_wait = job.submitted.elapsed();
        let reply = match job.deadline {
            Some(d) if Instant::now() >= d => Reply::ExpiredInQueue { queue_wait },
            _ => match catch_unwind(AssertUnwindSafe(job.work)) {
                Ok(value) => Reply::Done { value, queue_wait },
                Err(payload) => Reply::Panicked { message: panic_message(&*payload), queue_wait },
            },
        };
        // The requester may have given up (e.g. its own recv timeout);
        // a dead reply channel is not a worker error.
        let _ = job.reply.send(reply);
    }
}

/// The text of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => (*s).to_string(),
        (None, Some(s)) => s.clone(),
        (None, None) => "non-string panic payload".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn executes_submitted_work() {
        let pool: Pool<i32> = Pool::new(2, 8);
        let rx = pool.submit(None, Box::new(|| 40 + 2)).unwrap();
        match rx.recv().unwrap() {
            Reply::Done { value, queue_wait } => {
                assert_eq!(value, 42);
                assert!(queue_wait < Duration::from_secs(5));
            }
            _ => panic!("no deadline was set and the job cannot panic"),
        }
        let s = pool.batch_stats();
        assert_eq!((s.batches, s.jobs, s.max_batch), (1, 1, 1));
    }

    #[test]
    fn full_queue_rejects_immediately() {
        // One worker, queue depth 1: park the worker, fill the queue, then
        // the next submit must be rejected.
        let pool: Pool<()> = Pool::new(1, 1);
        let (block_tx, block_rx) = sync_channel::<()>(0);
        let _busy = pool
            .submit(
                None,
                Box::new(move || {
                    let _ = block_rx.recv();
                }),
            )
            .unwrap();
        // Wait for the worker to pick the blocking job up, then fill the queue.
        std::thread::sleep(Duration::from_millis(50));
        let _queued = pool.submit(None, Box::new(|| ())).unwrap();
        let rejected = pool.submit(None, Box::new(|| ()));
        assert_eq!(rejected.unwrap_err(), SubmitError::QueueFull);
        block_tx.send(()).unwrap();
    }

    #[test]
    fn queued_past_deadline_never_runs() {
        let pool: Pool<i32> = Pool::new(1, 4);
        let past = Instant::now() - Duration::from_millis(1);
        let rx = pool.submit(Some(past), Box::new(|| panic!("must not run"))).unwrap();
        assert!(matches!(rx.recv().unwrap(), Reply::ExpiredInQueue { .. }));
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let pool: Pool<u64> = Pool::new(4, 16);
        let receivers: Vec<_> =
            (0..8).map(|i| pool.submit(None, Box::new(move || i)).unwrap()).collect();
        drop(pool); // drains the queue, joins the threads
        for (i, rx) in receivers.into_iter().enumerate() {
            match rx.recv().unwrap() {
                Reply::Done { value, .. } => assert_eq!(value, i as u64),
                _ => panic!("no deadline"),
            }
        }
    }

    #[test]
    fn worker_survives_an_abandoned_reply_channel() {
        // The caller drops its receiver before the job runs — the deadlock
        // risk a rendezvous reply channel would have. The worker must shrug
        // and keep serving.
        let pool: Pool<i32> = Pool::new(1, 4);
        let (block_tx, block_rx) = sync_channel::<()>(0);
        let gate = pool
            .submit(
                None,
                Box::new(move || {
                    let _ = block_rx.recv();
                    0
                }),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(20)); // worker is now parked in the gate job
        let abandoned = pool.submit(None, Box::new(|| 7)).unwrap();
        drop(abandoned); // caller gives up while the job is still queued
        block_tx.send(()).unwrap(); // release the worker: it runs the abandoned job next
        drop(gate);
        // The same (sole) worker still answers later submissions.
        let rx = pool.submit(None, Box::new(|| 99)).unwrap();
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            Reply::Done { value, .. } => assert_eq!(value, 99),
            _ => panic!("no deadline"),
        }
    }

    #[test]
    fn queue_wait_reflects_time_spent_queued() {
        // One busy worker: the second job must wait for the first to finish,
        // and its reported queue wait must cover that delay.
        let pool: Pool<()> = Pool::new(1, 4);
        let _busy =
            pool.submit(None, Box::new(|| std::thread::sleep(Duration::from_millis(60)))).unwrap();
        std::thread::sleep(Duration::from_millis(10)); // let the worker pick it up
        let rx = pool.submit(None, Box::new(|| ())).unwrap();
        match rx.recv().unwrap() {
            Reply::Done { queue_wait, .. } => {
                assert!(queue_wait >= Duration::from_millis(30), "waited only {queue_wait:?}");
            }
            _ => panic!("no deadline"),
        }
    }

    #[test]
    fn submit_after_shutdown_is_disconnected() {
        let pool: Pool<i32> = Pool::new(1, 4);
        let shared = Arc::clone(&pool.shared);
        drop(pool);
        // Simulate a racing submitter observing the closed queue.
        let closed = !shared.state.lock().unwrap().open;
        assert!(closed);
    }
}
