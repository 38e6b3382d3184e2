//! The engine's work-stealing thread pool for match and extraction jobs.
//!
//! Hand-rolled on `std::thread` (the workspace vendors no
//! concurrency crates): each worker owns a deque protected by its own
//! mutex; submissions are distributed round-robin; an idle worker first
//! drains its own deque from the front, then the shared injector, then
//! steals from the *back* of a sibling's deque. A single condvar parks
//! idle workers, and a `pending` count under the condvar's mutex decides
//! when to wake and when to sleep, so no job is ever lost between a
//! submit and a park.
//!
//! Jobs must not block on other pool jobs — the engine's coordinators
//! run on their own threads precisely so that waiting for an iteration's
//! outcomes never occupies a worker slot (a coordinator-as-worker design
//! deadlocks once every worker waits on jobs none of them can run).

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

#[cfg(feature = "fault-inject")]
use std::collections::HashSet;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks ignoring poisoning. Every structure in this pool (deques, the
/// pending/shutdown state) is only ever mutated through short,
/// panic-free critical sections; a poisoned lock here means a *job*
/// panicked on a worker thread after the guard was taken by someone
/// else's unwinding, and the protected data is still consistent — so
/// recover the guard instead of propagating the poison to every other
/// worker and submitter.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counters exposed by [`WorkPool::metrics`]. Monotonic over the pool's
/// lifetime.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct PoolMetrics {
    /// Jobs that finished executing on a worker (or inline after
    /// shutdown).
    pub jobs_executed: u64,
    /// Jobs a worker took from the back of a sibling's deque.
    pub jobs_stolen: u64,
    /// Highest number of queued-but-unclaimed jobs observed at any
    /// submit.
    pub peak_queue_depth: u64,
    /// Jobs whose panic the pool contained. The worker thread survives;
    /// whatever reply channel the job carried is dropped by unwinding,
    /// which is how the submitter learns the job died.
    pub jobs_panicked: u64,
    /// Dead worker threads replaced by [`WorkPool::respawn_dead`].
    pub workers_respawned: u64,
}

struct State {
    /// Queued jobs not yet claimed by any worker.
    pending: usize,
    shutdown: bool,
}

struct Shared {
    queues: Vec<Mutex<VecDeque<Job>>>,
    injector: Mutex<VecDeque<Job>>,
    state: Mutex<State>,
    wake: Condvar,
    next: AtomicUsize,
    executed: AtomicU64,
    stolen: AtomicU64,
    peak: AtomicU64,
    panicked: AtomicU64,
    respawned: AtomicU64,
    /// Worker slots ordered to abandon their loop at the next safe
    /// point (before reserving a job), simulating an abruptly lost
    /// thread. Only the `fault-inject` harness populates this.
    #[cfg(feature = "fault-inject")]
    exit_requests: Mutex<HashSet<usize>>,
}

impl Shared {
    /// Claims one queued job: own deque front, injector, then steal from
    /// a sibling's back. The caller has already reserved a job via the
    /// `pending` count, so a claim must eventually succeed; the retry
    /// loop only covers the window where a sibling pops a job this
    /// worker was about to take.
    fn claim(&self, me: usize) -> Job {
        loop {
            if let Some(job) = lock_recovering(&self.queues[me]).pop_front() {
                return job;
            }
            if let Some(job) = lock_recovering(&self.injector).pop_front() {
                return job;
            }
            for i in 0..self.queues.len() {
                if i == me {
                    continue;
                }
                if let Some(job) = lock_recovering(&self.queues[i]).pop_back() {
                    self.stolen.fetch_add(1, Ordering::Relaxed);
                    obs::instant_args("pool.steal", || {
                        vec![
                            ("by", obs::ArgValue::U64(me as u64)),
                            ("from", obs::ArgValue::U64(i as u64)),
                        ]
                    });
                    return job;
                }
            }
            std::thread::yield_now();
        }
    }

    /// Runs one job with panic containment: a panicking job is counted
    /// and swallowed so the executing thread (worker or submitter)
    /// survives. The panic payload is dropped — the job's own unwinding
    /// already released whatever reply channel it held, which is the
    /// submitter's signal.
    fn execute(&self, job: Job) {
        // Counted before the job runs: a job's last act is usually its
        // reply, so a submitter holding every reply already sees every
        // job counted (the reply channel orders the two).
        self.executed.fetch_add(1, Ordering::Relaxed);
        let mut span = obs::span("pool.job");
        if std::panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
            self.panicked.fetch_add(1, Ordering::Relaxed);
            span.arg("panicked", obs::ArgValue::U64(1));
        }
    }
}

/// The pool. Dropping it shuts the workers down after the queued jobs
/// drain; jobs submitted after shutdown run inline on the submitting
/// thread, so no submitter can deadlock on a dead pool.
pub struct WorkPool {
    shared: Arc<Shared>,
    /// One handle per worker slot; [`WorkPool::respawn_dead`] replaces
    /// finished entries in place, hence the interior mutability.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkPool {
    /// Spawns `workers` worker threads (at least one).
    pub fn new(workers: usize) -> WorkPool {
        let n = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            state: Mutex::new(State {
                pending: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            next: AtomicUsize::new(0),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
            #[cfg(feature = "fault-inject")]
            exit_requests: Mutex::new(HashSet::new()),
        });
        let handles = (0..n).map(|me| spawn_worker(&shared, me)).collect();
        WorkPool {
            shared,
            workers: Mutex::new(handles),
        }
    }

    pub fn worker_count(&self) -> usize {
        self.shared.queues.len()
    }

    /// Replaces worker threads that have exited (a panic outside job
    /// containment, or an injected exit) with fresh threads on the same
    /// slots. Queued jobs are untouched: a worker only dies at a safe
    /// point — before reserving a job — so nothing in flight is lost,
    /// and the respawned worker resumes draining the same deques.
    /// Returns the number of workers respawned. No-op after shutdown.
    pub fn respawn_dead(&self) -> usize {
        if lock_recovering(&self.shared.state).shutdown {
            return 0;
        }
        let mut workers = lock_recovering(&self.workers);
        let mut respawned = 0;
        for (me, slot) in workers.iter_mut().enumerate() {
            if !slot.is_finished() {
                continue;
            }
            let old = std::mem::replace(slot, spawn_worker(&self.shared, me));
            let _ = old.join();
            respawned += 1;
        }
        if respawned > 0 {
            self.shared
                .respawned
                .fetch_add(respawned as u64, Ordering::Relaxed);
            obs::instant_args("pool.respawn", || {
                vec![("workers", obs::ArgValue::U64(respawned as u64))]
            });
        }
        respawned
    }

    /// Orders the worker on slot `i` to exit at its next safe point
    /// (fault harness for [`WorkPool::respawn_dead`]).
    #[cfg(feature = "fault-inject")]
    pub fn inject_worker_exit(&self, i: usize) {
        lock_recovering(&self.shared.exit_requests).insert(i);
        self.shared.wake.notify_all();
    }

    /// Submits a job. Round-robin across worker deques; after shutdown
    /// the job runs inline instead.
    pub fn submit(&self, job: Job) {
        {
            let mut st = lock_recovering(&self.shared.state);
            if st.shutdown {
                drop(st);
                self.shared.execute(job);
                return;
            }
            st.pending += 1;
            self.shared
                .peak
                .fetch_max(st.pending as u64, Ordering::Relaxed);
        }
        let slot = self.shared.next.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        lock_recovering(&self.shared.queues[slot]).push_back(job);
        self.shared.wake.notify_one();
    }

    pub fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            jobs_executed: self.shared.executed.load(Ordering::Relaxed),
            jobs_stolen: self.shared.stolen.load(Ordering::Relaxed),
            peak_queue_depth: self.shared.peak.load(Ordering::Relaxed),
            jobs_panicked: self.shared.panicked.load(Ordering::Relaxed),
            workers_respawned: self.shared.respawned.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        {
            let mut st = lock_recovering(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.wake.notify_all();
        for h in lock_recovering(&self.workers).drain(..) {
            let _ = h.join();
        }
    }
}

fn spawn_worker(shared: &Arc<Shared>, me: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("engine-worker-{me}"))
        .spawn(move || worker_loop(&shared, me))
        .expect("spawn engine worker")
}

/// True when the fault harness has ordered slot `me` to die. The check
/// sits at the loop's safe points only — before a job is reserved — so
/// an injected death never strands a claimed job.
#[cfg(feature = "fault-inject")]
fn exit_requested(shared: &Shared, me: usize) -> bool {
    lock_recovering(&shared.exit_requests).remove(&me)
}

#[cfg(not(feature = "fault-inject"))]
fn exit_requested(_shared: &Shared, _me: usize) -> bool {
    false
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        {
            let mut st = lock_recovering(&shared.state);
            loop {
                if exit_requested(shared, me) {
                    return;
                }
                if st.pending > 0 {
                    st.pending -= 1;
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = shared.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
        let job = shared.claim(me);
        shared.execute(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn runs_all_jobs_across_workers() {
        let pool = WorkPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            }));
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(pool.metrics().jobs_executed, 100);
        assert!(pool.metrics().peak_queue_depth >= 1);
    }

    #[test]
    fn uneven_jobs_get_stolen() {
        // One long job head-of-line on each deque except one, then a
        // burst of short jobs: with round-robin placement the short jobs
        // land behind the long ones and must be stolen to finish fast.
        // Only assert completion (steal counts are timing-dependent).
        let pool = WorkPool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..40 {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                if i % 4 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                tx.send(i).unwrap();
            }));
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn submit_after_shutdown_runs_inline() {
        let pool = WorkPool::new(2);
        {
            let mut st = pool.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        pool.shared.wake.notify_all();
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ran);
        pool.submit(Box::new(move || {
            r2.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(ran.load(Ordering::Relaxed), 1, "inline fallback");
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        let pool = WorkPool::new(2);
        let (tx, rx) = mpsc::channel();
        // Interleave panicking jobs with normal ones on both workers.
        for i in 0..20 {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                if i % 3 == 0 {
                    panic!("injected model fault {i}");
                }
                tx.send(i).unwrap();
            }));
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        let expected: Vec<usize> = (0..20).filter(|i| i % 3 != 0).collect();
        assert_eq!(got, expected, "every non-faulted job still runs");
        // A job's reply channel drops during unwinding, *before* the pool
        // counts the panic — join the workers before reading counters.
        let shared = Arc::clone(&pool.shared);
        drop(pool);
        assert_eq!(shared.panicked.load(Ordering::Relaxed), 7);
        assert_eq!(
            shared.executed.load(Ordering::Relaxed),
            20,
            "panicked jobs count as executed"
        );
    }

    #[test]
    fn pool_survives_a_panic_while_a_queue_lock_is_poisonable() {
        // A panicking job poisons nothing the pool needs: locks are
        // recovered, and later jobs run normally.
        let pool = WorkPool::new(1);
        pool.submit(Box::new(|| panic!("first job dies")));
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(move || {
            tx.send(42u32).unwrap();
        }));
        assert_eq!(rx.recv().unwrap(), 42);
        assert_eq!(pool.metrics().jobs_panicked, 1);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkPool::new(2);
            for _ in 0..50 {
                let counter = Arc::clone(&counter);
                pool.submit(Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }));
            }
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }
}
