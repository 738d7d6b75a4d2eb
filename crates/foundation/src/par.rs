//! A zero-dependency work-stealing parallel substrate on one persistent
//! thread pool.
//!
//! The workspace is hermetic (no registry dependencies, enforced by
//! `tests/hermetic.rs`), so rayon is off the table; this module covers
//! the workloads the reproduction actually has — embarrassingly
//! parallel sweeps, per-DBC simulation, portfolio/multi-start
//! placement, and bound-sharing branch and bound — with nothing but
//! `std::thread`, atomics, a mutex and two condvars.
//!
//! # Scheduling
//!
//! [`par_map`] / [`par_map_indexed`] split the index range into one
//! contiguous block per worker. Each worker claims indices from the
//! front of its own block; a worker whose block runs dry *steals the
//! back half* of the richest remaining block (classic range-stealing),
//! falling back to single-index claims for blocks too small to split.
//! All claims go through atomics, so no index is ever processed twice
//! and none is dropped. [`par_map_mut`] hands items out from a shared
//! queue instead.
//!
//! The workers come from one persistent helper pool, started lazily
//! on the first parallel call. Helpers park on a condvar between jobs;
//! helper `k` only ever runs as worker `k`. The calling thread is
//! worker 0: it posts the job, wakes the helpers, and runs the same
//! claim/steal loop. A worker with nothing left to claim or steal
//! leaves the job, and the caller then waits on a second condvar until
//! every helper that joined has left — nobody spins. The pool grows to
//! the largest `workers − 1` any call has asked for, never shrinks,
//! and its helpers live for the whole process.
//!
//! The pool runs one job at a time. A call that finds it busy — one
//! nested inside a job's item, or one issued concurrently from another
//! thread — runs every block on its own thread, which the steal loop
//! already allows: one worker alone finishes them all, with the same
//! results. Such calls are counted in `dwm_par_pool_busy_total`.
//!
//! A panic in an item is caught on whichever worker ran it, helper or
//! caller. The remaining items still run, the caller waits for every
//! helper that joined, and only then resumes the first panic caught,
//! on the caller. Helpers survive panics.
//!
//! # Determinism
//!
//! Every `par_*` function returns results **in input order**, so a
//! computation whose per-item closure is pure produces byte-identical
//! output at any worker count. `DWM_THREADS=1` (or
//! [`override_threads`]`(1)`) forces the fully sequential path, which
//! the pool-size invariance tests in `tests/parallel.rs` compare
//! against.
//!
//! # Thread-count selection
//!
//! [`num_threads`] resolves, in order: the thread-local
//! [`override_threads_local`] value, the process-local
//! [`override_threads`] value, the `DWM_THREADS` environment variable,
//! and finally [`std::thread::available_parallelism`]. The last is
//! resolved once per process (it reads cgroup files, ~20 µs a call);
//! `DWM_THREADS` and both overrides are read on every call, so
//! changing them in-process takes effect at the next call.
//!
//! # Priority lanes
//!
//! Foreground work (a request being answered right now) and background
//! work (speculative refinement that only matters eventually) share one
//! machine. [`IdleLane`] is the background side of that split: a single
//! dedicated worker that runs queued jobs **sequentially** (thread-local
//! override pinned to 1) and only starts a job while no section marked
//! with [`enter_foreground`] is in flight. Foreground latency therefore
//! pays at most one core of background interference, and only for the
//! remainder of a job that was already running when the request
//! arrived.

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::obs;

/// Process-local thread-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread thread-count override; 0 means "not set". Outranks
    /// the process-global override so a background worker can pin
    /// itself sequential without perturbing foreground `par_*` calls.
    static LOCAL_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Serializes tests (across this crate's test binary) that install
/// thread overrides, since the override is process-global.
#[cfg(test)]
pub(crate) static TEST_OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Restores the previous [`override_threads`] value when dropped.
#[derive(Debug)]
#[must_use = "the override is reverted when the guard drops"]
pub struct ThreadOverrideGuard {
    prev: usize,
}

impl Drop for ThreadOverrideGuard {
    fn drop(&mut self) {
        OVERRIDE.store(self.prev, Ordering::SeqCst);
    }
}

/// Overrides the worker count for the current process until the
/// returned guard drops. Takes precedence over `DWM_THREADS`. Used by
/// the bench harness to time the same workload at several thread
/// counts, and by tests that must not touch the process environment.
pub fn override_threads(n: usize) -> ThreadOverrideGuard {
    ThreadOverrideGuard {
        prev: OVERRIDE.swap(n, Ordering::SeqCst),
    }
}

/// Restores the previous [`override_threads_local`] value when dropped.
/// Not `Send`: the guard must drop on the thread that installed it.
#[derive(Debug)]
#[must_use = "the override is reverted when the guard drops"]
pub struct LocalThreadOverrideGuard {
    prev: usize,
    _not_send: PhantomData<*const ()>,
}

impl Drop for LocalThreadOverrideGuard {
    fn drop(&mut self) {
        LOCAL_OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Overrides the worker count for the **current thread only** until the
/// returned guard drops. Outranks [`override_threads`] and
/// `DWM_THREADS`, so one thread can run sequentially (or wider) while
/// the rest of the process is unaffected — the [`IdleLane`] worker pins
/// itself to 1 this way.
pub fn override_threads_local(n: usize) -> LocalThreadOverrideGuard {
    LocalThreadOverrideGuard {
        prev: LOCAL_OVERRIDE.with(|c| c.replace(n)),
        _not_send: PhantomData,
    }
}

/// The worker count `par_*` calls will use right now.
///
/// Resolution order: [`override_threads_local`], then
/// [`override_threads`], then the `DWM_THREADS` environment variable
/// (values `>= 1`; `0` or garbage fall through), then
/// [`std::thread::available_parallelism`], resolved once per process.
/// Always `>= 1`.
pub fn num_threads() -> usize {
    let local = LOCAL_OVERRIDE.with(Cell::get);
    if local > 0 {
        return local;
    }
    let over = OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return over;
    }
    if let Some(n) = std::env::var("DWM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Count of foreground sections currently in flight (process-wide).
static FOREGROUND: AtomicUsize = AtomicUsize::new(0);

/// Marks the current code path as foreground until dropped; see
/// [`enter_foreground`].
#[derive(Debug)]
#[must_use = "foreground status ends when the guard drops"]
pub struct ForegroundGuard(());

impl Drop for ForegroundGuard {
    fn drop(&mut self) {
        FOREGROUND.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Declares that latency-sensitive foreground work is in flight until
/// the returned guard drops. While any foreground section is active,
/// every [`IdleLane`] defers *starting* queued jobs — a request never
/// waits behind speculative background work for a core.
pub fn enter_foreground() -> ForegroundGuard {
    FOREGROUND.fetch_add(1, Ordering::SeqCst);
    ForegroundGuard(())
}

/// Whether any [`enter_foreground`] section is currently in flight.
pub fn foreground_active() -> bool {
    FOREGROUND.load(Ordering::SeqCst) > 0
}

struct LaneShared {
    queue: Mutex<LaneQueue>,
    cv: Condvar,
    closed: AtomicBool,
    executed: AtomicU64,
}

struct LaneJob {
    /// Scheduling priority: highest weight runs first.
    weight: u64,
    /// Submission sequence number: FIFO tie-break within a weight.
    seq: u64,
    job: Box<dyn FnOnce() + Send>,
}

struct LaneQueue {
    jobs: Vec<LaneJob>,
    next_seq: u64,
    running: bool,
}

impl LaneQueue {
    /// Removes and returns the highest-priority job: maximum weight,
    /// ties broken by submission order (lowest sequence first), so an
    /// all-equal-weight queue drains exactly FIFO.
    fn pop_best(&mut self) -> Option<Box<dyn FnOnce() + Send>> {
        let best = self
            .jobs
            .iter()
            .enumerate()
            .max_by_key(|(_, j)| (j.weight, std::cmp::Reverse(j.seq)))
            .map(|(i, _)| i)?;
        Some(self.jobs.remove(best).job)
    }
}

/// An idle-priority background lane: one dedicated worker draining a
/// weighted queue of jobs (highest weight first, FIFO within a
/// weight), each run **sequentially** (thread-local override
/// pinned to 1) and only started while no [`enter_foreground`] section
/// is in flight.
///
/// The lane is the substrate for `dwm-serve`'s background solve
/// upgrades: heavier solvers re-run cached workloads without stealing
/// cycles from the requests that are being answered right now. Jobs
/// must be self-contained (`FnOnce() + Send + 'static`); a panicking
/// job is swallowed so the lane survives. Dropping the lane finishes
/// the job in progress, discards the rest of the queue, and joins the
/// worker.
pub struct IdleLane {
    shared: Arc<LaneShared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for IdleLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdleLane")
            .field("pending", &self.pending())
            .field("executed", &self.executed())
            .finish()
    }
}

impl Default for IdleLane {
    fn default() -> Self {
        Self::new()
    }
}

impl IdleLane {
    /// Starts the lane and its worker thread.
    pub fn new() -> Self {
        let shared = Arc::new(LaneShared {
            queue: Mutex::new(LaneQueue {
                jobs: Vec::new(),
                next_seq: 0,
                running: false,
            }),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
            executed: AtomicU64::new(0),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("dwm-idle-lane".into())
            .spawn(move || Self::run_worker(&worker_shared))
            .expect("spawning the idle-lane worker");
        IdleLane {
            shared,
            worker: Some(worker),
        }
    }

    fn run_worker(shared: &LaneShared) {
        loop {
            let job = {
                let mut q = shared.queue.lock().expect("lane queue poisoned");
                loop {
                    if shared.closed.load(Ordering::SeqCst) {
                        return;
                    }
                    if q.jobs.is_empty() {
                        q = shared
                            .cv
                            .wait_timeout(q, Duration::from_millis(50))
                            .expect("lane queue poisoned")
                            .0;
                        continue;
                    }
                    // Idle priority: defer while a foreground section
                    // is in flight — *before* selecting a job, so the
                    // weight order is decided when the lane actually
                    // resumes. Popping first would take the best job
                    // of a quiet moment hostage while hotter work
                    // arrives behind it. The lock is released across
                    // the sleep so submitters never queue behind the
                    // poll, and shutdown cuts the wait short so drop
                    // never hangs behind a busy foreground. The poll
                    // interval is a foreground-visible cost on a
                    // loaded single-core box — every wakeup steals a
                    // context switch from whatever is running — so it
                    // is deliberately coarse; background jobs can
                    // afford to start a millisecond late.
                    if foreground_active() {
                        drop(q);
                        std::thread::sleep(Duration::from_millis(1));
                        q = shared.queue.lock().expect("lane queue poisoned");
                        continue;
                    }
                    let job = q.pop_best().expect("queue checked non-empty");
                    q.running = true;
                    break job;
                }
            };
            {
                let _pin = override_threads_local(1);
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            }
            shared.executed.fetch_add(1, Ordering::SeqCst);
            let mut q = shared.queue.lock().expect("lane queue poisoned");
            q.running = false;
            drop(q);
            shared.cv.notify_all();
        }
    }

    /// Enqueues a job at the baseline priority (weight 0). Equal-weight
    /// jobs run in submission order, one at a time. Jobs submitted
    /// after shutdown began are dropped.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.submit_weighted(0, job);
    }

    /// Enqueues a job with an explicit scheduling weight: the queued
    /// job with the **highest** weight runs next, ties broken FIFO.
    /// The weight orders only *queued* jobs — a running job is never
    /// preempted. `dwm-serve` passes the solve-cache hit count here so
    /// the hottest fingerprints upgrade first. Jobs submitted after
    /// shutdown began are dropped.
    pub fn submit_weighted<F: FnOnce() + Send + 'static>(&self, weight: u64, job: F) {
        if self.shared.closed.load(Ordering::SeqCst) {
            return;
        }
        let mut q = self.shared.queue.lock().expect("lane queue poisoned");
        let seq = q.next_seq;
        q.next_seq += 1;
        q.jobs.push(LaneJob {
            weight,
            seq,
            job: Box::new(job),
        });
        drop(q);
        self.shared.cv.notify_all();
    }

    /// Jobs queued or currently running.
    pub fn pending(&self) -> usize {
        let q = self.shared.queue.lock().expect("lane queue poisoned");
        q.jobs.len() + usize::from(q.running)
    }

    /// Total jobs the lane has finished (including panicked ones).
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::SeqCst)
    }

    /// Blocks until the lane is empty (no queued or running job) or the
    /// timeout elapses; returns `true` when it drained. Tests and the
    /// bench harness use this to make background completion a
    /// synchronization point instead of a race.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut q = self.shared.queue.lock().expect("lane queue poisoned");
        while !q.jobs.is_empty() || q.running {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            q = self
                .shared
                .cv
                .wait_timeout(q, (deadline - now).min(Duration::from_millis(20)))
                .expect("lane queue poisoned")
                .0;
        }
        true
    }
}

impl Drop for IdleLane {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// A shared monotonically decreasing `u64` — the atomic-best reducer
/// for branch-and-bound incumbent sharing.
///
/// Workers publish every improvement with [`improve`](Self::improve)
/// and prune against [`get`](Self::get). Because the value only ever
/// decreases toward the true optimum, sharing it across threads cannot
/// change *what* the search converges to, only how fast subtrees are
/// pruned.
#[derive(Debug)]
pub struct AtomicMin(AtomicU64);

impl AtomicMin {
    /// A reducer starting at `initial` (typically a heuristic seed
    /// cost, so pruning bites from the first node).
    pub fn new(initial: u64) -> Self {
        AtomicMin(AtomicU64::new(initial))
    }

    /// The current best value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Publishes `candidate`; returns `true` when it strictly improved
    /// the shared best.
    pub fn improve(&self, candidate: u64) -> bool {
        self.0.fetch_min(candidate, Ordering::SeqCst) > candidate
    }
}

/// One `par_*` call's per-worker body: `job(w)` runs as worker `w`.
/// Run as worker 0 alone it must finish every item itself (the claim
/// and steal loops do), since helpers may never join.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

/// The persistent helper pool behind every multi-worker `par_*` call
/// (see the module docs' Scheduling section).
struct Pool {
    state: Mutex<PoolState>,
    /// Helpers park here between jobs.
    job_posted: Condvar,
    /// The caller waits here for the helpers that joined its job.
    helpers_left: Condvar,
}

struct PoolState {
    /// Helper threads spawned so far; helper `k` (from 1) only ever
    /// runs as worker `k`.
    helpers: usize,
    /// Whether a call owns the pool: from posting its job until every
    /// helper that joined it has left.
    owned: bool,
    /// The owning call's job, while helpers may still join it.
    job: Option<&'static Job<'static>>,
    /// Worker count of the posted job; helpers `k < workers` join it.
    workers: usize,
    /// Number of the posted job, so a helper joins each job once.
    seq: u64,
    /// Helpers inside the posted job right now.
    active: usize,
    /// The first panic caught in the posted job.
    panic: Option<Box<dyn Any + Send>>,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        helpers: 0,
        owned: false,
        job: None,
        workers: 0,
        seq: 0,
        active: 0,
        panic: None,
    }),
    job_posted: Condvar::new(),
    helpers_left: Condvar::new(),
};

fn helpers_gauge() -> &'static obs::Gauge {
    crate::obs_gauge!(
        "dwm_par_pool_helpers",
        "Helper threads the persistent par pool has spawned"
    )
}

fn busy_counter() -> &'static obs::Counter {
    crate::obs_counter!(
        "dwm_par_pool_busy_total",
        "Parallel par calls that found the pool busy and ran alone on the caller"
    )
}

/// Registers the pool's metrics in the [`obs::global`] registry, so a
/// scrape lists them (at zero) before the first parallel call.
pub fn register_obs_metrics() {
    let _ = (helpers_gauge(), busy_counter());
}

impl Pool {
    /// Locks the pool state. A poisoned lock is recovered rather than
    /// propagated: no user code runs under it and every update is a
    /// plain field store, so the state is valid at every step, and the
    /// caller's wait in [`run_job`] must not unwind (see its SAFETY
    /// comment).
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits on `cv`, recovering a poisoned lock like [`Pool::lock`].
    fn wait<'a>(cv: &Condvar, st: MutexGuard<'a, PoolState>) -> MutexGuard<'a, PoolState> {
        cv.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    /// Spawns helpers until there are `helpers`. A failed spawn stops
    /// the growth without an error: fewer helpers only means fewer
    /// workers, since the caller can finish every block alone.
    fn grow(&self, st: &mut PoolState, helpers: usize) {
        while st.helpers < helpers {
            let k = st.helpers + 1;
            // Helpers live for the whole process, so the handle is
            // dropped; a helper never unwinds (jobs run under
            // `catch_unwind` and the lock recovers from poisoning).
            let spawned = std::thread::Builder::new()
                .name(format!("dwm-par-{k}"))
                .spawn(move || POOL.helper(k));
            if spawned.is_err() {
                break;
            }
            st.helpers = k;
            helpers_gauge().set_always(k as i64);
        }
    }

    /// Helper `k`'s loop: join each posted job that has a worker slot
    /// `k`, run it, and park in between.
    fn helper(&self, k: usize) {
        let mut seen = 0;
        let mut st = self.lock();
        loop {
            match st.job {
                Some(job) if st.seq != seen && k < st.workers => {
                    seen = st.seq;
                    st.active += 1;
                    drop(st);
                    let outcome = catch_unwind(AssertUnwindSafe(|| job(k)));
                    st = self.lock();
                    if let Err(payload) = outcome {
                        st.panic.get_or_insert(payload);
                    }
                    st.active -= 1;
                    if st.active == 0 {
                        self.helpers_left.notify_one();
                    }
                }
                _ => st = Self::wait(&self.job_posted, st),
            }
        }
    }
}

/// Runs `job` on `workers` workers: worker 0 on the calling thread and
/// worker `k` on helper `k` if it joins before the caller runs out of
/// work. Returns once every item is done; a panic in any worker is
/// resumed here after the join. A busy pool runs `job(0)` alone.
fn run_job(workers: usize, job: &Job<'_>) {
    let mut st = POOL.lock();
    if st.owned {
        drop(st);
        busy_counter().inc();
        return job(0);
    }
    st.owned = true;
    POOL.grow(&mut st, workers - 1);
    // SAFETY: only the lifetime is erased. Helpers copy the reference
    // out of `st.job`, under the lock, only while it is `Some`, and
    // count themselves in `st.active` in the same critical section.
    // Below, this call sets `st.job = None`, after which no helper can
    // copy it, and then blocks until `st.active == 0`, that is, until
    // every helper that copied it has returned from `job` (a helper is
    // done with its copy before it decrements). Nothing between here
    // and that wait can unwind: the caller's own part runs under
    // `catch_unwind`, and `Pool::lock` and `Pool::wait` recover from
    // poisoning instead of panicking. So no helper uses the reference
    // after this function returns, which is before the borrow behind
    // `job` ends.
    let erased = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
    st.job = Some(erased);
    st.workers = workers;
    st.seq += 1;
    drop(st);
    POOL.job_posted.notify_all();

    let mine = catch_unwind(AssertUnwindSafe(|| job(0)));

    let mut st = POOL.lock();
    st.job = None;
    if let Err(payload) = mine {
        st.panic.get_or_insert(payload);
    }
    while st.active > 0 {
        st = Pool::wait(&POOL.helpers_left, st);
    }
    st.owned = false;
    let panic = st.panic.take();
    drop(st);
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// A contiguous index block `[start, end)` packed into one atomic so
/// claim and steal are single CAS operations.
struct Block(AtomicU64);

impl Block {
    fn new(start: usize, end: usize) -> Self {
        Block(AtomicU64::new(Self::pack(start, end)))
    }

    fn pack(start: usize, end: usize) -> u64 {
        ((start as u64) << 32) | end as u64
    }

    fn unpack(v: u64) -> (usize, usize) {
        ((v >> 32) as usize, (v & 0xFFFF_FFFF) as usize)
    }

    /// Claims the front index of the block, if any.
    fn claim(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::SeqCst);
        loop {
            let (start, end) = Self::unpack(cur);
            if start >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                Self::pack(start + 1, end),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some(start),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Number of unclaimed indices left in the block.
    fn remaining(&self) -> usize {
        let (start, end) = Self::unpack(self.0.load(Ordering::SeqCst));
        end.saturating_sub(start)
    }

    /// Steals the back half of the block (only when it holds at least
    /// two indices — singletons are claimed, not stolen). Returns the
    /// stolen range.
    fn steal_half(&self) -> Option<(usize, usize)> {
        let mut cur = self.0.load(Ordering::SeqCst);
        loop {
            let (start, end) = Self::unpack(cur);
            if end.saturating_sub(start) < 2 {
                return None;
            }
            let mid = start + (end - start).div_ceil(2);
            match self.0.compare_exchange_weak(
                cur,
                Self::pack(start, mid),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some((mid, end)),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Applies `f` to every item, returning the results **in input order**.
///
/// Work is distributed over [`num_threads`] workers with range
/// stealing; with one thread (or one item) this is a plain sequential
/// map. A panic in `f` propagates to the caller once every worker that
/// joined has stopped.
///
/// # Example
///
/// ```
/// let squares = dwm_foundation::par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(items: &[T], f: F) -> Vec<R> {
    par_map_indexed(items, |_, item| f(item))
}

/// [`par_map`] with the item index passed to the closure.
pub fn par_map_indexed<T: Sync, R: Send, F: Fn(usize, &T) -> R + Sync>(
    items: &[T],
    f: F,
) -> Vec<R> {
    let n = items.len();
    let workers = num_threads().min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    assert!(n < u32::MAX as usize, "index range too large to pack");

    // One contiguous block per worker; sizes differ by at most one.
    let blocks: Vec<Block> = (0..workers)
        .map(|w| Block::new(w * n / workers, (w + 1) * n / workers))
        .collect();
    let gathered = Mutex::new(Vec::with_capacity(workers));

    let run_worker = |me: usize| {
        let mut out = Vec::new();
        loop {
            if let Some(i) = blocks[me].claim() {
                out.push((i, f(i, &items[i])));
                continue;
            }
            // Own block dry: steal the back half of the richest block.
            let victim = (0..blocks.len())
                .filter(|&w| w != me)
                .max_by_key(|&w| (blocks[w].remaining(), w));
            if let Some((start, end)) = victim.and_then(|w| blocks[w].steal_half()) {
                // No other worker installs into our slot (they only
                // shrink blocks with >= 2 items; ours is empty).
                blocks[me]
                    .0
                    .store(Block::pack(start, end), Ordering::SeqCst);
                continue;
            }
            // Nothing to split: drain stragglers one index at a time.
            if let Some(i) = blocks.iter().find_map(Block::claim) {
                out.push((i, f(i, &items[i])));
                continue;
            }
            // Every index is claimed; the ones still running finish on
            // the workers that claimed them.
            break;
        }
        gathered.lock().expect("result list poisoned").push(out);
    };
    run_job(workers, &run_worker);
    into_ordered(n, gathered)
}

/// Applies `f` to every item through a mutable reference, returning the
/// results in input order. Items are handed out from a shared queue
/// (coarse tasks — per-DBC simulation — are the intended use), so
/// uneven items still balance across workers.
pub fn par_map_mut<T: Send, R: Send, F: Fn(usize, &mut T) -> R + Sync>(
    items: &mut [T],
    f: F,
) -> Vec<R> {
    let n = items.len();
    let workers = num_threads().min(n);
    if workers <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let queue: Mutex<Vec<(usize, &mut T)>> = Mutex::new(items.iter_mut().enumerate().collect());
    let gathered = Mutex::new(Vec::with_capacity(workers));
    run_job(workers, &|_| {
        let mut out = Vec::new();
        loop {
            let task = queue.lock().expect("queue poisoned").pop();
            match task {
                Some((i, item)) => out.push((i, f(i, item))),
                None => break,
            }
        }
        gathered.lock().expect("result list poisoned").push(out);
    });
    into_ordered(n, gathered)
}

/// Reassembles the workers' `(index, result)` lists into input order.
fn into_ordered<R>(n: usize, gathered: Mutex<Vec<Vec<(usize, R)>>>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let lists = gathered.into_inner().expect("result list poisoned");
    for (i, r) in lists.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} produced twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index processed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::HashSet;
    use std::thread::ThreadId;

    use super::TEST_OVERRIDE_LOCK as LOCK;

    /// Runs `body` on a thread of its own and waits at most `bound` for
    /// its result; `None` when it did not finish in time (its thread is
    /// then left behind, since a hung thread cannot be joined).
    fn within<R: Send + 'static>(
        bound: Duration,
        body: impl FnOnce() -> R + Send + 'static,
    ) -> Option<R> {
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(body());
        });
        let result = rx.recv_timeout(bound).ok();
        if result.is_some() {
            thread.join().expect("the body returned");
        }
        result
    }

    /// `par_map_indexed` over 64 items at the current thread count, in
    /// which every item first waits (until one shared deadline) for
    /// `spread` distinct threads to have entered items, so each of that
    /// many workers runs at least one. Then `f(on_helper, i)` computes
    /// the item, `on_helper` telling whether a thread other than the
    /// caller runs it. Returns the results and the threads that ran
    /// items.
    fn spread_map(
        spread: usize,
        f: impl Fn(bool, usize) -> usize + Sync,
    ) -> (Vec<usize>, HashSet<ThreadId>) {
        let caller = std::thread::current().id();
        let seen = Mutex::new(HashSet::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        let out = par_map_indexed(&[(); 64], |i, _| {
            let me = std::thread::current().id();
            seen.lock().unwrap().insert(me);
            while seen.lock().unwrap().len() < spread && Instant::now() < deadline {
                std::thread::yield_now();
            }
            f(me != caller, i)
        });
        (out, seen.into_inner().unwrap())
    }

    /// Deterministic per-item work whose cost grows with `x`.
    fn skewed(x: u64) -> u64 {
        let mut acc = x;
        for _ in 0..(x * 37) % 4096 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        acc
    }

    #[test]
    fn par_map_preserves_input_order() {
        let _l = LOCK.lock().unwrap();
        let _g = override_threads(8);
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_indexed_passes_correct_indices() {
        let _l = LOCK.lock().unwrap();
        let _g = override_threads(4);
        let items = vec!["a"; 257];
        let out = par_map_indexed(&items, |i, _| i);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree_on_uneven_work() {
        let _l = LOCK.lock().unwrap();
        // Skewed cost: later items spin longer, forcing steals.
        let work = |_: usize, &x: &u64| skewed(x);
        let items: Vec<u64> = (0..500).collect();
        let seq = {
            let _g = override_threads(1);
            par_map_indexed(&items, work)
        };
        let par = {
            let _g = override_threads(7);
            par_map_indexed(&items, work)
        };
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_orders_results() {
        let _l = LOCK.lock().unwrap();
        let _g = override_threads(4);
        let mut items: Vec<u64> = (0..64).collect();
        let old = par_map_mut(&mut items, |i, x| {
            let prev = *x;
            *x += i as u64;
            prev
        });
        assert_eq!(old, (0..64).collect::<Vec<_>>());
        assert_eq!(items, (0..64).map(|i| 2 * i).collect::<Vec<_>>());
    }

    #[test]
    fn atomic_min_keeps_the_minimum() {
        let m = AtomicMin::new(100);
        assert!(m.improve(40));
        assert!(!m.improve(40));
        assert!(!m.improve(90));
        assert!(m.improve(7));
        assert_eq!(m.get(), 7);
    }

    #[test]
    fn atomic_min_under_contention() {
        let _l = LOCK.lock().unwrap();
        let _g = override_threads(8);
        let m = AtomicMin::new(u64::MAX);
        let values: Vec<u64> = (0..400).map(|i| 1000 - (i % 997)).collect();
        par_map(&values, |&v| m.improve(v));
        assert_eq!(m.get(), *values.iter().min().unwrap());
    }

    #[test]
    fn override_guard_restores_previous_value() {
        let _l = LOCK.lock().unwrap();
        let outer = override_threads(5);
        assert_eq!(num_threads(), 5);
        {
            let _inner = override_threads(2);
            assert_eq!(num_threads(), 2);
        }
        assert_eq!(num_threads(), 5);
        drop(outer);
    }

    #[test]
    fn local_override_outranks_global_and_is_thread_scoped() {
        let _l = LOCK.lock().unwrap();
        let _g = override_threads(6);
        assert_eq!(num_threads(), 6);
        {
            let _local = override_threads_local(2);
            assert_eq!(num_threads(), 2);
            // Another thread is unaffected by this thread's override.
            let other = std::thread::spawn(num_threads).join().unwrap();
            assert_eq!(other, 6);
        }
        assert_eq!(num_threads(), 6);
    }

    #[test]
    fn foreground_guard_counts_nested_sections() {
        // FOREGROUND is process-global; serialize with the other test
        // that observes it.
        let _l = LOCK.lock().unwrap();
        assert!(!foreground_active());
        let outer = enter_foreground();
        let inner = enter_foreground();
        assert!(foreground_active());
        drop(inner);
        assert!(foreground_active());
        drop(outer);
        assert!(!foreground_active());
    }

    #[test]
    fn idle_lane_runs_jobs_in_order_and_drains() {
        let lane = IdleLane::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..8 {
            let log = Arc::clone(&log);
            lane.submit(move || log.lock().unwrap().push(i));
        }
        assert!(lane.wait_idle(Duration::from_secs(10)), "lane drained");
        assert_eq!(*log.lock().unwrap(), (0..8).collect::<Vec<_>>());
        assert_eq!(lane.pending(), 0);
        assert_eq!(lane.executed(), 8);
    }

    #[test]
    fn idle_lane_jobs_run_sequentially_pinned() {
        let lane = IdleLane::new();
        let seen = Arc::new(Mutex::new(0usize));
        {
            let seen = Arc::clone(&seen);
            lane.submit(move || *seen.lock().unwrap() = num_threads());
        }
        assert!(lane.wait_idle(Duration::from_secs(10)));
        assert_eq!(*seen.lock().unwrap(), 1, "lane jobs are pinned to 1 thread");
    }

    #[test]
    fn idle_lane_defers_while_foreground_active() {
        let _l = LOCK.lock().unwrap();
        let lane = IdleLane::new();
        let fg = enter_foreground();
        let ran = Arc::new(AtomicBool::new(false));
        {
            let ran = Arc::clone(&ran);
            lane.submit(move || ran.store(true, Ordering::SeqCst));
        }
        assert!(
            !lane.wait_idle(Duration::from_millis(150)),
            "job must not start while a foreground section is in flight"
        );
        assert!(!ran.load(Ordering::SeqCst));
        drop(fg);
        assert!(lane.wait_idle(Duration::from_secs(10)));
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn idle_lane_drains_hotter_jobs_before_colder_ones() {
        // Weight ordering applies to *queued* jobs, so hold the lane
        // with a foreground section while everything is submitted.
        let _l = LOCK.lock().unwrap();
        let lane = IdleLane::new();
        let fg = enter_foreground();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (weight, name) in [(1, "cold"), (5, "hot"), (5, "hot-later"), (0, "coldest")] {
            let log = Arc::clone(&log);
            lane.submit_weighted(weight, move || log.lock().unwrap().push(name));
        }
        drop(fg);
        assert!(lane.wait_idle(Duration::from_secs(10)));
        assert_eq!(
            *log.lock().unwrap(),
            vec!["hot", "hot-later", "cold", "coldest"],
            "highest weight first, FIFO within a weight"
        );
    }

    #[test]
    fn idle_lane_survives_a_panicking_job() {
        let lane = IdleLane::new();
        lane.submit(|| panic!("boom"));
        let ran = Arc::new(AtomicBool::new(false));
        {
            let ran = Arc::clone(&ran);
            lane.submit(move || ran.store(true, Ordering::SeqCst));
        }
        assert!(lane.wait_idle(Duration::from_secs(10)));
        assert!(ran.load(Ordering::SeqCst), "lane survives a panic");
        assert_eq!(lane.executed(), 2);
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_helpers_survive() {
        let _l = LOCK.lock().unwrap();
        for threads in [2usize, 8] {
            let _g = override_threads(threads);
            for (side, on_helper_panics) in [("helper", true), ("caller", false)] {
                // One item panics; every other worker carries on.
                let caught = within(Duration::from_secs(30), move || {
                    let fired = AtomicBool::new(false);
                    std::panic::catch_unwind(|| {
                        spread_map(threads, |on_helper, i| {
                            if on_helper == on_helper_panics && !fired.swap(true, Ordering::SeqCst)
                            {
                                panic!("{side} item {i}");
                            }
                            i
                        })
                    })
                    .map_err(|payload| payload.downcast_ref::<String>().cloned())
                })
                .unwrap_or_else(|| panic!("a {side} panic at {threads} threads hung par_map"));
                let message = caught
                    .expect_err("the panic propagates")
                    .expect("a formatted payload");
                assert!(message.starts_with(side), "{message}");
                // The next call runs on every worker again, in order.
                let (out, ran_on) = spread_map(threads, |_, i| 3 * i);
                assert_eq!(out, (0..64).map(|i| 3 * i).collect::<Vec<_>>());
                assert_eq!(ran_on.len(), threads, "a helper died");
            }
        }
    }

    #[test]
    fn helpers_persist_across_calls() {
        let _l = LOCK.lock().unwrap();
        let _g = override_threads(4);
        let caller = std::thread::current().id();
        let (_, first) = spread_map(4, |_, i| i);
        let (_, second) = spread_map(4, |_, i| i);
        assert!(first.contains(&caller), "the caller is worker 0");
        assert_eq!(first, second, "the same threads ran both calls");
        let helpers = first.iter().filter(|&&id| id != caller).count();
        assert!(helpers <= 3, "{helpers} helper threads for 4 workers");
        assert!(helpers_gauge().value() >= 3);
    }

    #[test]
    fn nested_par_map_returns_its_sequential_result() {
        let _l = LOCK.lock().unwrap();
        let _obs_lock = obs::TEST_OVERRIDE_LOCK.lock().unwrap();
        let _on = obs::override_enabled(true);
        let _g = override_threads(4);
        let busy_before = busy_counter().value();
        let inner: Vec<u64> = (0..100).collect();
        let outer: Vec<u64> = (0..8).collect();
        let sum = |o: u64| {
            inner
                .iter()
                .map(|&x| skewed(x * o))
                .fold(0, u64::wrapping_add)
        };
        let got = par_map(&outer, |&o| {
            par_map(&inner, |&x| skewed(x * o))
                .into_iter()
                .fold(0, u64::wrapping_add)
        });
        assert_eq!(got, outer.iter().map(|&o| sum(o)).collect::<Vec<_>>());
        assert!(
            busy_counter().value() >= busy_before + 8,
            "every nested call found the pool busy"
        );
    }

    #[test]
    fn concurrent_calls_each_return_their_sequential_result() {
        let _l = LOCK.lock().unwrap();
        let _obs_lock = obs::TEST_OVERRIDE_LOCK.lock().unwrap();
        let _on = obs::override_enabled(true);
        let _g = override_threads(4);
        let busy_before = busy_counter().value();
        // This thread's call holds the pool until the other three have
        // finished theirs, and they start only once it holds it, so
        // each of them takes the busy path.
        let holding = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicUsize::new(0));
        let deadline = Instant::now() + Duration::from_secs(10);
        let sequential = |t: u64| (0..2000).map(|x| skewed(x + t)).collect::<Vec<_>>();
        let others: Vec<_> = (1..4u64)
            .map(|t| {
                let (holding, finished) = (Arc::clone(&holding), Arc::clone(&finished));
                std::thread::spawn(move || {
                    while !holding.load(Ordering::SeqCst) && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    let items: Vec<u64> = (0..2000).collect();
                    let out = par_map(&items, |&x| skewed(x + t));
                    finished.fetch_add(1, Ordering::SeqCst);
                    out
                })
            })
            .collect();
        let items: Vec<u64> = (0..2000).collect();
        let held = par_map(&items, |&x| {
            holding.store(true, Ordering::SeqCst);
            while finished.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            skewed(x)
        });
        assert_eq!(held, sequential(0));
        for (t, other) in (1..4u64).zip(others) {
            assert_eq!(other.join().unwrap(), sequential(t));
        }
        assert!(busy_counter().value() >= busy_before + 3);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _l = LOCK.lock().unwrap();
        let _g = override_threads(8);
        assert_eq!(par_map::<u64, u64, _>(&[], |&x| x), Vec::<u64>::new());
        assert_eq!(par_map(&[9u64], |&x| x + 1), vec![10]);
    }
}
