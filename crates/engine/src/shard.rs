//! Multi-threaded query sharding over the batch engine.
//!
//! A batch of queries is embarrassingly parallel: queries never exchange
//! state, and the [`exma_index::KStepFmIndex`] is read-only and `Sync`.
//! The [`crate::Executor`] impl of [`ShardedEngine`] cuts a
//! [`crate::QueryBatch`] into contiguous blocks — a few per thread — and
//! runs each block's lockstep rounds (search *and* locate resolution) on
//! whichever thread claims it first: the calling thread starts on the
//! first block at once, and a persistent pool of `threads − 1` parked
//! workers joins in as the workers wake. Results come back in input
//! order; per-block [`crate::BatchStats`] are merged.
//!
//! The workers are spawned once, when the engine is built, and keep
//! their own [`crate::QueryArena`] across calls, so a pooled run pays
//! one Condvar wake-up rather than a thread spawn. Claiming blocks,
//! rather than owning a fixed shard, keeps a worker that wakes late —
//! waking a parked thread on another vCPU of a busy host was measured
//! at 20–740 µs — from holding up the batch: the caller runs whatever
//! the workers have not claimed, and a worker that wakes after the last
//! block was claimed has nothing to wait for. A batch shorter than
//! [`INLINE_THRESHOLD`] is not worth even the wake-up and runs inline
//! on the caller, at exactly the serial [`crate::BatchEngine`]'s cost —
//! as does every batch of a one-thread engine, which owns no pool.
//!
//! The pool stays dependency-free (no rayon, the workspace builds
//! offline): a run hands its borrowed job to the workers through a
//! lifetime-erased pointer, the way rayon's `scope` does, and does not
//! return — or unwind — until every worker that took the job has let go
//! of it.

use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use exma_index::KStepFmIndex;

use crate::batch::{BatchConfig, BatchEngine, BatchStats};
use crate::query::{QueryArena, QueryBatch, QueryResults};

/// Batches with fewer queries than this run inline on the calling
/// thread: below it, waking a worker costs more than the worker saves.
///
/// Set from engine-only size sweeps on a 2-vCPU VM: batches of 8 to
/// 4096 queries run by the serial [`crate::BatchEngine`] and by an
/// always-pooled two-thread [`ShardedEngine`] in alternating rounds, on
/// the `human_rel` and `pinus_rel` indexes, with error-bearing 100 bp
/// reads (counted) and the serving mix (8–28 bp count, capped-locate
/// and interval queries). 64 is the smallest size where the pooled
/// engine won every round on both indexes with reads in two sweeps, and
/// with the serving mix in the final one (median gains 1.5–1.6×); at 8
/// queries it lost up to a third.
pub const INLINE_THRESHOLD: usize = 64;

/// Blocks a pooled batch is cut into per thread. More blocks let a
/// late worker take a smaller share; fewer keep more queries in each
/// lockstep round.
const BLOCKS_PER_THREAD: usize = 4;

/// How long a caller that has run out of blocks spins on the workers
/// before parking: about one block of a 512-query batch on two threads.
const LATCH_SPIN: Duration = Duration::from_micros(200);

/// A sharded, multi-threaded batch engine over a [`KStepFmIndex`].
///
/// A batch is cut into contiguous blocks, each run by a
/// [`crate::BatchEngine`] (with this engine's [`BatchConfig`]) on the
/// calling thread or on one of the engine's persistent pool workers,
/// spawned once when the engine is built. Answers are identical to
/// single-threaded execution for any thread count — block boundaries
/// only move work between threads, never change it — and are
/// property-tested to be.
///
/// Dropping the engine stops and joins its workers.
///
/// Run it through the [`crate::Executor`] trait with a
/// [`crate::QueryBatch`]; construct it through [`crate::EngineBuilder`].
#[derive(Debug)]
pub struct ShardedEngine<'a> {
    index: &'a KStepFmIndex,
    config: BatchConfig,
    /// `threads − 1` workers, each with a scratch arena; `None` for a
    /// one-thread engine.
    pool: Option<ShardPool<QueryArena>>,
    /// The caller's side of a pooled run. The lock also makes
    /// concurrent callers of one engine take turns.
    stitch: Mutex<Stitch>,
}

/// What a pooled run keeps between calls on the calling thread's side.
#[derive(Debug, Default)]
struct Stitch {
    /// Scratch for the blocks the caller runs, so the caller's own
    /// arena only ever holds the stitched answers.
    scratch: QueryArena,
    /// Each block's answers and counters, stitched in block order.
    blocks: Vec<Mutex<Block>>,
}

/// One block's output of a pooled run.
#[derive(Debug, Default)]
struct Block {
    results: QueryResults,
    stats: BatchStats,
}

impl<'a> ShardedEngine<'a> {
    /// An engine borrowing `index`, sharding across `threads` threads with
    /// the full locality schedule ([`BatchConfig::locality`]) per block.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(index: &'a KStepFmIndex, threads: usize) -> ShardedEngine<'a> {
        ShardedEngine::with_config(index, threads, BatchConfig::locality())
    }

    /// An engine with an explicit per-block round schedule. Spawns the
    /// `threads − 1` pool workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_config(
        index: &'a KStepFmIndex,
        threads: usize,
        config: BatchConfig,
    ) -> ShardedEngine<'a> {
        assert!(threads > 0, "thread count must be positive");
        ShardedEngine {
            index,
            config,
            pool: (threads > 1).then(|| ShardPool::new(threads - 1, QueryArena::new)),
            stitch: Mutex::default(),
        }
    }

    /// The index this engine queries.
    pub fn index(&self) -> &'a KStepFmIndex {
        self.index
    }

    /// Number of threads a batch is sharded across, the caller included.
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |pool| pool.workers() + 1)
    }

    /// The per-block round schedule.
    pub fn config(&self) -> BatchConfig {
        self.config
    }

    /// The worker pool, absent on a one-thread engine.
    pub(crate) fn pool(&self) -> Option<&ShardPool<QueryArena>> {
        self.pool.as_ref()
    }

    /// Runs `batch` block by block on the calling thread and `pool`'s
    /// workers, then stitches the blocks' answers into `arena` in input
    /// order. Each thread runs its blocks in a scratch arena whose
    /// answers move into the block's output by swap, so the only copy is
    /// the final stitch.
    pub(crate) fn run_pooled(
        &self,
        pool: &ShardPool<QueryArena>,
        engine: &BatchEngine<'_>,
        batch: &QueryBatch,
        arena: &mut QueryArena,
    ) -> BatchStats {
        let mut stitch = lock(&self.stitch);
        let Stitch { scratch, blocks } = &mut *stitch;
        let (_, count) = pool.blocks(batch.len());
        if blocks.len() < count {
            blocks.resize_with(count, Mutex::default);
        }
        let blocks = &blocks[..count];
        let (requests, patterns) = (batch.requests(), batch.patterns());
        let run_block = |block: usize, range: Range<usize>, scratch: &mut QueryArena| {
            let stats = engine.run_slice(&requests[range.clone()], &patterns[range], scratch);
            let mut out = lock(&blocks[block]);
            std::mem::swap(&mut out.results, &mut scratch.results);
            out.stats = stats;
        };
        pool.run(batch.len(), &run_block, |block, range| {
            run_block(block, range, scratch)
        });
        let mut stats = BatchStats::default();
        arena.results.reset(batch.len());
        for block in blocks {
            let block = lock(block);
            arena.results.append(&block.results);
            stats.absorb_shard(block.stats);
        }
        stats
    }
}

/// A job as the workers see it: called once per claimed block with the
/// block's index, its range, and the worker's slot.
type Job<'j, S> = dyn Fn(usize, Range<usize>, &mut S) + Sync + 'j;

/// A lifetime-erased pointer to the current run's [`Job`].
struct JobPtr<S>(*const Job<'static, S>);

impl<S> Clone for JobPtr<S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for JobPtr<S> {}

// SAFETY: the pointee is `Sync`, so sharing it across threads is sound;
// that the pointee is still alive whenever a worker dereferences the
// pointer is `ShardPool::run`'s invariant (see there).
unsafe impl<S> Send for JobPtr<S> {}

/// The shared run state, guarded by one mutex.
struct State<S> {
    /// Bumped once per run; a worker joins each epoch at most once.
    epoch: u64,
    /// The current run's job, `Some` exactly while workers may take it.
    job: Option<JobPtr<S>>,
    /// The caller has run out of blocks: no worker may join any more.
    closed: bool,
    /// The current range's length and block length.
    len: usize,
    block_len: usize,
    /// A worker's block panicked during the current epoch.
    panicked: bool,
    shutdown: bool,
}

struct Shared<S> {
    state: Mutex<State<S>>,
    /// The next unclaimed block of the current epoch. Claims only need
    /// to be unique, which `fetch_add` guarantees at any ordering; what
    /// a block writes is published through its output's lock.
    next: AtomicUsize,
    /// Workers that joined the current epoch and are not done with it.
    /// Raised only under the state lock while the epoch is open; a
    /// worker's `Release` decrement pairs with the caller's `Acquire`
    /// load, so a caller that reads 0 sees everything the workers did.
    running: AtomicUsize,
    /// Workers park here between runs.
    wake: Condvar,
    /// The caller parks here when `running` stays above zero for longer
    /// than [`LATCH_SPIN`].
    done: Condvar,
    /// One slot per worker, locked by its worker while it runs blocks.
    slots: Box<[Mutex<S>]>,
    /// Runs posted to the workers.
    #[cfg(test)]
    dispatches: AtomicUsize,
}

impl<S> Shared<S> {
    /// Claims the next block of `0..len`, if one is left.
    fn claim(&self, len: usize, block_len: usize) -> Option<(usize, Range<usize>)> {
        let block = self.next.fetch_add(1, Ordering::Relaxed);
        let start = block.checked_mul(block_len).filter(|&start| start < len)?;
        Some((block, start..(start + block_len).min(len)))
    }
}

/// Locks `mutex`, recovering the data of a poisoned lock: slots and
/// blocks are poisoned by a panicking block, which leaves nothing that
/// the next run does not overwrite before reading, and the state lock is
/// never held across code that can panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed set of parked worker threads that help the calling thread
/// run the blocks of a range.
///
/// Each worker owns a slot `S` that persists across runs (the sharded
/// engine keeps a scratch [`QueryArena`] there). Workers block on a
/// Condvar between runs and never spin; dropping the pool wakes them to
/// exit and joins them.
pub(crate) struct ShardPool<S> {
    shared: Arc<Shared<S>>,
    handles: Vec<JoinHandle<()>>,
    /// Held for a whole run, so concurrent callers of one pool take
    /// turns instead of overwriting each other's epoch.
    turn: Mutex<()>,
}

impl<S> fmt::Debug for ShardPool<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl<S: Send + 'static> ShardPool<S> {
    /// Spawns `workers` parked threads, each with a slot from `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a thread.
    pub(crate) fn new(workers: usize, slot: impl Fn() -> S) -> ShardPool<S> {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                closed: true,
                len: 0,
                block_len: 0,
                panicked: false,
                shutdown: false,
            }),
            next: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            wake: Condvar::new(),
            done: Condvar::new(),
            slots: (0..workers).map(|_| Mutex::new(slot())).collect(),
            #[cfg(test)]
            dispatches: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("exma-shard-{}", worker + 1))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("spawning a shard worker")
            })
            .collect();
        ShardPool {
            shared,
            handles,
            turn: Mutex::new(()),
        }
    }

    /// Number of worker threads (the caller is not one of them).
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// How a run cuts `0..len`: `(block length, number of blocks)`.
    pub(crate) fn blocks(&self, len: usize) -> (usize, usize) {
        let block_len = len
            .div_ceil(BLOCKS_PER_THREAD * (self.workers() + 1))
            .max(1);
        (block_len, len.div_ceil(block_len))
    }

    /// Runs every block of `0..len` (cut as [`ShardPool::blocks`] says)
    /// exactly once — on the calling thread through `caller`, and on
    /// any worker that wakes while blocks are left through `job` — and
    /// returns once every block is done. Each thread claims blocks in
    /// increasing order.
    ///
    /// # Panics
    ///
    /// Re-panics in the caller, with `"shard worker panicked"`, if a
    /// worker's block panicked; the pool stays usable.
    pub(crate) fn run(
        &self,
        len: usize,
        job: &Job<'_, S>,
        mut caller: impl FnMut(usize, Range<usize>),
    ) {
        let _turn = lock(&self.turn);
        let (block_len, _) = self.blocks(len);
        // SAFETY: only the lifetime is erased; the fat pointer's layout
        // is unchanged. A worker dereferences it only after joining the
        // epoch under the state lock and until it leaves `running`, and
        // `latch` below blocks this frame — on return and on unwind
        // alike — until no worker may join (`closed`), none is running,
        // and the pointer is cleared, so `job` outlives every use.
        let ptr = JobPtr(unsafe { std::mem::transmute::<&Job<'_, S>, &Job<'static, S>>(job) });
        {
            let mut state = lock(&self.shared.state);
            state.epoch += 1;
            state.job = Some(ptr);
            state.closed = false;
            state.len = len;
            state.block_len = block_len;
            self.shared.next.store(0, Ordering::Relaxed);
        }
        #[cfg(test)]
        self.shared.dispatches.fetch_add(1, Ordering::Relaxed);
        let latch = Latch(&self.shared);
        self.shared.wake.notify_all();
        while let Some((block, range)) = self.shared.claim(len, block_len) {
            caller(block, range);
        }
        if latch.wait() {
            panic!("shard worker panicked");
        }
    }

    /// Runs so far that were posted to the workers.
    #[cfg(test)]
    fn dispatches(&self) -> usize {
        self.shared.dispatches.load(Ordering::Relaxed)
    }
}

/// Closes the current epoch to late workers, blocks until every worker
/// that joined it is done, then retires the job pointer — in
/// [`Latch::wait`] on the normal path and in `Drop` while the caller's
/// own block unwinds.
struct Latch<'p, S>(&'p Shared<S>);

impl<S> Latch<'_, S> {
    /// Waits for the epoch; `true` iff a worker's block panicked.
    fn wait(self) -> bool {
        let panicked = self.settle();
        std::mem::forget(self);
        panicked
    }

    fn settle(&self) -> bool {
        let shared = self.0;
        lock(&shared.state).closed = true;
        // Spin briefly before parking: a worker still running is most
        // often inside its last block, and a parked caller on a busy
        // host waited up to ~0.8 ms to be woken.
        let start = Instant::now();
        while shared.running.load(Ordering::Acquire) > 0 && start.elapsed() < LATCH_SPIN {
            std::hint::spin_loop();
        }
        let mut state = lock(&shared.state);
        while shared.running.load(Ordering::Acquire) > 0 {
            state = shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        std::mem::take(&mut state.panicked)
    }
}

impl<S> Drop for Latch<'_, S> {
    fn drop(&mut self) {
        self.settle();
    }
}

fn worker_loop<S>(shared: &Shared<S>, worker: usize) {
    let mut seen = 0;
    loop {
        let (job, len, block_len) = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                // An epoch already closed when this worker woke had no
                // block left for it: skip it without touching the job.
                if state.epoch != seen && !state.closed {
                    break;
                }
                seen = state.epoch;
                state = shared
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            seen = state.epoch;
            shared.running.fetch_add(1, Ordering::Relaxed);
            let job = state.job.expect("an open epoch carries a job");
            (job, state.len, state.block_len)
        };
        let finished = {
            let mut slot = lock(&shared.slots[worker]);
            // SAFETY: this worker joined the open epoch and counts in
            // `running`, so the caller that posted `job` is blocked in
            // its latch and the pointee is alive until the decrement
            // below.
            let job = unsafe { &*job.0 };
            panic::catch_unwind(AssertUnwindSafe(|| {
                while let Some((block, range)) = shared.claim(len, block_len) {
                    job(block, range, &mut slot);
                }
            }))
            .is_ok()
        };
        if !finished {
            lock(&shared.state).panicked = true;
        }
        if shared.running.fetch_sub(1, Ordering::Release) == 1 {
            // Taking the lock orders this notify after a caller's check
            // of `running` and its wait, so the wake-up is never lost.
            let _state = lock(&shared.state);
            shared.done.notify_one();
        }
    }
}

impl<S> Drop for ShardPool<S> {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            // A worker catches its blocks' panics, so it only ever
            // returns; there is nothing to report from a join error.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchEngine, BatchStats};
    use crate::exec::Executor;
    use crate::query::{QueryBatch, QueryOutput, QueryRequest};
    use exma_genome::alphabet::parse_bases;
    use exma_genome::genome::text_from_str;

    /// The paper's running example, repeated until the batch reaches
    /// `len` queries: hits, misses, a multi-occurrence locate, intervals
    /// and the empty pattern, in every operation shape.
    fn fig3_batch(len: usize) -> (KStepFmIndex, QueryBatch) {
        let index = KStepFmIndex::from_text(&text_from_str("CATAGA").unwrap(), 2);
        let mut batch = QueryBatch::new();
        let patterns = ["A", "TA", "AGA", "CATAGA", "GG", ""];
        for i in 0..len {
            let pattern = parse_bases(patterns[i % patterns.len()]).unwrap();
            match i % 3 {
                0 => batch.push(QueryRequest::Count, pattern),
                1 => batch.push(QueryRequest::locate(), pattern),
                _ => batch.push(QueryRequest::Interval, pattern),
            }
        }
        (index, batch)
    }

    fn serial(index: &KStepFmIndex) -> BatchEngine<'_> {
        BatchEngine::with_config(index, BatchConfig::locality())
    }

    /// Runs `0..len` through `pool`, recording which block covered each
    /// element; every worker slot keeps the blocks it ran.
    fn mark_blocks(pool: &ShardPool<Vec<usize>>, len: usize) -> Vec<Option<usize>> {
        let owner = Mutex::new(vec![None; len]);
        let mark = |block: usize, range: Range<usize>| {
            let mut owner = lock(&owner);
            for i in range {
                assert_eq!(owner[i], None, "element {i} ran twice");
                owner[i] = Some(block);
            }
        };
        let job = |block: usize, range: Range<usize>, slot: &mut Vec<usize>| {
            slot.push(block);
            mark(block, range);
        };
        pool.run(len, &job, mark);
        owner.into_inner().unwrap()
    }

    #[test]
    fn blocks_are_contiguous_and_cover_the_range_in_order() {
        let pool = ShardPool::new(2, Vec::new);
        for len in [0, 1, INLINE_THRESHOLD, INLINE_THRESHOLD + 1, 1000] {
            let owner = mark_blocks(&pool, len);
            let blocks: Vec<usize> = owner.iter().map(|b| b.expect("ran")).collect();
            assert!(
                blocks.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1),
                "{len}"
            );
            let count = blocks.last().map_or(0, |b| b + 1);
            assert_eq!(count, pool.blocks(len).1, "{len}");
        }
    }

    #[test]
    fn a_below_threshold_batch_runs_inline_and_wakes_no_worker() {
        // Below the threshold the run is the serial engine's in the
        // caller's arena, with identical results and identical stats.
        let (index, batch) = fig3_batch(INLINE_THRESHOLD);
        let engine = ShardedEngine::new(&index, 4);
        let pool = engine.pool().expect("four threads");
        let mut arena = QueryArena::new();
        for len in [0, 1, INLINE_THRESHOLD - 1] {
            let mut head = QueryBatch::new();
            for i in 0..len {
                head.push(batch.request(i), batch.pattern(i));
            }
            let stats = engine.run_into(&head, &mut arena);
            let (expected, expected_stats) = serial(&index).run(&head);
            assert_eq!(arena.results(), &expected);
            assert_eq!(stats, expected_stats);
        }
        assert_eq!(pool.dispatches(), 0);
        engine.run_into(&batch, &mut arena);
        assert_eq!(pool.dispatches(), 1);
    }

    #[test]
    fn a_panicking_block_panics_the_caller_and_the_pool_survives() {
        let pool = ShardPool::new(2, Vec::new);
        // The caller holds its second block until a worker has claimed
        // a later one, and every worker block fails.
        let job = |block: usize, _: Range<usize>, _: &mut Vec<usize>| panic!("block {block} fails");
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(1000, &job, |block, _| {
                while block > 0 && !lock(&pool.shared.state).panicked {
                    thread::yield_now();
                }
            })
        }));
        let message = outcome.expect_err("a worker block panicked");
        assert_eq!(
            message.downcast_ref::<&str>(),
            Some(&"shard worker panicked")
        );
        // The caller's own block panicking unwinds through the latch,
        // which still waits for the workers. Each worker holds its first
        // block until then, so blocks are left for the caller to claim.
        let failed = std::sync::atomic::AtomicBool::new(false);
        let hold = |_: usize, _: Range<usize>, _: &mut Vec<usize>| {
            while !failed.load(Ordering::Acquire) {
                thread::yield_now();
            }
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(1000, &hold, |_, _| {
                failed.store(true, Ordering::Release);
                panic!("caller block fails");
            });
        }));
        assert!(outcome.is_err());
        let owner = mark_blocks(&pool, 1000);
        assert!(owner.iter().all(Option::is_some));
        assert_eq!(pool.dispatches(), 3);
    }

    #[test]
    fn dropping_an_idle_pool_joins_every_worker() {
        let pool = ShardPool::new(3, || ());
        let shared = Arc::clone(&pool.shared);
        drop(pool);
        // Every worker held a clone of the shared state; all of them
        // have exited once only this one is left.
        assert_eq!(Arc::strong_count(&shared), 1);
        drop(ShardedEngine::new(&fig3_batch(0).0, 4));
    }

    #[test]
    fn concurrent_callers_of_one_engine_take_turns() {
        // The engine is `Sync`: callers sharing it must each get their
        // own answers, never a block of another caller's batch.
        let (index, batch) = fig3_batch(3 * INLINE_THRESHOLD);
        let (short, _) = batch.requests().split_at(2 * INLINE_THRESHOLD);
        let mut other = QueryBatch::new();
        for (i, &request) in short.iter().enumerate() {
            other.push(request, batch.pattern(i + 1));
        }
        let engine = ShardedEngine::new(&index, 2);
        let start = std::sync::Barrier::new(2);
        thread::scope(|scope| {
            for batch in [&batch, &other] {
                let (engine, start) = (&engine, &start);
                scope.spawn(move || {
                    let (expected, _) = serial(engine.index()).run(batch);
                    let mut arena = QueryArena::new();
                    start.wait();
                    for _ in 0..50 {
                        engine.run_into(batch, &mut arena);
                        assert_eq!(arena.results(), &expected);
                    }
                });
            }
        });
    }

    #[test]
    fn any_thread_count_matches_the_batch_engine() {
        for len in [6, INLINE_THRESHOLD + 5] {
            let (index, batch) = fig3_batch(len);
            let (expected, expected_stats) = serial(&index).run(&batch);
            for threads in [1usize, 2, 3, 6, 9] {
                let (results, stats) = ShardedEngine::new(&index, threads).run(&batch);
                assert_eq!(results, expected, "{threads} threads");
                // Sharding moves work between threads but never changes
                // its total; no block can run more rounds than the whole
                // batch's longest query.
                assert_eq!(stats.steps, expected_stats.steps, "{threads} threads");
                assert_eq!(stats.peak_live, expected_stats.peak_live);
                assert_eq!(stats.cursors_retired, expected_stats.cursors_retired);
                assert_eq!(stats.resolve_lf_steps, expected_stats.resolve_lf_steps);
                assert!(stats.rounds <= expected_stats.rounds);
                assert!(stats.resolve_rounds <= expected_stats.resolve_rounds);
            }
        }
    }

    #[test]
    fn one_thread_short_circuits_to_the_serial_engine() {
        // A one-thread engine owns no pool: at any size the run is the
        // serial engine's in the caller's arena, with identical results
        // and identical stats.
        let (index, batch) = fig3_batch(4 * INLINE_THRESHOLD);
        let single = ShardedEngine::new(&index, 1);
        assert!(single.pool().is_none());
        let mut arena = QueryArena::new();
        let stats = single.run_into(&batch, &mut arena);
        let (expected, expected_stats) = serial(&index).run(&batch);
        assert_eq!(arena.results(), &expected);
        assert_eq!(stats, expected_stats);
    }

    #[test]
    fn mixed_outputs_survive_ragged_sharding() {
        let (index, batch) = fig3_batch(INLINE_THRESHOLD + 3);
        // On 4 and 5 threads the last block is ragged. Tags must come
        // back in input order either way.
        for threads in [4usize, 5] {
            let engine = ShardedEngine::new(&index, threads);
            let (results, _) = engine.run(&batch);
            assert_eq!(engine.pool().map(ShardPool::dispatches), Some(1));
            for base in (0..batch.len() - 6).step_by(6) {
                assert!(matches!(results.output(base), QueryOutput::Count(3)));
                assert_eq!(results.positions(base + 1), &[2]);
                assert!(results.interval(base + 2).is_some());
                assert!(matches!(results.output(base + 3), QueryOutput::Count(1)));
                assert_eq!(results.positions(base + 4), &[] as &[u32]);
                assert_eq!(results.interval(base + 5), Some(0..7));
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (index, _) = fig3_batch(0);
        let (results, stats) = ShardedEngine::new(&index, 4).run(&QueryBatch::new());
        assert!(results.is_empty());
        assert_eq!(stats, BatchStats::default());
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_is_rejected() {
        let (index, _) = fig3_batch(0);
        let _ = ShardedEngine::new(&index, 0);
    }
}
