//! The continuous-batching admission queue.
//!
//! The engine's whole design bets on batch size: lockstep rounds only
//! amortize occurrence-table locality when many queries advance
//! together (PR 2's sweep measured the knee around a few hundred
//! queries). A network client, though, submits whatever its own
//! request stream carries — often a handful of queries per frame. The
//! batcher closes that gap the way LLM serving systems do: every
//! connection pushes its decoded submissions into one bounded queue,
//! and a single batcher thread drains whatever has accumulated, merges
//! it into one [`QueryBatch`], runs the engine once, and splits the
//! pooled results back out by each submission's query range. Clients
//! that arrive while a batch is running wait in the queue and form the
//! next batch — admission never stalls on execution until the queue
//! itself fills, at which point the connection answers BUSY
//! (backpressure with an explicit signal, not an unbounded buffer).
//!
//! There is no coalescing window. Once a batch's first submission
//! arrives, the batcher takes only what is already queued (up to the
//! batch-size cap) and runs the engine at once, the way
//! iteration-level continuous batching does (Orca, OSDI '22). Merging
//! still happens on its own: submissions that arrive while a batch
//! runs queue up and form the next one. A lone request therefore pays
//! no wait, and a busy server still merges. Serving measurements found
//! no workload that a fixed wait after the first arrival helped.
//!
//! Deadlines are enforced *here*, not at admission: a submission's
//! budget is checked when the batcher pulls it off the queue, just
//! before the engine run, because queueing is exactly where a
//! request's budget silently drains away. An
//! expired submission answers a typed LATE frame (elapsed vs budget)
//! and never reaches the engine — load shedding that saves the whole
//! engine run a dead client would otherwise burn. Submissions whose
//! connection died (writer overflow, socket failure) are skipped the
//! same way: no reply can be delivered, so no work is done.
//!
//! On shutdown the batcher *drains*: it keeps executing whatever is
//! already queued, then exits once the queue is empty, answering any
//! last-instant stragglers with GOAWAY. It polls rather than blocks,
//! so it never deadlocks on connections that still hold queue senders
//! — the PR 6 retained-sender deadlock, designed out.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

use exma_engine::{Executor, QueryArena, QueryBatch};

use crate::conn::ReplyHandle;
use crate::wire::{self, LateInfo, Opcode, StatsSnapshot};

/// How often the idle batcher wakes to check the draining flag.
const DRAIN_POLL: Duration = Duration::from_millis(10);

/// One decoded QUERY frame, queued for the batcher.
pub struct Submission {
    /// The client's request id, echoed on the response frame.
    pub request_id: u64,
    /// The request's protocol version; the response echoes it.
    pub version: u8,
    /// The decoded batch (caps already clamped to the server ceiling).
    pub batch: QueryBatch,
    /// When the frame finished arriving — the deadline clock's zero.
    pub arrival: Instant,
    /// The effective latency budget (client deadline clamped to the
    /// server ceiling); `None` never expires.
    pub budget: Option<Duration>,
    /// The connection's bounded writer queue; the batcher sends the
    /// encoded RESULTS (or LATE) frame here.
    pub reply: ReplyHandle,
}

impl Submission {
    /// `Some(elapsed, budget)` iff the submission's budget has already
    /// elapsed — the typed payload of the LATE frame it gets instead
    /// of an engine run.
    fn expired(&self) -> Option<LateInfo> {
        let budget = self.budget?;
        let elapsed = self.arrival.elapsed();
        (elapsed > budget).then(|| LateInfo {
            elapsed_us: saturating_us(elapsed),
            budget_us: saturating_us(budget),
        })
    }
}

/// A duration in whole microseconds, saturating at `u32::MAX`.
fn saturating_us(d: Duration) -> u32 {
    d.as_micros().min(u128::from(u32::MAX)) as u32
}

/// Batcher knobs, fixed at server start.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Stop coalescing once the merged batch reaches this many
    /// queries (bounds per-batch latency and arena growth).
    pub max_batch_queries: usize,
}

impl Default for BatcherConfig {
    fn default() -> BatcherConfig {
        BatcherConfig {
            max_batch_queries: 4096,
        }
    }
}

/// Cumulative server counters, shared across connection threads and
/// the batcher. Relaxed ordering throughout: these are monitoring
/// counters, not synchronization.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Submissions admitted to the queue.
    pub submissions_admitted: AtomicU64,
    /// Submissions bounced with BUSY.
    pub submissions_busy: AtomicU64,
    /// Frames answered with ERROR.
    pub errors: AtomicU64,
    /// Merged engine runs executed.
    pub batches_run: AtomicU64,
    /// Submissions coalesced across all runs.
    pub submissions_coalesced: AtomicU64,
    /// Most submissions merged into one run.
    pub max_coalesced: AtomicU64,
    /// Queries executed across all runs.
    pub queries_executed: AtomicU64,
    /// Located positions returned across all runs.
    pub positions_returned: AtomicU64,
    /// Lockstep search rounds across all runs.
    pub search_rounds: AtomicU64,
    /// Resolver rounds across all runs.
    pub resolve_rounds: AtomicU64,
    /// Submissions currently queued (admitted, not yet drained).
    pub queue_depth: AtomicU64,
    /// Total heap bytes of the served index, set once at bind.
    pub heap_total: AtomicU64,
    /// k-mer checkpoint rows of the served index.
    pub heap_k_occ_checkpoints: AtomicU64,
    /// Per-block k-mer delta rows of the served index.
    pub heap_k_occ_deltas: AtomicU64,
    /// k-mer code lanes and totals of the served index.
    pub heap_k_occ_codes: AtomicU64,
    /// The served index's 1-step occurrence table.
    pub heap_one_step_occ: AtomicU64,
    /// The served index's sampled suffix-array positions.
    pub heap_sa_samples: AtomicU64,
    /// The served index's sampled-row rank bitvector.
    pub heap_rank_bits: AtomicU64,
    /// Remaining served-index bytes (C-array, marker exceptions).
    pub heap_other: AtomicU64,
    /// Submissions answered LATE: deadline elapsed before execution.
    pub late_dropped: AtomicU64,
    /// Response frames shed on a full bounded writer queue (each shed
    /// also disconnects its connection).
    pub writer_shed: AtomicU64,
    /// Connections reaped by the read/idle timeout.
    pub conns_reaped: AtomicU64,
    /// QUERYs answered GOAWAY while draining for shutdown.
    pub goaway_sent: AtomicU64,
    /// 1 when this process warm-started from a verified snapshot; set
    /// once at startup alongside the heap fields.
    pub snapshot_loaded: AtomicU64,
    /// Snapshot files rejected by the verified loader at startup, each
    /// followed by a cold rebuild; set once at startup.
    pub snapshot_rejected: AtomicU64,
    /// 1 when the served index is bidirectional (strand-agnostic
    /// search); set once at startup.
    pub bidir_enabled: AtomicU64,
    /// Symbol length of the indexed text (doubled for a bidirectional
    /// index); set once at startup.
    pub bidir_text_len: AtomicU64,
}

impl ServerStats {
    /// Publishes the served index's heap attribution — called once at
    /// [`crate::Server::bind`]; the fields are static thereafter.
    pub fn record_heap(&self, heap: &exma_engine::HeapBreakdown) {
        self.heap_total
            .store(heap.total() as u64, Ordering::Relaxed);
        self.heap_k_occ_checkpoints
            .store(heap.k_occ_checkpoints as u64, Ordering::Relaxed);
        self.heap_k_occ_deltas
            .store(heap.k_occ_deltas as u64, Ordering::Relaxed);
        self.heap_k_occ_codes
            .store(heap.k_occ_codes as u64, Ordering::Relaxed);
        self.heap_one_step_occ
            .store(heap.one_step_occ as u64, Ordering::Relaxed);
        self.heap_sa_samples
            .store(heap.sa_samples as u64, Ordering::Relaxed);
        self.heap_rank_bits
            .store(heap.rank_bits as u64, Ordering::Relaxed);
        self.heap_other.store(heap.other as u64, Ordering::Relaxed);
    }

    /// Publishes the served index's strandedness — called once at
    /// [`crate::Server::bind`] alongside [`ServerStats::record_heap`].
    pub fn record_strandedness(&self, bidirectional: bool, text_len: usize) {
        self.bidir_enabled
            .store(u64::from(bidirectional), Ordering::Relaxed);
        self.bidir_text_len
            .store(text_len as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy, as sent in a STATS_REPLY frame.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            submissions_admitted: self.submissions_admitted.load(Ordering::Relaxed),
            submissions_busy: self.submissions_busy.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            batches_run: self.batches_run.load(Ordering::Relaxed),
            submissions_coalesced: self.submissions_coalesced.load(Ordering::Relaxed),
            max_coalesced: self.max_coalesced.load(Ordering::Relaxed),
            queries_executed: self.queries_executed.load(Ordering::Relaxed),
            positions_returned: self.positions_returned.load(Ordering::Relaxed),
            search_rounds: self.search_rounds.load(Ordering::Relaxed),
            resolve_rounds: self.resolve_rounds.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            heap_total: self.heap_total.load(Ordering::Relaxed),
            heap_k_occ_checkpoints: self.heap_k_occ_checkpoints.load(Ordering::Relaxed),
            heap_k_occ_deltas: self.heap_k_occ_deltas.load(Ordering::Relaxed),
            heap_k_occ_codes: self.heap_k_occ_codes.load(Ordering::Relaxed),
            heap_one_step_occ: self.heap_one_step_occ.load(Ordering::Relaxed),
            heap_sa_samples: self.heap_sa_samples.load(Ordering::Relaxed),
            heap_rank_bits: self.heap_rank_bits.load(Ordering::Relaxed),
            heap_other: self.heap_other.load(Ordering::Relaxed),
            late_dropped: self.late_dropped.load(Ordering::Relaxed),
            writer_shed: self.writer_shed.load(Ordering::Relaxed),
            conns_reaped: self.conns_reaped.load(Ordering::Relaxed),
            goaway_sent: self.goaway_sent.load(Ordering::Relaxed),
            snapshot_loaded: self.snapshot_loaded.load(Ordering::Relaxed),
            snapshot_rejected: self.snapshot_rejected.load(Ordering::Relaxed),
            bidir_enabled: self.bidir_enabled.load(Ordering::Relaxed),
            bidir_text_len: self.bidir_text_len.load(Ordering::Relaxed),
        }
    }

    fn note_coalesced(&self, submissions: usize) {
        self.submissions_coalesced
            .fetch_add(submissions as u64, Ordering::Relaxed);
        self.max_coalesced
            .fetch_max(submissions as u64, Ordering::Relaxed);
    }
}

/// Pulls one submission's worth of bookkeeping: decrements the queue
/// depth, answers LATE if the budget already elapsed (the one deadline
/// check, just before the engine run), and returns the submission only
/// if it is still worth batching.
fn triage(sub: Submission, stats: &ServerStats) -> Option<Submission> {
    stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
    if let Some(info) = sub.expired() {
        send_late(&sub, info, stats);
        return None;
    }
    if sub.reply.is_dead() {
        // The client's connection is already torn down: nothing could
        // deliver the answer, so don't compute one.
        return None;
    }
    Some(sub)
}

/// The next live submission already in the queue, triaging (and
/// skipping) expired or dead ones; never waits.
fn next_queued(
    queue: &Receiver<Submission>,
    stats: &ServerStats,
) -> Result<Submission, TryRecvError> {
    loop {
        if let Some(sub) = triage(queue.try_recv()?, stats) {
            return Ok(sub);
        }
    }
}

fn send_late(sub: &Submission, info: LateInfo, stats: &ServerStats) {
    stats.late_dropped.fetch_add(1, Ordering::Relaxed);
    let mut payload = Vec::with_capacity(8);
    wire::encode_late(info, &mut payload);
    sub.reply.send(
        wire::frame_at(sub.version, Opcode::Late, sub.request_id, &payload),
        stats,
    );
}

/// The batcher loop: drain → triage → merge → run → split, until every
/// sender hangs up or `draining` is observed with an empty queue. Runs
/// on its own thread with exclusive use of `exec`; one [`QueryArena`]
/// lives for the whole loop, so steady-state batches execute
/// allocation-free just like an embedded caller's would.
pub fn run_batcher(
    exec: &dyn Executor,
    queue: &Receiver<Submission>,
    config: BatcherConfig,
    stats: &ServerStats,
    draining: &AtomicBool,
) {
    let mut merged = QueryBatch::new();
    let mut arena = QueryArena::new();
    // Per-submission routing: (request_id, version, end offset in
    // `merged`, reply).
    let mut routes: Vec<(u64, u8, usize, ReplyHandle)> = Vec::new();
    let mut payload = Vec::new();
    let mut disconnected = false;

    'serve: while !disconnected {
        // Poll for the batch's first live submission. Polling (rather
        // than blocking on recv) is what lets a drain finish while
        // connections still hold queue senders.
        let mut sub = loop {
            match queue.recv_timeout(DRAIN_POLL) {
                Ok(sub) => {
                    if let Some(sub) = triage(sub, stats) {
                        break sub;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if draining.load(Ordering::Relaxed) {
                        break 'serve;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break 'serve,
            }
        };
        merged.clear();
        routes.clear();
        // Coalesce whatever is already queued, up to the batch-size
        // cap, without waiting: submissions that arrive while this
        // batch runs form the next one.
        loop {
            merged.extend_from(&sub.batch);
            routes.push((sub.request_id, sub.version, merged.len(), sub.reply));
            if merged.len() >= config.max_batch_queries {
                break;
            }
            match next_queued(queue, stats) {
                Ok(next) => sub = next,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    // Run what we already merged, then exit.
                    disconnected = true;
                    break;
                }
            }
        }

        stats.batches_run.fetch_add(1, Ordering::Relaxed);
        stats.note_coalesced(routes.len());
        stats
            .queries_executed
            .fetch_add(merged.len() as u64, Ordering::Relaxed);

        // One engine run for the whole coalesced batch.
        let batch_stats = exec.run_into(&merged, &mut arena);
        let results = arena.results();
        stats
            .positions_returned
            .fetch_add(results.total_positions() as u64, Ordering::Relaxed);
        stats
            .search_rounds
            .fetch_add(batch_stats.rounds as u64, Ordering::Relaxed);
        stats
            .resolve_rounds
            .fetch_add(batch_stats.resolve_rounds as u64, Ordering::Relaxed);

        // Split the pooled results back out, one RESULTS frame per
        // submission, in admission order. Draining (not iterating)
        // drops each reply sender as its frame goes out — a retained
        // sender would keep the connection's writer thread alive, and
        // with it the connection's queue sender, deadlocking shutdown.
        let mut start = 0;
        for (request_id, version, end, reply) in routes.drain(..) {
            payload.clear();
            wire::encode_results_range(results, start, end, &mut payload);
            reply.send(
                wire::frame_at(version, Opcode::Results, request_id, &payload),
                stats,
            );
            start = end;
        }
    }

    // Final sweep: submissions that slipped in between the last poll
    // and this exit get a typed GOAWAY, not silence.
    while let Ok(sub) = queue.try_recv() {
        stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
        stats.goaway_sent.fetch_add(1, Ordering::Relaxed);
        sub.reply.send(
            wire::frame_at(sub.version, Opcode::Goaway, sub.request_id, &[]),
            stats,
        );
    }
}
