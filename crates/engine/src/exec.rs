//! The [`Executor`] trait: one execution surface for every engine.
//!
//! An executor takes a [`QueryBatch`] — any mix of count, (capped)
//! locate, and interval requests — and answers it in one run. The
//! lockstep engines share a single pipeline shape regardless of the
//! mix: **every** query's backward search advances through the same
//! lockstep round-loop (an interval is what all three operations need
//! first), and then every finished locate query's interval rows feed
//! one shared resolver worklist; counts and intervals are read straight
//! off the search result. The sequential index types implement the same
//! trait query-by-query, which is what makes them drop-in oracles and
//! baselines for the benchmark harness's uniform enumeration.
//!
//! Construct executors through [`crate::EngineBuilder`] — it is the one
//! place index parameters, schedules and thread counts combine.

use std::ops::Range;

use exma_genome::Base;
use exma_index::bidir::{forward_len, map_hits_in_place};
use exma_index::{resolve_capped_with_arena, FmIndex, HeapBreakdown, KStepFmIndex, UNCAPPED};

use crate::batch::{BatchEngine, BatchStats};
use crate::query::{QueryArena, QueryBatch, QueryOutput, QueryRequest, QueryResults};
use crate::shard::{ShardedEngine, INLINE_THRESHOLD};

/// A query engine that can answer a mixed-operation [`QueryBatch`].
///
/// Implemented by the sequential indexes ([`FmIndex`],
/// [`KStepFmIndex`]), the lockstep [`BatchEngine`], and the
/// multi-threaded [`ShardedEngine`]. Answers are engine-independent:
/// every implementation returns identical [`QueryResults`] for the same
/// batch over the same text — capped locates included — which the
/// property suites and the benchmark harness's oracle gate both
/// enforce.
pub trait Executor {
    /// Runs `batch` through `arena`, leaving the answers in
    /// `arena.results()`. A caller that keeps one arena across
    /// submissions reaches a steady state where no executor allocates:
    /// a [`ShardedEngine`]'s pool workers keep their own arenas across
    /// calls too.
    fn run_into(&self, batch: &QueryBatch, arena: &mut QueryArena) -> BatchStats;

    /// One-shot convenience over [`Executor::run_into`] with a fresh
    /// arena.
    fn run(&self, batch: &QueryBatch) -> (QueryResults, BatchStats) {
        let mut arena = QueryArena::new();
        let stats = self.run_into(batch, &mut arena);
        (arena.take_results(), stats)
    }

    /// Exact per-component heap attribution of the index structures this
    /// executor queries. Executors that share one index (every lockstep
    /// and sharded engine attached to it) report the same breakdown —
    /// the bytes exist once, however many executors borrow them.
    fn heap_breakdown(&self) -> HeapBreakdown;
}

impl<E: Executor + ?Sized> Executor for &E {
    fn run_into(&self, batch: &QueryBatch, arena: &mut QueryArena) -> BatchStats {
        (**self).run_into(batch, arena)
    }

    fn heap_breakdown(&self) -> HeapBreakdown {
        (**self).heap_breakdown()
    }
}

/// Sequential execution: one query at a time through `search`, locates
/// resolved per-row through `fm`. The reference semantics every
/// lockstep executor must reproduce — including the capped-locate
/// selection rule, which [`FmIndex::resolve_range_capped_into`]
/// defines.
fn run_sequential(
    batch: &QueryBatch,
    arena: &mut QueryArena,
    fm: &FmIndex,
    search: impl Fn(&[Base]) -> Range<usize>,
) -> BatchStats {
    let QueryArena {
        results, seq_buf, ..
    } = arena;
    results.reset(batch.len());
    for i in 0..batch.len() {
        let interval = search(batch.pattern(i));
        match batch.request(i) {
            QueryRequest::Count => results.push_tag(QueryOutput::Count(interval.len() as u32)),
            QueryRequest::Interval => results.push_tag(QueryOutput::Interval {
                lo: interval.start as u32,
                hi: interval.end as u32,
            }),
            QueryRequest::Locate { max_hits } => {
                let truncated =
                    fm.resolve_range_capped_into(interval, max_hits.unwrap_or(UNCAPPED), seq_buf);
                results.push_positions(seq_buf, truncated);
            }
            QueryRequest::SearchBoth { max_hits } => {
                // Resolve the raw doubled-text interval uncapped —
                // straddlers and palindrome duplicates are only known
                // after mapping — then map, sort, and apply the cap to
                // the smallest (position, strand) hits.
                fm.resolve_range_capped_into(interval, UNCAPPED, seq_buf);
                let valid =
                    map_hits_in_place(seq_buf, batch.pattern(i), forward_len(fm.text_len()));
                let kept = (max_hits.unwrap_or(UNCAPPED) as usize).min(valid);
                seq_buf.truncate(kept);
                results.push_both_positions(seq_buf, kept < valid);
            }
        }
    }
    // Sequential executors are baselines, not schedulers: they track no
    // lockstep counters.
    BatchStats::default()
}

impl Executor for FmIndex {
    /// The 1-step sequential baseline — and the oracle every other
    /// executor is verified against.
    fn run_into(&self, batch: &QueryBatch, arena: &mut QueryArena) -> BatchStats {
        run_sequential(batch, arena, self, |p| self.backward_search(p))
    }

    fn heap_breakdown(&self) -> HeapBreakdown {
        FmIndex::heap_breakdown(self)
    }
}

impl Executor for KStepFmIndex {
    /// The k-step sequential baseline: k symbols per refinement, still
    /// one query at a time.
    fn run_into(&self, batch: &QueryBatch, arena: &mut QueryArena) -> BatchStats {
        run_sequential(batch, arena, self.base_index(), |p| self.backward_search(p))
    }

    fn heap_breakdown(&self) -> HeapBreakdown {
        KStepFmIndex::heap_breakdown(self)
    }
}

impl BatchEngine<'_> {
    /// The mixed-batch lockstep pipeline over raw request/pattern
    /// slices — [`Executor::run_into`] for this engine, and the unit of
    /// work a [`ShardedEngine`] worker runs on its shard.
    pub(crate) fn run_slice(
        &self,
        requests: &[QueryRequest],
        patterns: &[Vec<Base>],
        arena: &mut QueryArena,
    ) -> BatchStats {
        debug_assert_eq!(requests.len(), patterns.len());
        let QueryArena {
            results,
            intervals,
            locate_intervals,
            caps,
            locate_offsets,
            search,
            resolve,
            seq_buf,
            ..
        } = arena;

        // Phase 1 — one lockstep search round-loop for the whole batch:
        // counts, locates and interval requests all need the suffix-array
        // interval first, so the mix is invisible to the scheduler.
        let mut stats = self.search_core(patterns, intervals, search);

        // Phase 2 — every locate query's interval feeds one shared
        // resolver worklist, with its cap riding along.
        locate_intervals.clear();
        caps.clear();
        for (i, request) in requests.iter().enumerate() {
            if let Some(cap) = request.resolver_cap() {
                locate_intervals.push(intervals[i].clone());
                caps.push(cap);
            }
        }
        results.reset(requests.len());
        let resolved = resolve_capped_with_arena(
            self.index().base_index(),
            self.config().resolve,
            locate_intervals,
            caps,
            results.flat_mut(),
            locate_offsets,
            resolve,
        );
        stats.resolve_rounds = resolved.rounds;
        stats.resolve_lf_steps = resolved.lf_steps;
        stats.cursors_retired = resolved.retired;
        stats.cursors_dropped = resolved.dropped;

        // Phase 3 — tag every query, mapping the resolver's pooled
        // regions (in resolving-query order == query order restricted
        // to locates and strand searches) back onto the full batch.
        // SearchBoth regions hold *raw doubled-text* positions that
        // must shrink in place — straddlers and palindrome duplicates
        // drop, the post-mapping cap truncates — so the pool is
        // compacted left as it is walked, and later regions shift down
        // by the accumulated shrink.
        let n = forward_len(self.index().text_len());
        let mut next_resolved = 0;
        let mut shrink = 0;
        for (i, request) in requests.iter().enumerate() {
            let interval = &intervals[i];
            match *request {
                QueryRequest::Count => results.push_tag(QueryOutput::Count(interval.len() as u32)),
                QueryRequest::Interval => results.push_tag(QueryOutput::Interval {
                    lo: interval.start as u32,
                    hi: interval.end as u32,
                }),
                QueryRequest::Locate { .. } => {
                    let (start, end) = (
                        locate_offsets[next_resolved],
                        locate_offsets[next_resolved + 1],
                    );
                    next_resolved += 1;
                    if shrink > 0 {
                        results.flat_mut().copy_within(start..end, start - shrink);
                    }
                    results.push_located(end - start, end - start < interval.len());
                }
                QueryRequest::SearchBoth { max_hits } => {
                    let (start, end) = (
                        locate_offsets[next_resolved],
                        locate_offsets[next_resolved + 1],
                    );
                    next_resolved += 1;
                    let flat = results.flat_mut();
                    seq_buf.clear();
                    seq_buf.extend_from_slice(&flat[start..end]);
                    let valid = map_hits_in_place(seq_buf, &patterns[i], n);
                    let kept = (max_hits.unwrap_or(UNCAPPED) as usize).min(valid);
                    flat[start - shrink..start - shrink + kept].copy_from_slice(&seq_buf[..kept]);
                    shrink += (end - start) - kept;
                    results.push_both_located(kept, kept < valid);
                }
            }
        }
        if shrink > 0 {
            let total = *locate_offsets.last().expect("resolver ran");
            results.flat_mut().truncate(total - shrink);
        }
        stats
    }
}

impl Executor for BatchEngine<'_> {
    /// Lockstep execution: one shared search round-loop, then one
    /// shared resolver worklist for every locate interval.
    fn run_into(&self, batch: &QueryBatch, arena: &mut QueryArena) -> BatchStats {
        self.run_slice(batch.requests(), batch.patterns(), arena)
    }

    fn heap_breakdown(&self) -> HeapBreakdown {
        self.index().heap_breakdown()
    }
}

impl Executor for ShardedEngine<'_> {
    /// Sharded execution: the batch is cut into contiguous blocks that
    /// the caller and the pool workers claim in turn, and the blocks'
    /// pools are stitched back in input order. A one-thread engine, or
    /// a batch shorter than [`crate::shard::INLINE_THRESHOLD`], runs
    /// the serial [`BatchEngine`] path inline — no wake-up, no merge
    /// copy, the serial engine's exact cost. A pooled run costs a
    /// Condvar wake-up (about 8 µs round trip on a quiet 2-vCPU VM)
    /// where the per-call `std::thread::scope` spawn it replaced cost
    /// about 47 µs.
    fn run_into(&self, batch: &QueryBatch, arena: &mut QueryArena) -> BatchStats {
        let engine = BatchEngine::with_config(self.index(), self.config());
        match self.pool() {
            Some(pool) if batch.len() >= INLINE_THRESHOLD => {
                self.run_pooled(pool, &engine, batch, arena)
            }
            _ => engine.run_into(batch, arena),
        }
    }

    /// Workers share the one borrowed index, so the footprint is the
    /// index's — not `threads ×` anything.
    fn heap_breakdown(&self) -> HeapBreakdown {
        self.index().heap_breakdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchConfig;
    use exma_genome::alphabet::parse_bases;
    use exma_genome::genome::text_from_str;

    fn fig3_batch() -> (KStepFmIndex, QueryBatch) {
        let index = KStepFmIndex::from_text(&text_from_str("CATAGA").unwrap(), 2);
        // The paper's running example, one query per operation shape:
        // hits, a multi-occurrence locate, a capped locate, a miss, an
        // interval, and the empty pattern.
        let batch = QueryBatch::new()
            .count(parse_bases("A").unwrap())
            .locate(parse_bases("A").unwrap())
            .locate_capped(parse_bases("A").unwrap(), 2)
            .locate(parse_bases("GG").unwrap())
            .interval(parse_bases("TA").unwrap())
            .count(parse_bases("").unwrap());
        (index, batch)
    }

    #[test]
    fn every_executor_agrees_on_the_fig3_batch() {
        let (index, batch) = fig3_batch();
        let one = FmIndex::from_text(&text_from_str("CATAGA").unwrap());
        let (expected, _) = (&one as &dyn Executor).run(&batch);
        assert_eq!(expected.count(0), 3);
        assert_eq!(expected.positions(1), &[1, 3, 5]);
        assert_eq!(expected.positions(2).len(), 2);
        assert_eq!(expected.output(2), QueryOutput::Located { truncated: true });
        assert_eq!(expected.positions(3), &[] as &[u32]);
        assert_eq!(
            expected.output(3),
            QueryOutput::Located { truncated: false }
        );
        assert_eq!(expected.interval(4).map(|r| r.len()), Some(1));
        assert_eq!(expected.count(5), 7);

        let executors: Vec<Box<dyn Executor + '_>> = vec![
            Box::new(&index),
            Box::new(BatchEngine::new(&index)),
            Box::new(BatchEngine::with_config(&index, BatchConfig::locality())),
            Box::new(ShardedEngine::new(&index, 1)),
            Box::new(ShardedEngine::new(&index, 3)),
        ];
        for (e, exec) in executors.iter().enumerate() {
            assert_eq!(exec.run(&batch).0, expected, "executor #{e}");
        }
    }

    #[test]
    fn arena_reuse_returns_identical_results() {
        let (index, batch) = fig3_batch();
        let engine = BatchEngine::with_config(&index, BatchConfig::locality());
        let mut arena = QueryArena::new();
        engine.run_into(&batch, &mut arena);
        let first = arena.results().clone();
        let stats = engine.run_into(&batch, &mut arena);
        assert_eq!(arena.results(), &first);
        assert!(stats.rounds > 0);
        // A different batch through the same arena must not leak state.
        let tiny = QueryBatch::new().count(parse_bases("GA").unwrap());
        engine.run_into(&tiny, &mut arena);
        assert_eq!(arena.results().len(), 1);
        assert_eq!(arena.results().count(0), 1);
        assert_eq!(arena.results().total_positions(), 0);
    }

    #[test]
    fn empty_batches_are_fine_everywhere() {
        let (index, _) = fig3_batch();
        let empty = QueryBatch::new();
        for exec in [
            Box::new(BatchEngine::new(&index)) as Box<dyn Executor>,
            Box::new(ShardedEngine::new(&index, 4)),
            Box::new(&index as &KStepFmIndex),
        ] {
            let (results, stats) = exec.run(&empty);
            assert!(results.is_empty());
            assert_eq!(results.total_positions(), 0);
            assert_eq!(stats.peak_live, 0);
        }
    }

    #[test]
    fn mixed_stats_cover_search_and_resolve() {
        let (index, batch) = fig3_batch();
        let (results, stats) = BatchEngine::new(&index).run(&batch);
        // 5 non-empty patterns search; 3 locate queries resolve.
        assert_eq!(stats.peak_live, 5);
        assert!(stats.rounds >= 1);
        assert!(stats.resolve_rounds >= 1);
        // Cursors dropped only because of the capped locate.
        assert!(stats.cursors_retired >= results.total_positions());
        let uncapped = QueryBatch::new().locate(parse_bases("A").unwrap());
        let (_, ustats) = BatchEngine::new(&index).run(&uncapped);
        assert_eq!(ustats.cursors_dropped, 0);
    }
}
