//! Acceptance property of the persistent shard pool: a pooled
//! `ShardedEngine` must answer exactly what the serial `BatchEngine`
//! answers, call after call, with one engine and one arena reused
//! throughout — batch sizes straddling `INLINE_THRESHOLD` switch every
//! call between the inline path and the pooled one, so a worker slot or
//! arena that leaks state from one call into the next shows up as a
//! wrong answer. Every request shape rides along: counts, capped and
//! uncapped locates, intervals, and strand-agnostic `SearchBoth` on a
//! bidirectional index.

use exma_engine::shard::INLINE_THRESHOLD;
use exma_engine::{
    BatchConfig, BatchEngine, EngineBuilder, Executor, QueryArena, QueryBatch, QueryRequest,
    ShardedEngine,
};
use exma_genome::{Base, Genome, GenomeProfile, SeededRng};
use exma_index::KStepFmIndex;

/// Calls per engine; each one's size is drawn around the threshold.
const CALLS: usize = 60;

/// A batch of `len` queries over genome slices (hits), random patterns
/// (mostly misses) and the empty pattern, in every request shape the
/// index supports. Uncapped locates get patterns of 10+ bases, so no
/// call resolves a large share of the text.
fn mixed_batch(genome: &Genome, len: usize, both: bool, rng: &mut SeededRng) -> QueryBatch {
    let mut batch = QueryBatch::new();
    for i in 0..len {
        let request = match i % if both { 6 } else { 4 } {
            0 => QueryRequest::Count,
            1 => QueryRequest::locate(),
            2 => QueryRequest::locate_capped(rng.range(0, 5) as u32),
            3 => QueryRequest::Interval,
            4 => QueryRequest::search_both(),
            _ => QueryRequest::search_both_capped(rng.range(0, 5) as u32),
        };
        let uncapped = matches!(
            request,
            QueryRequest::Locate { max_hits: None } | QueryRequest::SearchBoth { max_hits: None }
        );
        let pattern: Vec<Base> = if i % 24 == 0 {
            // 24 is a multiple of both cycles: always a count.
            Vec::new()
        } else {
            let len = rng.range(if uncapped { 10 } else { 1 }, 40);
            if i % 2 == 0 {
                genome
                    .seq()
                    .slice(rng.range(0, genome.len() - len + 1), len)
            } else {
                (0..len).map(|_| rng.base()).collect()
            }
        };
        batch.push(request, pattern);
    }
    batch
}

/// Sizes that straddle the threshold: just below, at and above it, far
/// below and a few shards' worth above.
fn batch_len(call: usize, rng: &mut SeededRng) -> usize {
    match call % 5 {
        0 => INLINE_THRESHOLD - 1,
        1 => INLINE_THRESHOLD,
        2 => INLINE_THRESHOLD + 1,
        3 => rng.range(0, INLINE_THRESHOLD),
        _ => rng.range(INLINE_THRESHOLD, 4 * INLINE_THRESHOLD),
    }
}

fn pooled_matches_serial(genome: &Genome, index: &KStepFmIndex, seed: u64) {
    let both = index.is_bidirectional();
    let serial = BatchEngine::with_config(index, BatchConfig::locality());
    for threads in [2usize, 3, 8] {
        let pooled = ShardedEngine::new(index, threads);
        let mut rng = SeededRng::new(seed + threads as u64);
        let mut arena = QueryArena::new();
        let mut serial_arena = QueryArena::new();
        for call in 0..CALLS {
            let batch = mixed_batch(genome, batch_len(call, &mut rng), both, &mut rng);
            let stats = pooled.run_into(&batch, &mut arena);
            let expected = serial.run_into(&batch, &mut serial_arena);
            let context = format!("{threads} threads, call {call}, {} queries", batch.len());
            assert_eq!(arena.results(), serial_arena.results(), "{context}");
            // Sharding moves work between threads but never changes its
            // total, and no shard runs deeper than the whole batch.
            assert_eq!(stats.steps, expected.steps, "{context}");
            assert_eq!(stats.peak_live, expected.peak_live, "{context}");
            assert_eq!(
                stats.resolve_lf_steps, expected.resolve_lf_steps,
                "{context}"
            );
            assert!(stats.rounds <= expected.rounds, "{context}");
            if batch.len() < INLINE_THRESHOLD {
                assert_eq!(stats, expected, "{context}: inline is the serial run");
            }
        }
    }
}

#[test]
fn pooled_engine_matches_the_serial_engine_across_reused_calls() {
    let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
    let text = genome.text_with_sentinel();
    let forward = KStepFmIndex::from_genome(&genome, 4);
    pooled_matches_serial(&genome, &forward, 151);
    let bidirectional = EngineBuilder::new()
        .k(4)
        .bidirectional(true)
        .build_index(&text)
        .unwrap();
    pooled_matches_serial(&genome, &bidirectional, 157);
}
