//! The batch workload: a DRAM-resident `pinus_rel` index (≈156 MB at
//! the default k = 4, about 1.5× a 105 MiB shared L3) queried
//! closed-loop through `Executor::run_into`, one chunk after another.
//! An index about the size of the L3 would run from cache or from DRAM
//! depending on what the host's other tenants keep there.

use std::hint::black_box;
use std::time::{Duration, Instant};

use exma_engine::{
    EngineBuilder, Executor, QueryArena, QueryBatch, QueryOutput, QueryRequest, QueryResults,
};
use exma_genome::{suffix_array, Base, Genome, GenomeProfile};
use exma_index::{naive, BatchResolver};

use crate::inputs;
use crate::json::Json;
use crate::layers::{self, EngineSplit, Scratch};
use crate::stats;
use crate::trace::{secs, timed, Spans};
use crate::{out_dir, Args, Report};

/// A batch workload's inputs.
pub struct Spec {
    pub name: &'static str,
    pub request: QueryRequest,
    /// Queries per `run_into` call. Chunks are sized to under 2 ms of
    /// engine work each, so a run yields several slices of 1,000 chunk
    /// latencies, each supporting a p99.
    pub chunk: usize,
    /// Distinct patterns generated; the run cycles through them.
    pub patterns: usize,
    pub generate: fn(&Genome, usize, u64) -> Vec<Vec<Base>>,
    /// Queries checked against the 1-step sequential oracle.
    pub oracle_queries: usize,
}

/// Search-bound: error-bearing reads mostly die within a few k-steps,
/// and counts never touch the resolver.
pub const COUNT_READS: Spec = Spec {
    name: "batch_count_reads",
    request: QueryRequest::Count,
    chunk: 512,
    patterns: 128 * 1024,
    generate: inputs::illumina_reads,
    oracle_queries: 8 * 1024,
};

/// Builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Untimed chunks before the measurement: the arena reaches its
/// high-water capacity and the first page faults are paid.
const WARMUP_CHUNKS: usize = 16;
/// Chunks per throughput slice of the run record: about 0.15 s of
/// engine work.
const QPS_SLICE_CHUNKS: usize = 100;
/// Queries of the first chunk also checked against a brute-force scan.
const NAIVE_QUERIES: usize = 16;

pub fn run(spec: &Spec, args: &Args) -> Result<Report, String> {
    let genome = inputs::genome(&GenomeProfile::pinus_rel());
    let text = genome.text_with_sentinel();
    let chunks = inputs::chunks(
        spec.request,
        &(spec.generate)(&genome, spec.patterns, args.seed),
        spec.chunk,
    );
    let builder = EngineBuilder::new();

    // Set-up: build + attach, several times; keep the last index. After
    // each set-up, one window of the measurement runs on the fresh
    // engine: spread over the run, the windows sample a shared host's
    // drift at several points, and `queries_per_s` is their median.
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut index = None;
    let mut arena = QueryArena::new();
    let mut measured = Measured::default();
    let keep = spec.oracle_queries.div_ceil(spec.chunk);
    for _ in 0..SETUP_REPS {
        drop(index.take()); // free the previous build before the next one
        let start = Instant::now();
        let built = builder
            .build_index(&text)
            .map_err(|e| format!("build_index: {e}"))?;
        let built_at = Instant::now();
        let engine = builder.attach(&built).map_err(|e| format!("attach: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        build_s.push(secs((start, built_at)));
        for chunk in chunks.iter().take(WARMUP_CHUNKS) {
            black_box(engine.run_into(chunk, &mut arena));
        }
        let window = args.seconds / SETUP_REPS as f64;
        measure(
            engine.as_ref(),
            &chunks,
            window,
            keep,
            &mut arena,
            &mut measured,
        );
        drop(engine);
        index = Some(built);
    }
    let index = index.expect("at least one set-up rep");
    let engine = builder.attach(&index).map_err(|e| format!("attach: {e}"))?;

    let mut metrics = Vec::new();
    let mut record = Json::obj()
        .field("chunk_queries", spec.chunk)
        .field("distinct_patterns", spec.patterns)
        .field("chunks_timed", measured.latency_s.len())
        .field("queries_timed", measured.queries);
    let mut failed = 0;
    if args.trace {
        let (snapshot_failed, split) = traced(
            &genome,
            &text,
            &index,
            &builder,
            &chunks,
            &measured,
            args,
            &mut metrics,
        )?;
        failed += snapshot_failed;
        record = record.field("split", split);
        metrics.push((
            "index.build_s",
            stats::median(&build_s).expect("set-up reps"),
        ));
    } else {
        let e2e = e2e_metrics(&measured, &setup_s)?;
        record = record.field("spread", e2e.spread);
        metrics.extend(e2e.values);
        metrics.push(("index_bytes", index.heap_bytes() as f64));
    }
    // The oracle builds its own index: free this one first.
    drop(engine);
    drop(index);

    let checks = check(&genome, &text, &chunks, &measured.kept)?;
    failed += checks.failed;
    record = record
        .field("oracle_checked_queries", checks.oracle_checked)
        .field("naive_checked_queries", checks.naive_checked);
    Ok(Report {
        attempted: measured.queries as u64,
        failed,
        metrics,
        record,
    })
}

#[derive(Default)]
struct Measured {
    /// Queries per second of each measurement window.
    window_qps: Vec<f64>,
    /// Wall time of each chunk's `run_into`, in order.
    latency_s: Vec<f64>,
    /// Queries in each timed chunk.
    chunk_queries: Vec<usize>,
    queries: usize,
    /// Results of the first chunks, kept for the oracle check.
    kept: Vec<QueryResults>,
}

/// One measurement window: closed-loop chunks for `seconds`, cycling
/// through `chunks` from the first, appended to `m`. The results of the
/// first `keep` chunks are kept once, in chunk order.
fn measure(
    engine: &dyn Executor,
    chunks: &[QueryBatch],
    seconds: f64,
    keep: usize,
    arena: &mut QueryArena,
    m: &mut Measured,
) {
    let (queries, timed) = (m.queries, m.latency_s.len());
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < end {
        let chunk = &chunks[i % chunks.len()];
        let start = Instant::now();
        let batch_stats = engine.run_into(chunk, arena);
        let took = start.elapsed();
        black_box((batch_stats, arena.results()));
        m.latency_s.push(took.as_secs_f64());
        m.chunk_queries.push(chunk.len());
        m.queries += chunk.len();
        if i < keep && i == m.kept.len() {
            m.kept.push(arena.results().clone());
        }
        i += 1;
    }
    let window_s: f64 = m.latency_s[timed..].iter().sum();
    m.window_qps.push((m.queries - queries) as f64 / window_s);
}

struct E2e {
    values: Vec<(&'static str, f64)>,
    spread: Json,
}

fn e2e_metrics(m: &Measured, setup_s: &[f64]) -> Result<E2e, String> {
    let latency_ms: Vec<f64> = m.latency_s.iter().map(|s| s * 1e3).collect();
    let slices = stats::sliced_percentiles(&latency_ms);
    if slices.is_empty() {
        return Err(format!(
            "{} chunks cannot support a p99 (needs {})",
            latency_ms.len(),
            stats::SLICE_SAMPLES
        ));
    }
    let p50s: Vec<f64> = slices.iter().map(|s| s.0).collect();
    let p90s: Vec<f64> = slices.iter().map(|s| s.1).collect();
    let p99s: Vec<f64> = slices.iter().map(|s| s.2).collect();
    // Throughput over short slices, for the run record's spread.
    let qps: Vec<f64> = m
        .latency_s
        .chunks_exact(QPS_SLICE_CHUNKS)
        .zip(m.chunk_queries.chunks_exact(QPS_SLICE_CHUNKS))
        .map(|(lat, queries)| queries.iter().sum::<usize>() as f64 / lat.iter().sum::<f64>())
        .collect();
    let median = |v: &[f64]| stats::median(v).expect("non-empty");
    Ok(E2e {
        values: vec![
            ("setup_s", median(setup_s)),
            ("queries_per_s", median(&m.window_qps)),
        ],
        spread: Json::obj()
            .field("setup_s", spread_json(setup_s))
            .field("queries_per_s_per_window", spread_json(&m.window_qps))
            .field("queries_per_s_per_slice", spread_json(&qps))
            .field("latency_p50_ms", spread_json(&p50s))
            .field("latency_p90_ms", spread_json(&p90s))
            .field("latency_p99_ms", spread_json(&p99s)),
    })
}

pub fn spread_json(values: &[f64]) -> Json {
    match stats::spread(values) {
        Some(s) => Json::obj()
            .field("min", s.min)
            .field("median", s.median)
            .field("p90", s.p90)
            .field("reps", s.reps),
        None => Json::Null,
    }
}

/// The traced run: the per-layer split over chunks replayed layer by
/// layer for `seconds`, plus the set-up layers. Returns failures found
/// (a snapshot that does not reproduce the index) and the split's
/// bookkeeping for the run record.
#[allow(clippy::too_many_arguments)]
fn traced(
    genome: &Genome,
    text: &[exma_genome::Symbol],
    index: &exma_index::KStepFmIndex,
    builder: &EngineBuilder,
    chunks: &[QueryBatch],
    untraced: &Measured,
    args: &Args,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(u64, Json), String> {
    let (sa, sa_span) = timed(|| suffix_array(text));
    drop(sa);
    out.push(("genome.suffix_array_s", secs(sa_span)));
    let dir = out_dir()?;
    let snapshot = dir.join(format!(
        "snapshot-{}-{}.bin",
        genome.profile().name,
        std::process::id()
    ));
    let reproduced = layers::snapshot_metrics(builder, index, &snapshot, out);
    let _ = std::fs::remove_file(&snapshot);
    let failed = u64::from(!reproduced?);
    layers::heap_metrics(&index.heap_breakdown(), out);

    let engine = builder.attach(index).map_err(|e| format!("attach: {e}"))?;
    let mut resolver =
        BatchResolver::with_config(index.base_index(), layers::resolve_config(builder)?);
    let mut split = EngineSplit::default();
    let mut scratch = Scratch::default();
    let mut spans = Spans::new();
    let end = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0;
    while Instant::now() < end {
        let start = Instant::now();
        let parent = spans.push("batch.chunk", (start, start), None, i as u64);
        split.replay(
            engine.as_ref(),
            &mut resolver,
            &chunks[i % chunks.len()],
            true,
            &mut scratch,
            &mut spans,
            parent,
            i as u64,
        );
        spans.set_end(parent, Instant::now());
        i += 1;
    }
    split.metrics(out);
    let untraced_s_per_query = untraced.latency_s.iter().sum::<f64>() / untraced.queries as f64;
    out.extend(SERVE_ONLY.iter().map(|&name| (name, 0.0)));
    out.push((
        "trace.overhead_frac",
        split.run_s_per_query() / untraced_s_per_query - 1.0,
    ));
    spans
        .write(&dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        )))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok((failed, split.bookkeeping().field("chunks_traced", i)))
}

/// Per-layer metrics of the serving path that a batch run has no
/// measurement for: no server runs, and no client sends on a schedule.
/// Every workload must report every per-layer metric, so a batch run
/// reports these as placeholder zeros, not as measurements.
const SERVE_ONLY: &[&str] = &[
    "server.batcher.batches_run",
    "server.batcher.mean_coalesced",
    "server.batcher.max_coalesced",
    "server.batcher.queries_executed",
    "server.batcher.search_rounds",
    "server.batcher.resolve_rounds",
    "server.batcher.busy",
    "server.batcher.late_dropped",
    "server.conn.writer_shed",
    "client.send_lag_p50_us",
    "client.send_lag_p99_us",
    "serve.residual_p50_us",
    "serve.residual_p99_us",
];

struct Checks {
    failed: u64,
    oracle_checked: usize,
    naive_checked: usize,
}

/// The correctness gate: the kept chunks' answers against the 1-step
/// sequential oracle, and the first chunk's first queries against a
/// brute-force scan of the genome.
fn check(
    genome: &Genome,
    text: &[exma_genome::Symbol],
    chunks: &[QueryBatch],
    kept: &[QueryResults],
) -> Result<Checks, String> {
    let oracle_builder = EngineBuilder::new().k(1).sequential();
    let oracle_index = oracle_builder
        .build_index(text)
        .map_err(|e| format!("oracle build_index: {e}"))?;
    let oracle = oracle_builder
        .attach(&oracle_index)
        .map_err(|e| format!("oracle attach: {e}"))?;
    let mut failed = 0;
    let mut oracle_checked = 0;
    for (chunk, got) in chunks.iter().zip(kept) {
        let (want, _) = oracle.run(chunk);
        failed += mismatches(got, &want);
        oracle_checked += chunk.len();
    }
    let first = kept.first().ok_or("no chunk was timed")?;
    let naive_checked = NAIVE_QUERIES.min(chunks[0].len());
    for i in 0..naive_checked {
        let pattern = chunks[0].pattern(i);
        let agrees = match first.output(i) {
            QueryOutput::Count(n) => n as usize == naive::count(genome.seq(), pattern),
            _ => false,
        };
        failed += u64::from(!agrees);
    }
    Ok(Checks {
        failed,
        oracle_checked,
        naive_checked,
    })
}

/// Queries whose answer differs between two result sets.
pub fn mismatches(got: &QueryResults, want: &QueryResults) -> u64 {
    if got.len() != want.len() {
        return want.len().max(got.len()) as u64;
    }
    (0..got.len())
        .filter(|&i| got.output(i) != want.output(i) || got.positions(i) != want.positions(i))
        .count() as u64
}
