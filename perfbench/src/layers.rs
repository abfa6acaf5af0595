//! The traced engine split: one batch replayed through each layer's
//! public entry point in turn — wire decode, the full executor run,
//! wire encode, the search alone (as `Interval` requests) and the
//! resolver alone — timing and counting each call from the outside.

use std::fs;
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;

use exma_engine::{
    BatchConfig, EngineBuilder, Executor, HeapBreakdown, QueryArena, QueryBatch, QueryOutput,
    QueryRequest,
};
use exma_index::{decode_snapshot, BatchResolver, KStepFmIndex, ResolveConfig, UNCAPPED};
use exma_server::wire;

use crate::json::Json;
use crate::stats;
use crate::trace::{secs, timed, Spans};

/// Per-layer totals over every replayed batch.
#[derive(Default)]
pub struct EngineSplit {
    queries: u64,
    search_s: f64,
    rounds: u64,
    lf_steps: u64,
    peak_live: u64,
    live: u64,
    resolve_s: f64,
    resolve_lf_steps: u64,
    resolve_rounds: u64,
    retired: u64,
    dropped: u64,
    run_s: f64,
    decode_query_us: Vec<f64>,
    encode_results_us: Vec<f64>,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
    engine_run_us: Vec<f64>,
    client_decode_us: Vec<f64>,
}

/// Reused buffers of the replay.
#[derive(Default)]
pub struct Scratch {
    run: QueryArena,
    search: QueryArena,
    request: Vec<u8>,
    response: Vec<u8>,
    intervals: Vec<Range<usize>>,
    caps: Vec<u32>,
    flat: Vec<u32>,
    offsets: Vec<usize>,
}

impl EngineSplit {
    /// Replays `batch` layer by layer, recording a span per call under
    /// `parent`. `client_decode` also times the client's
    /// `decode_results` here (the serving client times its own).
    /// Returns the server's share in seconds: wire decode + executor
    /// run + wire encode.
    #[allow(clippy::too_many_arguments)]
    pub fn replay(
        &mut self,
        exec: &dyn Executor,
        resolver: &mut BatchResolver<'_>,
        batch: &QueryBatch,
        client_decode: bool,
        scratch: &mut Scratch,
        spans: &mut Spans,
        parent: usize,
        request: u64,
    ) -> f64 {
        let s = scratch;
        s.request.clear();
        wire::encode_query_batch(batch, &mut s.request).expect("generated requests are encodable");
        let (decoded, decode) = timed(|| wire::decode_query_batch(&s.request, usize::MAX, None));
        let decoded = decoded.expect("the encoder's own output decodes");
        spans.push("server.wire.decode_query", decode, Some(parent), request);

        let (_, run) = timed(|| exec.run_into(&decoded, &mut s.run));
        spans.push("engine.exec.run", run, Some(parent), request);

        s.response.clear();
        let (_, encode) = timed(|| {
            wire::encode_results_range(s.run.results(), 0, decoded.len(), &mut s.response)
        });
        spans.push("server.wire.encode_results", encode, Some(parent), request);
        if client_decode {
            let (outputs, span) = timed(|| wire::decode_results(&s.response));
            black_box(outputs.expect("the encoder's own output decodes"));
            spans.push("client.decode_results", span, Some(parent), request);
            self.client_decode_us.push(secs(span) * 1e6);
        }

        // The same patterns as `Interval` requests: the search alone.
        let search_batch = QueryBatch::uniform(QueryRequest::Interval, decoded.patterns());
        let (search_stats, search) = timed(|| exec.run_into(&search_batch, &mut s.search));
        spans.push("engine.batch.search", search, Some(parent), request);
        s.intervals.clear();
        s.caps.clear();
        for (i, output) in s.search.results().outputs().iter().enumerate() {
            let QueryOutput::Interval { lo, hi } = *output else {
                unreachable!("interval requests answer intervals");
            };
            self.live += u64::from(hi > lo);
            if let QueryRequest::Locate { max_hits } = decoded.request(i) {
                s.intervals.push(lo as usize..hi as usize);
                s.caps.push(max_hits.unwrap_or(UNCAPPED));
            }
        }

        // The locate intervals alone, through the engine's resolve schedule.
        let (resolve_stats, resolve) = timed(|| {
            resolver.resolve_intervals_capped(&s.intervals, &s.caps, &mut s.flat, &mut s.offsets)
        });
        spans.push("index.resolve", resolve, Some(parent), request);

        self.queries += decoded.len() as u64;
        self.search_s += secs(search);
        self.rounds += search_stats.rounds as u64;
        self.lf_steps += search_stats.steps as u64;
        self.peak_live = self.peak_live.max(search_stats.peak_live as u64);
        self.resolve_s += secs(resolve);
        self.resolve_lf_steps += resolve_stats.lf_steps as u64;
        self.resolve_rounds += resolve_stats.rounds as u64;
        self.retired += resolve_stats.retired as u64;
        self.dropped += resolve_stats.dropped as u64;
        self.run_s += secs(run);
        self.decode_query_us.push(secs(decode) * 1e6);
        self.encode_results_us.push(secs(encode) * 1e6);
        self.request_bytes.push(s.request.len() as f64);
        self.response_bytes.push(s.response.len() as f64);
        self.engine_run_us.push(secs(run) * 1e6);
        secs(decode) + secs(run) + secs(encode)
    }

    /// The full runs' mean time per query, in seconds.
    pub fn run_s_per_query(&self) -> f64 {
        self.run_s / self.queries.max(1) as f64
    }

    /// `engine.exec.assembly_s`: what the full run spent outside the
    /// separately timed search and resolve. Reported even when
    /// negative — a strongly negative value means the split does not
    /// add up.
    pub fn assembly_s(&self) -> f64 {
        self.run_s - self.search_s - self.resolve_s
    }

    /// The split's own consistency figures for the run record: search,
    /// resolve and assembly must add up to the full runs, and the
    /// separately timed parts must not exceed them by more than 10%.
    pub fn bookkeeping(&self) -> Json {
        Json::obj()
            .field("queries", self.queries)
            .field("run_s", self.run_s)
            .field(
                "search_plus_resolve_plus_assembly_s",
                self.search_s + self.resolve_s + self.assembly_s(),
            )
            .field("adds_up", self.assembly_s() >= -0.1 * self.run_s)
    }

    pub fn metrics(&self, out: &mut Vec<(&'static str, f64)>) {
        let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let p50 = |v: &[f64]| stats::median(v).unwrap_or(0.0);
        out.extend([
            ("engine.batch.search_s", self.search_s),
            ("engine.batch.rounds", self.rounds as f64),
            ("engine.batch.lf_steps", self.lf_steps as f64),
            (
                "engine.batch.lf_steps_per_query",
                per(self.lf_steps, self.queries),
            ),
            ("engine.batch.peak_live", self.peak_live as f64),
            ("engine.batch.live_frac", per(self.live, self.queries)),
            ("index.resolve.s", self.resolve_s),
            ("index.resolve.lf_steps", self.resolve_lf_steps as f64),
            ("index.resolve.rounds", self.resolve_rounds as f64),
            ("index.resolve.cursors_retired", self.retired as f64),
            ("index.resolve.cursors_dropped", self.dropped as f64),
            (
                "index.resolve.lf_steps_per_hit",
                per(self.resolve_lf_steps, self.retired),
            ),
            ("engine.exec.run_s", self.run_s),
            ("engine.exec.assembly_s", self.assembly_s()),
            ("server.wire.decode_query_us", p50(&self.decode_query_us)),
            (
                "server.wire.encode_results_us",
                p50(&self.encode_results_us),
            ),
            ("server.wire.request_bytes", p50(&self.request_bytes)),
            ("server.wire.response_bytes", p50(&self.response_bytes)),
            ("server.engine_run_us", p50(&self.engine_run_us)),
        ]);
        if !self.client_decode_us.is_empty() {
            out.push(("client.decode_results_us", p50(&self.client_decode_us)));
        }
    }
}

/// The resolve schedule the engine `builder` attaches runs, for the
/// resolver replay. The builder has no getter for it, so it is found by
/// equality with the builder re-scheduled to each named preset pair; a
/// recipe outside them fails the traced run instead of replaying a
/// schedule the engine no longer runs.
pub fn resolve_config(builder: &EngineBuilder) -> Result<ResolveConfig, String> {
    let searches = [
        BatchConfig::locality(),
        BatchConfig::sorted(),
        BatchConfig::default(),
    ];
    let resolves = [
        ResolveConfig::locality(),
        ResolveConfig::sorted(),
        ResolveConfig::default(),
    ];
    searches
        .iter()
        .flat_map(|&search| resolves.iter().map(move |&resolve| (search, resolve)))
        .find(|&(search, resolve)| builder.schedule(search).resolve(resolve) == *builder)
        .map(|(_, resolve)| resolve)
        .ok_or_else(|| {
            format!(
                "{}: the engine's resolve schedule is no named preset, so the resolver replay cannot mirror it",
                builder.descriptor()
            )
        })
}

/// `index.heap.*`: the queried index's exact heap attribution.
pub fn heap_metrics(heap: &HeapBreakdown, out: &mut Vec<(&'static str, f64)>) {
    out.extend([
        (
            "index.heap.k_occ_checkpoints_bytes",
            heap.k_occ_checkpoints as f64,
        ),
        ("index.heap.k_occ_deltas_bytes", heap.k_occ_deltas as f64),
        ("index.heap.k_occ_codes_bytes", heap.k_occ_codes as f64),
        ("index.heap.one_step_occ_bytes", heap.one_step_occ as f64),
        ("index.heap.sa_samples_bytes", heap.sa_samples as f64),
        ("index.heap.rank_bits_bytes", heap.rank_bits as f64),
        ("index.heap.other_bytes", heap.other as f64),
    ]);
}

/// `index.snapshot.*` of `index` through a snapshot at `path`: the
/// verified load from disk, the decode of the same bytes in memory, and
/// the file size. Returns whether both loads reproduce `index`'s heap
/// exactly (the warm/cold cross-check).
pub fn snapshot_metrics(
    builder: &EngineBuilder,
    index: &KStepFmIndex,
    path: &Path,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<bool, String> {
    if !path.exists() {
        builder
            .snapshot_to(index, path)
            .map_err(|e| format!("snapshot_to: {e}"))?;
    }
    let (loaded, load) = timed(|| builder.attach_from_snapshot(path));
    let loaded = loaded.map_err(|e| format!("attach_from_snapshot: {e}"))?;
    let bytes = fs::read(path).map_err(|e| format!("reading the snapshot: {e}"))?;
    let config = index.build_config();
    let (decoded, decode) = timed(|| decode_snapshot(&bytes, Some(&config)));
    let decoded = decoded.map_err(|e| format!("decode_snapshot: {e}"))?;
    out.extend([
        ("index.snapshot.load_s", secs(load)),
        ("index.snapshot.decode_s", secs(decode)),
        ("index.snapshot.bytes", bytes.len() as f64),
    ]);
    let heap = index.heap_breakdown();
    Ok(loaded.heap_breakdown() == heap && decoded.heap_breakdown() == heap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_config_follows_the_builder() {
        let builder = EngineBuilder::new();
        for resolve in [ResolveConfig::default(), ResolveConfig::sorted()] {
            let rescheduled = builder.schedule(BatchConfig::sorted()).resolve(resolve);
            assert_eq!(resolve_config(&rescheduled), Ok(resolve));
        }
        let custom = builder.resolve(ResolveConfig {
            sort_by_row: true,
            prefetch_distance: 3,
        });
        assert!(resolve_config(&custom).is_err());
    }
}
