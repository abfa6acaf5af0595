//! The serving workloads: a `human_rel` index warm-started from a
//! snapshot behind `exma_server::Server` on a real loopback socket,
//! driven open-loop by the benchmark's own client with the server's
//! default configuration.

use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use exma_engine::{EngineBuilder, Executor, QueryArena, QueryBatch};
use exma_genome::{suffix_array, Genome, GenomeProfile};
use exma_index::{BatchResolver, KStepFmIndex};
use exma_server::{wire, Server, ServerConfig, ServerHandle, StatsSnapshot};

use crate::batch::spread_json;
use crate::client::{self, Control, Phase};
use crate::inputs::{self, QUERIES_PER_REQUEST};
use crate::json::Json;
use crate::layers::{self, EngineSplit, Scratch};
use crate::stats::{self, Rung};
use crate::trace::{secs, timed, Spans};
use crate::{out_dir, Args, Report, Workload};

/// `serve_sparse`'s rate: well under capacity, so fixed per-request
/// costs (linger, wake-ups, the socket) set the latency.
const SPARSE_RPS: f64 = 1_000.0;
/// `serve_dense`'s nominal rung: batches coalesce several submissions
/// each, yet the server keeps up on a 2-vCPU machine even when its
/// host is busy (there, 6,000 req/s already made the server shed the
/// connection).
const DENSE_NOMINAL_RPS: f64 = 4_000.0;
/// Share of a `serve_sparse` run its open-loop phase takes; the
/// closed-loop phase gets the rest.
const SPARSE_OPEN_SHARE: f64 = 0.4;
/// Shares of a `serve_dense` run the nominal rung and the closed-loop
/// phase take; the ladder above the nominal rung gets the rest.
const DENSE_NOMINAL_SHARE: f64 = 0.3;
const DENSE_CLOSED_SHARE: f64 = 0.4;
/// Requests in flight in `serve_sparse`'s closed loop: one, so every
/// request pays the fixed per-request costs alone.
const SPARSE_WINDOW: usize = 1;
/// Requests in flight in `serve_dense`'s closed loop: enough that the
/// server always has submissions to coalesce, so it runs at capacity.
const DENSE_WINDOW: usize = 32;
/// Distinct requests a closed-loop phase cycles through.
const CLOSED_POOL: usize = 4096;
/// Throughput slice of a closed-loop phase, for the run record.
const CLOSED_SLICE: Duration = Duration::from_millis(250);
/// Each ladder rung offers this much more than the one below it.
const DENSE_RUNG_STEP: f64 = 1.2;
/// Length of each rung above the nominal one.
const RUNG_SECS: f64 = 0.5;
/// The ladder stops after this many failing rungs in a row.
const FAILS_TO_STOP: usize = 2;
/// A generator whose median send lag exceeds this fell behind its
/// schedule: the rate it claims is not the rate it offered. (Timer
/// wake-ups alone run several ms late at p99 on a virtual machine with
/// nothing else running, so the bar is on the median.)
const MAX_SEND_LAG_P50: Duration = Duration::from_millis(1);
/// Server starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// A server running on its own thread.
struct Running {
    handle: ServerHandle,
    runner: thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Drains and joins the server: no thread of it outlives this.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.runner
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server run: {e}"))
    }
}

/// `setup_s`'s span: the verified snapshot load, the bind, and the
/// server's first answered frame.
fn start_server(
    builder: EngineBuilder,
    snapshot: &Path,
) -> Result<(Running, Control, Arc<KStepFmIndex>, f64), String> {
    let start = Instant::now();
    let index = builder
        .attach_from_snapshot(snapshot)
        .map_err(|e| format!("attach_from_snapshot: {e}"))?;
    let index = Arc::new(index);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&index),
        builder,
        ServerConfig::default(),
    )
    .map_err(|e| format!("Server::bind: {e}"))?;
    let handle = server.handle().map_err(|e| format!("handle: {e}"))?;
    let running = Running {
        handle: handle.clone(),
        runner: thread::spawn(move || server.run()),
    };
    let first_answer = Control::connect(handle.addr()).and_then(|mut control| {
        control.stats()?;
        Ok(control)
    });
    let setup = start.elapsed().as_secs_f64();
    match first_answer {
        Ok(control) => Ok((running, control, index, setup)),
        Err(e) => {
            running.stop()?;
            Err(format!("first STATS round trip: {e}"))
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let genome = inputs::genome(&GenomeProfile::human_rel());
    let text = genome.text_with_sentinel();
    let builder = EngineBuilder::new();
    // Untimed prep: the cold build answers for the oracle and writes
    // the snapshot every server start loads.
    let (cold, build) = timed(|| builder.build_index(&text));
    let cold = cold.map_err(|e| format!("build_index: {e}"))?;
    let snapshot = out_dir()?.join(format!(
        "snapshot-{}-{}.bin",
        args.workload.name(),
        std::process::id()
    ));
    builder
        .snapshot_to(&cold, &snapshot)
        .map_err(|e| format!("snapshot_to: {e}"))?;
    let mut metrics = Vec::new();
    if args.trace {
        let (sa, span) = timed(|| suffix_array(&text));
        drop(sa);
        metrics.push(("genome.suffix_array_s", secs(span)));
        metrics.push(("index.build_s", secs(build)));
    }
    let result = serve(&genome, &cold, builder, &snapshot, args, metrics);
    let _ = std::fs::remove_file(&snapshot);
    result
}

fn serve(
    genome: &Genome,
    cold: &KStepFmIndex,
    builder: EngineBuilder,
    snapshot: &Path,
    args: &Args,
    mut metrics: Vec<(&'static str, f64)>,
) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut server: Option<(Running, Control, Arc<KStepFmIndex>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((running, control, _)) = server.take() {
            drop(control);
            running.stop()?;
        }
        let (running, control, index, setup) = start_server(builder, snapshot)?;
        setup_s.push(setup);
        server = Some((running, control, index));
    }
    let (running, control, warm) = server.expect("at least one server start");
    let oracle = builder.attach(cold).map_err(|e| format!("attach: {e}"))?;
    let mut load = Load {
        genome,
        oracle: oracle.as_ref(),
        arena: QueryArena::new(),
        control,
        addr: running.handle.addr(),
        stream: None,
        phases: 0,
        next_id: 0,
        seed: args.seed,
    };
    let outcome = if args.trace {
        traced(&mut load, &warm, builder, snapshot, args, &mut metrics)
    } else {
        untraced(&mut load, args, &mut metrics)
    };
    drop(load);
    running.stop()?;
    let (attempted, mut failed, mut record) = outcome?;

    // The warm index must be the cold one: answers were byte-compared
    // against the cold build; the heap must match to the byte too.
    let same_heap = warm.heap_breakdown() == cold.heap_breakdown();
    failed += u64::from(!same_heap);
    record = record
        .field("warm_heap_equals_cold", same_heap)
        .field("setup_spread", spread_json(&setup_s));
    if !args.trace {
        metrics.push(("setup_s", stats::median(&setup_s).expect("set-up reps")));
        metrics.push(("index_bytes", warm.heap_bytes() as f64));
    }
    Ok(Report {
        attempted,
        failed,
        metrics,
        record,
    })
}

/// The client side of a run: request generation, the oracle's expected
/// payloads, and the connections.
struct Load<'a> {
    genome: &'a Genome,
    oracle: &'a dyn Executor,
    arena: QueryArena,
    control: Control,
    addr: std::net::SocketAddr,
    stream: Option<std::net::TcpStream>,
    phases: u64,
    next_id: u64,
    seed: u64,
}

/// One phase as measured, with what it sent.
struct PhaseRun {
    rate: f64,
    requests: Vec<QueryBatch>,
    schedule: Vec<Duration>,
    phase: Phase,
    before: StatsSnapshot,
    after: StatsSnapshot,
}

impl Load<'_> {
    /// Generates, frames and answers (through the oracle) a phase's
    /// requests, then runs the phase between two STATS samples.
    fn phase(&mut self, rate: f64, seconds: f64, trace: bool) -> Result<PhaseRun, String> {
        let n = ((rate * seconds).round() as usize).max(1);
        let phase_seed = self
            .seed
            .wrapping_add(self.phases.wrapping_mul(0x9e37_79b9));
        self.phases += 1;
        let requests = inputs::serve_requests(self.genome, n, phase_seed);
        let schedule = inputs::poisson_schedule(n, rate, phase_seed);
        let first = self.next_id;
        self.next_id += n as u64;
        let (payloads, expected) = self.encode(&requests)?;
        let frames: Vec<Vec<u8>> = payloads
            .iter()
            .enumerate()
            .map(|(i, payload)| wire::query_frame(first + i as u64, 0, payload))
            .collect();
        let stream = self.stream()?;
        let before = self.control.stats().map_err(|e| format!("STATS: {e}"))?;
        let phase = client::run_phase(
            &stream,
            &frames,
            &expected,
            first as usize,
            &schedule,
            trace,
        )
        .map_err(|e| format!("load phase: {e}"))?;
        let after = self.control.stats().map_err(|e| format!("STATS: {e}"))?;
        if phase.failed() > 0 {
            // Replies still owed to this phase (or a connection the
            // server shed) must not leak into the next one.
            self.stream = None;
        }
        Ok(PhaseRun {
            rate,
            requests,
            schedule,
            phase,
            before,
            after,
        })
    }

    /// A closed-loop phase: `window` requests in flight for `seconds`,
    /// cycling through a seeded pool, between two STATS samples.
    fn closed(&mut self, window: usize, seconds: f64) -> Result<ClosedRun, String> {
        let pool_seed = self
            .seed
            .wrapping_add(self.phases.wrapping_mul(0x9e37_79b9));
        self.phases += 1;
        let requests = inputs::serve_requests(self.genome, CLOSED_POOL, pool_seed);
        let (payloads, expected) = self.encode(&requests)?;
        let first = self.next_id;
        let stream = self.stream()?;
        let before = self.control.stats().map_err(|e| format!("STATS: {e}"))?;
        let closed = client::run_closed(
            &stream,
            &payloads,
            &expected,
            first,
            window,
            Duration::from_secs_f64(seconds),
        )
        .map_err(|e| format!("closed-loop phase: {e}"))?;
        let after = self.control.stats().map_err(|e| format!("STATS: {e}"))?;
        self.next_id += closed.sent;
        if closed.failed() > 0 {
            self.stream = None;
        }
        Ok(ClosedRun {
            window,
            seconds,
            closed,
            before,
            after,
        })
    }

    /// Each request's query payload, and the RESULTS payload the oracle
    /// expects for it.
    fn encode(&mut self, requests: &[QueryBatch]) -> Result<Encoded, String> {
        let mut payloads = Vec::with_capacity(requests.len());
        let mut expected = Vec::with_capacity(requests.len());
        for request in requests {
            let mut payload = Vec::new();
            wire::encode_query_batch(request, &mut payload)
                .map_err(|e| format!("encode_query_batch: {e}"))?;
            payloads.push(payload);
            self.oracle.run_into(request, &mut self.arena);
            let mut answer = Vec::new();
            wire::encode_results_range(self.arena.results(), 0, request.len(), &mut answer);
            expected.push(answer);
        }
        Ok((payloads, expected))
    }

    /// The load connection (opened when there is none), as a handle of
    /// its own.
    fn stream(&mut self) -> Result<std::net::TcpStream, String> {
        if self.stream.is_none() {
            self.stream =
                Some(client::connect_load(self.addr).map_err(|e| format!("connect: {e}"))?);
        }
        let stream = self.stream.as_ref().expect("load connection open");
        stream
            .try_clone()
            .map_err(|e| format!("load connection: {e}"))
    }
}

/// Query payloads and the RESULTS payloads expected for them.
type Encoded = (Vec<Vec<u8>>, Vec<Vec<u8>>);

/// A closed-loop phase as measured.
struct ClosedRun {
    window: usize,
    seconds: f64,
    closed: client::Closed,
    before: StatsSnapshot,
    after: StatsSnapshot,
}

impl ClosedRun {
    /// Answered queries per second in each [`CLOSED_SLICE`] of the phase.
    fn slice_queries_per_s(&self) -> Vec<f64> {
        let slices = (self.seconds / CLOSED_SLICE.as_secs_f64()) as usize;
        let mut answered = vec![0usize; slices];
        for at in &self.closed.answered_at {
            if let Some(n) =
                answered.get_mut(at.as_nanos() as usize / CLOSED_SLICE.as_nanos() as usize)
            {
                *n += 1;
            }
        }
        answered
            .iter()
            .map(|&n| (n * QUERIES_PER_REQUEST) as f64 / CLOSED_SLICE.as_secs_f64())
            .collect()
    }

    /// `queries_per_s`: by Little's law, the queries in flight over the
    /// median round trip. A closed loop's rate is the window over its
    /// mean round trip; the median keeps the stretches a shared host
    /// stalls (one window-1 phase answered 11k q/s in its median slice
    /// against 17k in its 90th-percentile one) from setting the figure,
    /// while a slower server lengthens every round trip.
    fn queries_per_s(&self) -> Result<f64, String> {
        let round_trip = stats::median(
            &self
                .closed
                .round_trip
                .iter()
                .map(Duration::as_secs_f64)
                .collect::<Vec<_>>(),
        )
        .ok_or("the closed-loop phase answered nothing")?;
        Ok((self.window * QUERIES_PER_REQUEST) as f64 / round_trip)
    }

    fn record(&self) -> Json {
        let answered = self
            .closed
            .answered_at
            .iter()
            .filter(|at| at.as_secs_f64() <= self.seconds)
            .count();
        let round_trip_ms = stats::sorted(
            self.closed
                .round_trip
                .iter()
                .map(|d| d.as_secs_f64() * 1e3)
                .collect(),
        );
        let f = self.closed.failures;
        Json::obj()
            .field("window", self.window)
            .field("seconds", self.seconds)
            .field("requests", self.closed.sent)
            .field(
                "whole_phase_queries_per_s",
                (answered * QUERIES_PER_REQUEST) as f64 / self.seconds,
            )
            .field(
                "queries_per_s_per_slice",
                spread_json(&self.slice_queries_per_s()),
            )
            .field("round_trip_samples", round_trip_ms.len())
            .field(
                "round_trip_p50_ms",
                stats::nearest_rank(&round_trip_ms, 0.5),
            )
            .field(
                "round_trip_p99_ms",
                stats::supported_percentile(&round_trip_ms, 0.99),
            )
            .field("mean_coalesced", mean_coalesced(&self.before, &self.after))
            .field(
                "failures",
                Json::obj()
                    .field("mismatched", f.mismatched)
                    .field("refused", f.refused)
                    .field("rejected", f.rejected)
                    .field("unanswered", f.unanswered),
            )
    }
}

impl PhaseRun {
    /// Answered requests' latencies in schedule order.
    fn latencies_ms(&self) -> Vec<f64> {
        (0..self.requests.len())
            .filter_map(|i| self.phase.latency(i))
            .map(|d| d.as_secs_f64() * 1e3)
            .collect()
    }

    fn send_lag_us(&self) -> Vec<f64> {
        stats::sorted(
            self.phase
                .send_lag
                .iter()
                .map(|d| d.as_secs_f64() * 1e6)
                .collect(),
        )
    }

    fn rung(&self) -> Rung {
        let window = self.schedule.last().map_or(0.0, Duration::as_secs_f64);
        let in_window = (0..self.requests.len())
            .filter_map(|i| self.phase.latency(i).map(|l| self.schedule[i] + l))
            .filter(|done| done.as_secs_f64() <= window)
            .count();
        Rung {
            rate_rps: self.rate,
            offered_rps: self.requests.len() as f64 / window,
            achieved_rps: in_window as f64 / window,
            p99_ms: stats::supported_percentile(&stats::sorted(self.latencies_ms()), 0.99),
            failed: self.phase.failed(),
            generator_on_time: stats::median(&self.send_lag_us())
                .is_some_and(|lag| lag <= MAX_SEND_LAG_P50.as_secs_f64() * 1e6),
        }
    }

    fn record(&self, limit_ms: f64) -> Json {
        let rung = self.rung();
        let latency = stats::sorted(self.latencies_ms());
        let lag = self.send_lag_us();
        let delta = |f: fn(&StatsSnapshot) -> u64| f(&self.after).saturating_sub(f(&self.before));
        Json::obj()
            .field("rate_rps", self.rate)
            .field("requests", self.requests.len())
            .field("offered_rps", rung.offered_rps)
            .field("achieved_rps", rung.achieved_rps)
            .field("latency_samples", latency.len())
            .field("p50_ms", stats::nearest_rank(&latency, 0.5))
            .field("p90_ms", stats::nearest_rank(&latency, 0.9))
            .field("p99_ms", rung.p99_ms)
            .field("send_lag_p50_us", stats::nearest_rank(&lag, 0.5))
            .field("send_lag_p90_us", stats::nearest_rank(&lag, 0.9))
            .field("send_lag_p99_us", stats::nearest_rank(&lag, 0.99))
            .field("generator_on_time", rung.generator_on_time)
            .field("failed", rung.failed)
            .field("failures", {
                let f = self.phase.failures();
                Json::obj()
                    .field("mismatched", f.mismatched)
                    .field("refused", f.refused)
                    .field("rejected", f.rejected)
                    .field("unanswered", f.unanswered)
            })
            .field("busy_retries", self.phase.retries)
            .field("mean_coalesced", mean_coalesced(&self.before, &self.after))
            .field("server_busy", delta(|s| s.submissions_busy))
            .field("server_writer_shed", delta(|s| s.writer_shed))
            .field("passes_slo", stats::rung_passes(&rung, limit_ms))
    }
}

fn mean_coalesced(before: &StatsSnapshot, after: &StatsSnapshot) -> f64 {
    let batches = after.batches_run.saturating_sub(before.batches_run);
    let coalesced = after
        .submissions_coalesced
        .saturating_sub(before.submissions_coalesced);
    if batches == 0 {
        0.0
    } else {
        coalesced as f64 / batches as f64
    }
}

/// A run's verdict on its own generator: a headline phase whose sender
/// fell behind schedule measured a rate it did not offer.
fn require_on_time(run: &PhaseRun) -> Result<(), String> {
    if run.rung().generator_on_time {
        return Ok(());
    }
    Err(format!(
        "invalid run: the generator fell behind its schedule at {} req/s (median send lag {:?} us > {:?})",
        run.rate,
        stats::median(&run.send_lag_us()),
        MAX_SEND_LAG_P50
    ))
}

type Outcome = (u64, u64, Json);

fn untraced(
    load: &mut Load<'_>,
    args: &Args,
    metrics: &mut Vec<(&'static str, f64)>,
) -> Result<Outcome, String> {
    let limit = args.slo_p99_ms;
    if args.workload == Workload::ServeSparse {
        let run = load.phase(SPARSE_RPS, args.seconds * SPARSE_OPEN_SHARE, false)?;
        require_on_time(&run)?;
        let spread = latency_spread(&run)?;
        let closed = load.closed(SPARSE_WINDOW, args.seconds * (1.0 - SPARSE_OPEN_SHARE))?;
        metrics.push(("queries_per_s", closed.queries_per_s()?));
        let record = Json::obj()
            .field("spread", spread)
            .field("phase", run.record(limit))
            .field("closed_loop", closed.record());
        return Ok((
            run.requests.len() as u64 + closed.closed.sent,
            run.phase.failed() + closed.closed.failed(),
            record,
        ));
    }

    // The long nominal rung, the closed loop at capacity, then the
    // ladder: rungs 20% apart from the nominal rate until two fail in a
    // row or the run's time is spent.
    let mut rungs =
        vec![load.phase(DENSE_NOMINAL_RPS, args.seconds * DENSE_NOMINAL_SHARE, false)?];
    let nominal = &rungs[0];
    require_on_time(nominal)?;
    let spread = latency_spread(nominal)?;
    let closed = load.closed(DENSE_WINDOW, args.seconds * DENSE_CLOSED_SHARE)?;
    metrics.push(("queries_per_s", closed.queries_per_s()?));
    let mut budget = args.seconds * (1.0 - DENSE_NOMINAL_SHARE - DENSE_CLOSED_SHARE);
    let mut rate = DENSE_NOMINAL_RPS;
    let mut fails = 0;
    while fails < FAILS_TO_STOP && budget >= RUNG_SECS {
        rate = (rate * DENSE_RUNG_STEP).round();
        let run = load.phase(rate, RUNG_SECS, false)?;
        budget -= RUNG_SECS;
        fails = if stats::rung_passes(&run.rung(), limit) {
            0
        } else {
            fails + 1
        };
        rungs.push(run);
    }
    // The SLO capacity goes to the run record only: a single hypervisor
    // stall fails a short rung's p99, so on a shared virtual machine it
    // is far too unsteady to gate on.
    let ladder: Vec<Rung> = rungs.iter().map(PhaseRun::rung).collect();
    let best = stats::slo_max(&ladder, limit);
    let attempted = rungs.iter().map(|r| r.requests.len() as u64).sum::<u64>() + closed.closed.sent;
    // Every wrong answer fails the run, and so does any failure on the
    // nominal rung or in the closed loop. Above the nominal rung,
    // requests the server sheds or refuses are what the ladder probes
    // for: they fail their rung, and the run record lists them.
    let failed = rungs[0].phase.failed()
        + closed.closed.failed()
        + rungs[1..]
            .iter()
            .map(|r| r.phase.failures().mismatched)
            .sum::<u64>();
    let record = Json::obj()
        .field("spread", spread)
        .field("closed_loop", closed.record())
        .field("slo_max_rps", best.map(|r| r.rate_rps))
        .field("ladder_stopped_by_budget", fails < FAILS_TO_STOP)
        .field(
            "rungs",
            rungs.iter().map(|r| r.record(limit)).collect::<Vec<_>>(),
        );
    Ok((attempted, failed, record))
}

/// A headline phase's latency for the run record: the spread over its
/// slices of 1,000 requests of each slice's p50, p90 and p99.
fn latency_spread(run: &PhaseRun) -> Result<Json, String> {
    let slices = stats::sliced_percentiles(&run.latencies_ms());
    if slices.is_empty() {
        return Err(format!(
            "{} answered requests cannot support a p99",
            run.latencies_ms().len()
        ));
    }
    let p50s: Vec<f64> = slices.iter().map(|s| s.0).collect();
    let p90s: Vec<f64> = slices.iter().map(|s| s.1).collect();
    let p99s: Vec<f64> = slices.iter().map(|s| s.2).collect();
    Ok(Json::obj()
        .field("latency_p50_ms", spread_json(&p50s))
        .field("latency_p90_ms", spread_json(&p90s))
        .field("latency_p99_ms", spread_json(&p99s)))
}

/// The traced run: an untraced and a traced phase at the workload's
/// headline rate, then every answered request of the traced phase
/// replayed layer by layer outside the server.
fn traced(
    load: &mut Load<'_>,
    warm: &KStepFmIndex,
    builder: EngineBuilder,
    snapshot: &Path,
    args: &Args,
    metrics: &mut Vec<(&'static str, f64)>,
) -> Result<Outcome, String> {
    let reproduced = layers::snapshot_metrics(&builder, warm, snapshot, metrics)?;
    layers::heap_metrics(&warm.heap_breakdown(), metrics);
    let rate = if args.workload == Workload::ServeSparse {
        SPARSE_RPS
    } else {
        DENSE_NOMINAL_RPS
    };
    let untraced = load.phase(rate, args.seconds / 2.0, false)?;
    let traced = load.phase(rate, args.seconds / 2.0, true)?;
    require_on_time(&traced)?;

    let (before, after) = (&traced.before, &traced.after);
    let delta = |f: fn(&StatsSnapshot) -> u64| f(after).saturating_sub(f(before)) as f64;
    metrics.extend([
        ("server.batcher.batches_run", delta(|s| s.batches_run)),
        (
            "server.batcher.mean_coalesced",
            mean_coalesced(before, after),
        ),
        ("server.batcher.max_coalesced", after.max_coalesced as f64),
        (
            "server.batcher.queries_executed",
            delta(|s| s.queries_executed),
        ),
        ("server.batcher.search_rounds", delta(|s| s.search_rounds)),
        ("server.batcher.resolve_rounds", delta(|s| s.resolve_rounds)),
        ("server.batcher.busy", delta(|s| s.submissions_busy)),
        ("server.batcher.late_dropped", delta(|s| s.late_dropped)),
        ("server.conn.writer_shed", delta(|s| s.writer_shed)),
    ]);

    // Replays on the served (warm) index, after the load has stopped.
    let exec = builder.attach(warm).map_err(|e| format!("attach: {e}"))?;
    let mut resolver =
        BatchResolver::with_config(warm.base_index(), layers::resolve_config(&builder)?);
    let mut split = EngineSplit::default();
    let mut scratch = Scratch::default();
    let mut spans = Spans::new();
    let (mut decode_us, mut residual_us) = (Vec::new(), Vec::new());
    let phase = &traced.phase;
    for (i, request) in traced.requests.iter().enumerate() {
        let Some(latency) = phase.latency(i) else {
            continue;
        };
        let due = phase.start + traced.schedule[i];
        let root = spans.push("client.request", (due, due + latency), None, i as u64);
        if let Some(sent) = phase.sent_at[i] {
            spans.push("client.send", (due, sent), Some(root), i as u64);
        }
        let decode = phase.decode[i].map_or(0.0, |span| {
            spans.push("client.decode_results", span, Some(root), i as u64);
            secs(span)
        });
        let server_s = split.replay(
            exec.as_ref(),
            &mut resolver,
            request,
            false,
            &mut scratch,
            &mut spans,
            root,
            i as u64,
        );
        decode_us.push(decode * 1e6);
        residual_us.push((latency.as_secs_f64() - decode - server_s) * 1e6);
    }
    split.metrics(metrics);
    let lag = traced.send_lag_us();
    let residual = stats::sorted(residual_us);
    metrics.extend([
        ("client.send_lag_p50_us", stats::layer_percentile(&lag, 0.5)),
        (
            "client.send_lag_p99_us",
            stats::layer_percentile(&lag, 0.99),
        ),
        (
            "client.decode_results_us",
            stats::median(&decode_us).unwrap_or(0.0),
        ),
        (
            "serve.residual_p50_us",
            stats::layer_percentile(&residual, 0.5),
        ),
        (
            "serve.residual_p99_us",
            stats::layer_percentile(&residual, 0.99),
        ),
    ]);
    let p50 = |run: &PhaseRun| stats::median(&run.latencies_ms()).unwrap_or(f64::NAN);
    metrics.push(("trace.overhead_frac", p50(&traced) / p50(&untraced) - 1.0));
    let dir = out_dir()?;
    spans
        .write(&dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        )))
        .map_err(|e| format!("writing spans: {e}"))?;

    let limit = args.slo_p99_ms;
    let attempted = (untraced.requests.len() + traced.requests.len()) as u64;
    let failed = untraced.phase.failed() + traced.phase.failed() + u64::from(!reproduced);
    let record = Json::obj()
        .field("untraced", untraced.record(limit))
        .field("traced", traced.record(limit))
        .field("split", split.bookkeeping());
    Ok((attempted, failed, record))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed_run(seconds: f64, answered_at_ms: &[u64], round_trip_us: &[u64]) -> ClosedRun {
        ClosedRun {
            window: 4,
            seconds,
            closed: client::Closed {
                answered_at: answered_at_ms
                    .iter()
                    .map(|&ms| Duration::from_millis(ms))
                    .collect(),
                round_trip: round_trip_us
                    .iter()
                    .map(|&us| Duration::from_micros(us))
                    .collect(),
                failures: client::Failures::default(),
                sent: answered_at_ms.len() as u64,
            },
            before: StatsSnapshot::default(),
            after: StatsSnapshot::default(),
        }
    }

    #[test]
    fn closed_loop_slices_count_replies_per_slice() {
        // Ten 250 ms slices answering 1..=10 requests; a reply after the
        // phase's last whole slice counts in none.
        let mut at = Vec::new();
        for slice in 0..10u64 {
            at.extend((0..=slice).map(|_| slice * 250 + 100));
        }
        at.push(2_600);
        let per_slice: Vec<f64> = (1..=10)
            .map(|n| (n * QUERIES_PER_REQUEST) as f64 / 0.25)
            .collect();
        assert_eq!(closed_run(2.5, &at, &[]).slice_queries_per_s(), per_slice);
    }

    #[test]
    fn closed_loop_throughput_follows_the_median_round_trip() {
        // Four requests of eight queries in flight, a median round trip
        // of 2 ms: 16,000 q/s, however long the stalled round trips are.
        let run = closed_run(1.0, &[], &[1_000, 2_000, 2_000, 90_000, 90_000]);
        assert_eq!(run.queries_per_s(), Ok(16_000.0));
        assert!(closed_run(1.0, &[], &[]).queries_per_s().is_err());
    }
}
