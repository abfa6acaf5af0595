//! `perfbench`: the repository benchmark.
//!
//! Three seeded workloads drive the EXMA crates only through their
//! public functions: a closed-loop, search-bound batch workload over
//! `Executor::run_into` on a DRAM-resident index, and two serving
//! workloads through `exma_server::Server` on a loopback socket (one
//! sparse, one dense), each driven open-loop for latency and closed-loop
//! for throughput. The program runs its defaults: `EngineBuilder::new()`
//! and `ServerConfig::default()`.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (untraced run) or
//! the per-layer metrics (`--trace 1`). The line before it is the run
//! record: machine, seed, commit and the spread over reps. Any wrong
//! answer makes the exit code non-zero. See `perfbench/README.md`.

mod batch;
mod client;
mod inputs;
mod json;
mod layers;
mod record;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;

/// End-to-end metrics: (name, unit). Every workload reports each.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("index_bytes", "B"),
    ("queries_per_s", "q/s"),
];

/// Per-layer metrics of a traced run: (name, unit). Every workload
/// reports each; see the README for which end-to-end metric each
/// should move.
pub const LAYERS: &[(&str, &str)] = &[
    ("genome.suffix_array_s", "s"),
    ("index.build_s", "s"),
    ("index.snapshot.load_s", "s"),
    ("index.snapshot.decode_s", "s"),
    ("index.snapshot.bytes", "B"),
    ("index.heap.k_occ_checkpoints_bytes", "B"),
    ("index.heap.k_occ_deltas_bytes", "B"),
    ("index.heap.k_occ_codes_bytes", "B"),
    ("index.heap.one_step_occ_bytes", "B"),
    ("index.heap.sa_samples_bytes", "B"),
    ("index.heap.rank_bits_bytes", "B"),
    ("index.heap.other_bytes", "B"),
    ("engine.batch.search_s", "s"),
    ("engine.batch.rounds", "count"),
    ("engine.batch.lf_steps", "count"),
    ("engine.batch.lf_steps_per_query", "ratio"),
    ("engine.batch.peak_live", "count"),
    ("engine.batch.live_frac", "ratio"),
    ("index.resolve.s", "s"),
    ("index.resolve.lf_steps", "count"),
    ("index.resolve.rounds", "count"),
    ("index.resolve.cursors_retired", "count"),
    ("index.resolve.cursors_dropped", "count"),
    ("index.resolve.lf_steps_per_hit", "ratio"),
    ("engine.exec.run_s", "s"),
    ("engine.exec.assembly_s", "s"),
    ("server.wire.decode_query_us", "us"),
    ("server.wire.encode_results_us", "us"),
    ("server.wire.request_bytes", "B"),
    ("server.wire.response_bytes", "B"),
    ("server.engine_run_us", "us"),
    ("server.batcher.batches_run", "count"),
    ("server.batcher.mean_coalesced", "ratio"),
    ("server.batcher.max_coalesced", "count"),
    ("server.batcher.queries_executed", "count"),
    ("server.batcher.search_rounds", "count"),
    ("server.batcher.resolve_rounds", "count"),
    ("server.batcher.busy", "count"),
    ("server.batcher.late_dropped", "count"),
    ("server.conn.writer_shed", "count"),
    ("client.send_lag_p50_us", "us"),
    ("client.send_lag_p99_us", "us"),
    ("client.decode_results_us", "us"),
    ("serve.residual_p50_us", "us"),
    ("serve.residual_p99_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchCountReads,
    ServeSparse,
    ServeDense,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BatchCountReads,
        Workload::ServeSparse,
        Workload::ServeDense,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchCountReads => batch::COUNT_READS.name,
            Workload::ServeSparse => "serve_sparse",
            Workload::ServeDense => "serve_dense",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The serving SLO: a ladder rung passes only with p99 at or under
    /// this many ms.
    pub slo_p99_ms: f64,
}

/// What a workload measured.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Named values: the end-to-end metrics, or with `--trace 1` the
    /// per-layer ones.
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload-specific run-record fields.
    pub record: Json,
}

const USAGE: &str = "\
usage: perfbench --slo-p99-ms MS --workload NAME --seed N --seconds S --trace 0|1

workloads: batch_count_reads serve_sparse serve_dense
Prints the run record, then one JSON result line; exits 1 on any wrong
answer or failed run, 2 on bad arguments.";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut slo_p99_ms = None;
    while let Some(flag) = argv.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            "--slo-p99-ms" => {
                slo_p99_ms = Some(
                    value
                        .parse()
                        .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Some(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        slo_p99_ms: slo_p99_ms.ok_or_else(|| missing("--slo-p99-ms"))?,
    }))
}

/// Where a run leaves its spans and transient snapshots: `out/` beside
/// this package's manifest, inside the checkout being measured.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The result line: every metric of the run's kind, in declared order.
fn result_line(args: &Args, report: &Report) -> Result<Json, String> {
    let wanted = if args.trace { LAYERS } else { E2E };
    let mut metrics = Json::obj();
    for &(name, unit) in wanted {
        let value = report
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("{} produced no {name}", args.workload.name()))?;
        if !value.is_finite() {
            return Err(format!("{name} is not a number: {value}"));
        }
        metrics = metrics.field(name, Json::obj().field("value", value).field("unit", unit));
    }
    Ok(Json::obj()
        .field("correct", report.failed == 0)
        .field("attempted", report.attempted.max(1))
        .field("failed", report.failed)
        .field("metrics", metrics))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::BatchCountReads => batch::run(&batch::COUNT_READS, &args),
        Workload::ServeSparse | Workload::ServeDense => serve::run(&args),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let line = match result_line(&args, &report) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run_record = Json::obj()
        .field("workload", args.workload.name())
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field("slo_p99_ms", args.slo_p99_ms)
        .field("commit", record::commit())
        .field("machine", record::machine())
        .field("attempted", report.attempted)
        .field("failed", report.failed)
        .field(
            "failed_frac",
            report.failed as f64 / report.attempted.max(1) as f64,
        )
        .field("details", report.record.clone());
    println!("{}", Json::obj().field("run_record", run_record));
    println!("{line}");
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} wrong or failed operations", report.failed);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Option<Args>, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve_dense --seed 3 --seconds 10 --trace 1 --slo-p99-ms 15")
            .unwrap()
            .unwrap();
        assert_eq!(a.workload, Workload::ServeDense);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.slo_p99_ms),
            (3, 10.0, true, 15.0)
        );
        assert!(args("--help").unwrap().is_none());
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0 --slo-p99-ms 40",
            "--workload serve_dense --seed 1 --seconds 1 --trace 2 --slo-p99-ms 40",
            "--workload serve_dense --seed 1 --seconds 0 --trace 0 --slo-p99-ms 40",
            "--workload serve_dense --seed 1 --trace 0 --slo-p99-ms 40",
            "--workload serve_dense --seed 1 --seconds 1 --trace 0 --slo-p99-ms 40 --bogus 1",
            "--workload serve_dense --seed 1 --seconds 1 --trace 0",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// `(name, unit)` of every object in one section of BENCHMARK.json
    /// (unit empty where the object has none).
    fn entries(section: &str) -> Vec<(String, String)> {
        let field = |object: &str, key: &str| {
            let tag = format!("\"{key}\": \"");
            object.find(&tag).map(|at| {
                let rest = &object[at + tag.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
        };
        section
            .split('}')
            .filter_map(|object| {
                Some((
                    field(object, "name")?,
                    field(object, "unit").unwrap_or_default(),
                ))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_benchmark() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let at = |key: &str| text.find(&format!("\"{key}\"")).expect(key);
        let (workloads, e2e, layers) = (at("workloads"), at("end_to_end"), at("per_layer"));
        assert!(workloads < e2e && e2e < layers);
        let workloads = entries(&text[workloads..e2e]);
        let e2e = entries(&text[e2e..layers]);
        let layers = entries(&text[layers..]);

        let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(e2e, owned(E2E));
        assert_eq!(layers, owned(LAYERS));

        for (name, _) in workloads.iter().chain(&e2e).chain(&layers) {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} uses a character outside letters, digits, _ . -"
            );
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = E2E.iter().chain(LAYERS).map(|(n, _)| *n).collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
    }
}
