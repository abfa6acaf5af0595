//! Workload inputs. The reference genome is fixed per workload, as a
//! real read set is aligned to one reference; everything sent to it —
//! reads, requests, arrival times — is drawn from the
//! benchmark's `--seed`, each stream salted with its own constant so
//! one stream's draws never shift another's.

use std::time::Duration;

use exma_engine::{QueryBatch, QueryRequest};
use exma_genome::{Base, ErrorProfile, Genome, GenomeProfile, SeededRng, ShortReadSimulator};

/// Synthesis seed of every workload's reference genome. A genome per
/// `--seed` would fold the repeat structure's draw (and with it the
/// hits per seed) into the run-to-run spread.
const GENOME_SEED: u64 = 42;
const READS_SALT: u64 = 0x4ead_5a17;
const REQUESTS_SALT: u64 = 0x4e9e_5a17;
const ARRIVALS_SALT: u64 = 0xa441_5a17;

/// Illumina read length of the search-bound workload.
pub const READ_LEN: usize = 100;
/// Queries per serving request, as in `exma-loadgen`'s default mix.
pub const QUERIES_PER_REQUEST: usize = 8;
/// Hit cap on every served locate, as in `exma-loadgen`'s default mix:
/// open-loop response sizes stay bounded whatever the pattern.
pub const LOCATE_CAP: u32 = 16;

/// The reference genome of a workload.
pub fn genome(profile: &GenomeProfile) -> Genome {
    Genome::synthesize(profile, GENOME_SEED)
}

/// Error-bearing Illumina reads from both strands, as sequenced (the
/// reverse-strand ones reverse-complemented, never flipped back).
pub fn illumina_reads(genome: &Genome, n: usize, seed: u64) -> Vec<Vec<Base>> {
    ShortReadSimulator::new(READ_LEN, ErrorProfile::illumina())
        .simulate(genome, n, seed ^ READS_SALT)
        .into_iter()
        .map(|read| read.bases.to_vec())
        .collect()
}

/// `patterns` cut into batches of `size` queries, each asking `request`.
pub fn chunks(request: QueryRequest, patterns: &[Vec<Base>], size: usize) -> Vec<QueryBatch> {
    patterns
        .chunks(size)
        .map(|chunk| QueryBatch::uniform(request, chunk))
        .collect()
}

/// `n` serving requests in `exma-loadgen`'s default mix: eight queries
/// cycling count, capped locate and interval over 8–28 bp patterns,
/// 70% sampled from the genome (hits) and 30% random (mostly misses).
pub fn serve_requests(genome: &Genome, n: usize, seed: u64) -> Vec<QueryBatch> {
    let mut rng = SeededRng::new(seed ^ REQUESTS_SALT);
    (0..n)
        .map(|idx| {
            let mut batch = QueryBatch::new();
            for q in 0..QUERIES_PER_REQUEST {
                let len = rng.range(8, 28);
                let pattern: Vec<Base> = if rng.chance(0.7) {
                    genome
                        .seq()
                        .slice(rng.range(0, genome.len() - len + 1), len)
                } else {
                    (0..len).map(|_| rng.base()).collect()
                };
                let request = match (idx + q) % 3 {
                    0 => QueryRequest::Count,
                    1 => QueryRequest::locate_capped(LOCATE_CAP),
                    _ => QueryRequest::Interval,
                };
                batch.push(request, pattern);
            }
            batch
        })
        .collect()
}

/// Open-loop Poisson send times: request `i` is due `schedule[i]` after
/// the phase starts, with exponential gaps at `rate` per second.
pub fn poisson_schedule(n: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = SeededRng::new(seed ^ ARRIVALS_SALT);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            // f64() is in [0, 1); flip it to (0, 1] so ln never sees 0.
            at += -(1.0 - rng.f64()).ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_genome() -> Genome {
        genome(&GenomeProfile::toy())
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let (a, b) = (small_genome(), small_genome());
        assert_eq!(a, b);
        assert_eq!(illumina_reads(&a, 50, 7), illumina_reads(&b, 50, 7));
        let (ra, rb) = (serve_requests(&a, 20, 7), serve_requests(&b, 20, 7));
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.requests(), y.requests());
            assert_eq!(x.patterns(), y.patterns());
        }
        assert_eq!(poisson_schedule(100, 1e3, 7), poisson_schedule(100, 1e3, 7));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        let g = small_genome();
        assert_ne!(illumina_reads(&g, 50, 7), illumina_reads(&g, 50, 8));
        assert_ne!(poisson_schedule(100, 1e3, 7), poisson_schedule(100, 1e3, 8));
        let (ra, rb) = (serve_requests(&g, 20, 7), serve_requests(&g, 20, 8));
        assert!(ra
            .iter()
            .zip(&rb)
            .any(|(x, y)| x.patterns() != y.patterns()));
    }

    #[test]
    fn generated_inputs_have_the_stated_shape() {
        let g = small_genome();
        assert!(illumina_reads(&g, 20, 3)
            .iter()
            .all(|r| r.len() == READ_LEN));
        for batch in serve_requests(&g, 30, 3) {
            assert_eq!(batch.len(), QUERIES_PER_REQUEST);
            assert!((0..batch.len()).all(|i| (8..28).contains(&batch.pattern(i).len())));
        }
        let schedule = poisson_schedule(20_000, 2_000.0, 3);
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
        let rate = schedule.len() as f64 / schedule.last().unwrap().as_secs_f64();
        assert!((1_900.0..2_100.0).contains(&rate), "drawn rate {rate}");
    }

    #[test]
    fn chunks_cover_every_pattern_in_order() {
        let g = small_genome();
        let reads = illumina_reads(&g, 10, 5);
        let batches = chunks(QueryRequest::Count, &reads, 4);
        assert_eq!(
            batches.iter().map(QueryBatch::len).collect::<Vec<_>>(),
            [4, 4, 2]
        );
        assert_eq!(batches[2].pattern(1), &reads[9][..]);
    }
}
