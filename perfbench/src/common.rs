//! Shared plumbing: seeded input generation, outcome tallies, metric maps,
//! order statistics, the host-speed gauge and process probes.

use maddpipe_core::config::SUBVECTOR_LEN;
use maddpipe_runtime::{BatchResult, Token, TokenBatch};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Length of one closed-loop or one open-loop segment. A run alternates
/// them, so that both phases sample the whole run: on a shared host the
/// CPU speed changes over seconds.
pub const SEGMENT: Duration = Duration::from_secs(1);
/// Completions in the first part of a closed segment, while the loop
/// fills up, are not counted.
pub const WARM_UP: Duration = Duration::from_millis(100);

/// Closed/open segment pairs in a run of `seconds`; at least two, so a
/// traced run has both a traced and an untraced pair.
pub fn pairs(seconds: f64) -> usize {
    ((seconds / (2.0 * SEGMENT.as_secs_f64())).floor() as usize).max(2)
}

/// Work per second in a closed segment of `duration`, from
/// `(completion offset, units)` records, after the warm-up.
pub fn closed_rate(done: &[(Duration, u64)], duration: Duration) -> f64 {
    let units: u64 = done
        .iter()
        .filter(|(at, _)| *at >= WARM_UP && *at <= duration)
        .map(|(_, u)| u)
        .sum();
    units as f64 / (duration - WARM_UP).as_secs_f64()
}

/// Rounds of the reference computation in one reading of the host speed.
const REFERENCE_ROUNDS: usize = 1_000_000;
/// CPU seconds one reading takes on an unloaded host (a 2-vCPU x86-64 VM).
const REFERENCE_S: f64 = 2.0e-3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has received so far, in seconds. Time the
/// thread waited for a CPU, or a hypervisor stole, is not in it.
fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime only writes one timespec through a pointer to
    // a live local of the C layout.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A fixed computation owned by the benchmark, independent of the code
/// under test: read-modify-writes at random places of a 512-byte table,
/// so it runs from L1 and its speed is the core's. Returns how many times
/// slower than on the unloaded host it ran, in the calling thread's CPU
/// time.
fn reference() -> f64 {
    let t0 = thread_cpu_s();
    let mut table = [0u64; 64];
    let mut rng = SplitMix::new(black_box(7));
    for _ in 0..REFERENCE_ROUNDS {
        let x = rng.next_u64();
        let i = (x & 63) as usize;
        let j = ((x >> 32) & 63) as usize;
        table[i] = table[i].wrapping_add(table[j] ^ x).rotate_left(7);
    }
    black_box(&table);
    (thread_cpu_s() - t0) / REFERENCE_S
}

/// How many times slower than the unloaded host the calling thread's CPU
/// runs right now: one run of the reference.
///
/// A virtual CPU of a shared machine runs up to half again slower for
/// seconds at a time when its neighbours are busy, which would otherwise
/// swamp any change to the code under test. Set-up builds and simulated
/// batches are therefore timed right after a reading on the same thread
/// and divided by it. Serving rates and latencies are not scaled: their
/// threads hand work across both CPUs, and no reading on one thread
/// followed their drift.
pub fn slowdown() -> f64 {
    reference()
}

/// splitmix64: a tiny, fully specified generator, so the inputs depend on
/// the seed alone and not on any library's sampling code.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A seed for one named input stream of a run, derived from the run seed.
pub fn subseed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BBB5)).next_u64()
}

/// Seed of the flagship program. It is fixed, so that every seed runs the
/// same program and the seed changes only the tokens it is fed.
pub const PROGRAM_SEED: u64 = 1;

/// `count` tokens of `ns` INT8 subvectors, values in `-127..=127` (the
/// range a float encode with unit scale reproduces exactly).
pub fn tokens(rng: &mut SplitMix, ns: usize, count: usize) -> Vec<Token> {
    (0..count)
        .map(|_| {
            (0..ns)
                .map(|_| {
                    let bytes = rng.next_u64().to_le_bytes();
                    let mut sub = [0i8; SUBVECTOR_LEN];
                    for (v, b) in sub.iter_mut().zip(bytes.iter().chain(bytes.iter())) {
                        *v = (*b as i8).max(-127);
                    }
                    sub
                })
                .collect()
        })
        .collect()
}

/// The scalar-spec outputs of every token of `batch`, flattened token-major.
pub fn reference_outputs(
    program: &maddpipe_core::macro_rtl::MacroProgram,
    batch: &TokenBatch,
) -> Vec<i16> {
    batch
        .tokens()
        .iter()
        .flat_map(|t| program.reference_output(t))
        .collect()
}

/// Whether a backend's result matches flattened expected outputs exactly.
pub fn matches(result: &BatchResult, expected: &[i16]) -> bool {
    let mut flat = result.tokens.iter().flat_map(|t| t.outputs.iter().copied());
    expected.iter().all(|&e| flat.next() == Some(e)) && flat.next().is_none()
}

/// Simulated or modelled hardware cost of a token stream, summed over
/// backend results that report latency and energy.
#[derive(Debug, Default)]
pub struct HwCost {
    tokens: u64,
    energy_j: f64,
    makespan_s: f64,
    latencies_s: Vec<f64>,
}

impl HwCost {
    pub fn absorb(&mut self, result: &BatchResult) {
        self.tokens += result.tokens.len() as u64;
        self.energy_j += result.energy.map_or(0.0, |e| e.value());
        self.makespan_s += result.makespan.map_or(0.0, |m| m.value());
        self.latencies_s.extend(
            result
                .tokens
                .iter()
                .filter_map(|t| t.latency.map(|l| l.value())),
        );
    }

    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// `sim_pj_per_token`, `sim_ns_per_token` (makespan per token) and
    /// `sim_latency_p50_ns` (median per-token latency).
    pub fn report(&self, m: &mut Metrics) {
        let n = self.tokens.max(1) as f64;
        m.set("sim_pj_per_token", self.energy_j / n * 1e12, "pJ");
        m.set("sim_ns_per_token", self.makespan_s / n * 1e9, "ns");
        m.set("sim_latency_p50_ns", median(&self.latencies_s) * 1e9, "ns");
    }
}

/// Requests attempted and how many failed: errors, refusals and wrong
/// outputs all count as failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn wrong(&mut self) {
        self.fail();
        self.wrong += 1;
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// Named metrics with units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// Adds every metric of `other` this map does not have yet.
    pub fn fill_from(&mut self, other: Metrics) {
        for (name, v) in other.0 {
            self.0.entry(name).or_insert(v);
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
}

/// The `p`-th percentile (0–100) of `values`, linearly interpolated;
/// `NaN` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A `/proc/self/status` field in its first unit (kB for memory fields).
fn status_field(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// The process's peak resident set so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") / 1024.0
}

/// Live threads of this process right now.
pub fn threads() -> f64 {
    status_field("Threads:")
}

/// Times `reps` constructions of a program into `times`, each divided by
/// a [`slowdown`] reading taken just before it, and returns the last one
/// built. Each earlier instance is dropped before the next build.
pub fn timed_builds<T>(times: &mut Vec<f64>, reps: usize, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let slow = slowdown();
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64() / slow);
        last = Some(built);
    }
    last.expect("at least one build")
}
