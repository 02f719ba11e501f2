//! `cnn_stream`: `Network::demo(42)` lowered by `to_pipeline_spec` onto a
//! `PipelineGraph` — functional conv stages with 2 replicas each, host
//! stages for ReLU, pooling, affine and linear layers.
//!
//! Closed-loop segments (one thread, 16 images in flight) measure
//! throughput; open-loop segments at a fixed rate measure image latency
//! from each due time.

use crate::common::{
    closed_rate, median, micros, pairs, percentile, subseed, threads, timed_builds, HwCost,
    Metrics, Outcome, Tally, SEGMENT,
};
use crate::trace::Tracer;
use maddpipe_nn::network::Network;
use maddpipe_runtime::prelude::*;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Macro tokens one image costs: 8×8 conv1 positions plus 4×4 conv2
/// positions.
pub const TOKENS_PER_IMAGE: u64 = 80;
/// The demo network's layers, which are also its stage names.
pub const STAGES: [&str; 8] = [
    "0-conv", "1-relu", "2-pool", "3-conv", "4-relu", "5-pool", "6-affine", "7-linear",
];
const NETWORK_SEED: u64 = 42;
/// Distinct images generated per run; both phases cycle through them.
const UNIQUE_IMAGES: usize = 1024;
const REPLICAS: usize = 2;
const IN_FLIGHT: usize = 16;
/// Open-loop arrivals per second: under a tenth of the graph's capacity,
/// and enough for ten samples beyond the p99 of each 1 s segment.
const OPEN_RATE: f64 = 1000.0;
/// Per-hop queue credit: a refusal at the open-loop rate would need a
/// stall of over 250 ms.
const CAPACITY: usize = 256;
/// Images whose modelled hardware cost is reported.
const MODELLED_IMAGES: usize = 64;
/// Graph builds timed at the start of a run and after each segment pair.
const SETUP_REPS: usize = 3;

struct Inputs {
    net: Network,
    images: Vec<Vec<f32>>,
    expected: Vec<Vec<f32>>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let net = Network::demo(NETWORK_SEED);
        let images: Vec<Vec<f32>> = (0..UNIQUE_IMAGES as u64)
            .map(|i| Network::demo_image(subseed(seed, 100 + i), net.input_len()))
            .collect();
        let expected = images
            .iter()
            .map(|img| net.forward(img).expect("demo images fit the demo network"))
            .collect();
        Inputs {
            net,
            images,
            expected,
        }
    }
}

fn same(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn build_graph(net: &Network) -> PipelineGraph {
    let spec = net
        .to_pipeline_spec(
            BackendKind::Functional { workers: 1 },
            &StagePolicy::default().with_replicas(REPLICAS),
        )
        .expect("the demo network lowers");
    PipelineGraph::build(spec, PipelinePolicy::default().with_capacity(CAPACITY))
        .expect("the demo graph deploys")
}

struct Closed {
    done: Vec<(Duration, u64)>,
    tally: Tally,
    threads: f64,
}

fn closed_phase(
    graph: &PipelineGraph,
    inputs: &Inputs,
    duration: Duration,
    tracer: Option<&Arc<Tracer>>,
) -> Closed {
    let start = Instant::now();
    let end = start + duration;
    std::thread::scope(|s| {
        let submitter = s.spawn(move || {
            let mut spans = tracer.map(Tracer::buffer);
            let mut done = Vec::new();
            let mut tally = Tally::default();
            let mut inflight = VecDeque::with_capacity(IN_FLIGHT);
            let mut next = 0u64;
            loop {
                while inflight.len() < IN_FLIGHT && Instant::now() < end {
                    let idx = next as usize % inputs.images.len();
                    let image = inputs.images[idx].clone();
                    let t0 = Instant::now();
                    let ticket = graph.submit(image);
                    let t1 = Instant::now();
                    let root = spans.as_ref().map(|s| s.reserve());
                    if let Some(s) = &mut spans {
                        s.record("pipeline.submit", t0, t1, root, next);
                    }
                    match ticket {
                        Ok(ticket) => inflight.push_back((idx, next, root, t0, ticket)),
                        Err(_) => {
                            tally.fail();
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                    next += 1;
                }
                let Some((idx, id, root, t0, ticket)) = inflight.pop_front() else {
                    break;
                };
                let w0 = Instant::now();
                let reply = ticket.wait();
                let t1 = Instant::now();
                if let Some(s) = &mut spans {
                    s.record("pipeline.wait", w0, t1, root, id);
                    s.record_as(root.expect("reserved"), "image", t0, t1, id);
                }
                match reply {
                    Ok(r) if same(&r.outputs, &inputs.expected[idx]) => {
                        tally.ok();
                        done.push((t1 - start, 1));
                    }
                    Ok(_) => tally.wrong(),
                    Err(_) => tally.fail(),
                }
            }
            (done, tally)
        });
        std::thread::sleep(duration / 2);
        let threads = threads();
        let (done, tally) = submitter.join().expect("submitter thread");
        Closed {
            done,
            tally,
            threads,
        }
    })
}

#[derive(Default)]
struct Open {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    tally: Tally,
}

impl Open {
    fn absorb(&mut self, other: Open) {
        self.latency_us.extend(other.latency_us);
        self.late_us.extend(other.late_us);
        self.tally.add(other.tally);
    }
}

/// Open loop: one generator submits on a fixed schedule; this thread
/// collects replies in order and times each from its due time.
fn open_phase(
    graph: &PipelineGraph,
    inputs: &Inputs,
    duration: Duration,
    tracer: Option<&Arc<Tracer>>,
) -> Open {
    let n = (duration.as_secs_f64() * OPEN_RATE) as usize;
    let start = Instant::now() + Duration::from_millis(1);
    let mut open = Open::default();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let generator = s.spawn(move || {
            let mut late = Vec::with_capacity(n);
            for i in 0..n {
                let idx = i % inputs.images.len();
                let image = inputs.images[idx].clone();
                let due = start + Duration::from_secs_f64(i as f64 / OPEN_RATE);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let t0 = Instant::now();
                let ticket = graph.submit(image);
                let t1 = Instant::now();
                late.push(micros(t0 - due));
                if tx.send((i as u64, idx, due, t0, t1, ticket)).is_err() {
                    break;
                }
            }
            late
        });
        let mut spans = tracer.map(Tracer::buffer);
        for (id, idx, due, t0, t1, ticket) in rx {
            let root = spans.as_ref().map(|s| s.reserve());
            let Ok(ticket) = ticket else {
                open.tally.fail();
                continue;
            };
            let reply = ticket.wait();
            let done = Instant::now();
            if let Some(s) = &mut spans {
                s.record("pipeline.submit", t0, t1, root, id);
                s.record("pipeline.wait", t1, done, root, id);
                s.record_as(root.expect("reserved"), "image", due, done, id);
            }
            match reply {
                Ok(r) if same(&r.outputs, &inputs.expected[idx]) => {
                    open.tally.ok();
                    open.latency_us.push(micros(done - due));
                }
                Ok(_) => open.tally.wrong(),
                Err(_) => open.tally.fail(),
            }
        }
        open.late_us = generator.join().expect("generator thread");
    });
    open
}

/// Forwards to `inner` and adds every result to a shared [`HwCost`].
struct Recorder {
    inner: Box<dyn MacroBackend>,
    cost: Arc<Mutex<HwCost>>,
}

impl MacroBackend for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        let result = self.inner.run_batch(batch)?;
        self.cost.lock().expect("cost lock").absorb(&result);
        Ok(result)
    }
}

/// Modelled hardware cost of the first images: the network lowered onto
/// analytic-model conv stages, each wrapped in a [`Recorder`], run through
/// the spec's synchronous reference path.
fn modelled(inputs: &Inputs, tally: &mut Tally) -> HwCost {
    let cost = Arc::new(Mutex::new(HwCost::default()));
    let spec = inputs
        .net
        .to_pipeline_spec(BackendKind::Analytic, &StagePolicy::default())
        .expect("the demo network lowers");
    let mut recorded = PipelineSpec::new();
    for stage in spec.stages() {
        recorded.push(match stage {
            StageSpec::Macro(m) => StageSpec::Macro(m.clone().map_recipe(|recipe| {
                let cost = Arc::clone(&cost);
                Arc::new(move || {
                    Ok(Box::new(Recorder {
                        inner: recipe()?,
                        cost: Arc::clone(&cost),
                    }) as Box<dyn MacroBackend>)
                })
            })),
            host => host.clone(),
        });
    }
    for (img, expected) in inputs
        .images
        .iter()
        .zip(&inputs.expected)
        .take(MODELLED_IMAGES)
    {
        let trace = recorded.reference_trace(img).expect("the model runs");
        if trace.last().is_some_and(|logits| same(logits, expected)) {
            tally.ok();
        } else {
            tally.wrong();
        }
    }
    let cost = std::mem::take(&mut *cost.lock().expect("cost lock"));
    assert_eq!(
        cost.tokens(),
        TOKENS_PER_IMAGE * MODELLED_IMAGES as u64,
        "tokens per demo image"
    );
    cost
}

/// One run of `seconds`, alternating 1 s closed-loop and open-loop
/// segments; the rate and the latency percentiles are medians over
/// segments. Set-up is timed at the start and again after every segment
/// pair. A traced run records spans in odd pairs only, so even pairs give
/// its untraced figures.
pub fn run(seed: u64, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let inputs = Inputs::generate(seed);
    let build = || build_graph(&inputs.net);
    let mut setup = Vec::new();
    let graph = timed_builds(&mut setup, SETUP_REPS, build);
    let pairs = pairs(seconds);

    let mut tally = Tally::default();
    // One figure per segment: closed-loop token rates of untraced and
    // traced pairs, and open-loop latency percentiles.
    let (mut rates, mut traced_rates) = (Vec::new(), Vec::new());
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let mut threads = f64::NAN;
    let mut busy = vec![Duration::ZERO; STAGES.len()];
    let mut open = Open::default();
    for i in 0..pairs {
        let traced = tracer.is_some() && i % 2 == 1;
        if let Some(t) = tracer {
            t.set_enabled(traced);
        }
        let stats0 = graph.stats();
        let closed = closed_phase(&graph, &inputs, SEGMENT, tracer);
        let stats1 = graph.stats();
        for ((b, p0), p1) in busy
            .iter_mut()
            .zip(stats0.stage_profiles())
            .zip(stats1.stage_profiles())
        {
            *b += p1.busy().saturating_sub(p0.busy());
        }
        let rate = closed_rate(&closed.done, SEGMENT) * TOKENS_PER_IMAGE as f64;
        if traced {
            traced_rates.push(rate);
        } else {
            rates.push(rate);
        }
        tally.add(closed.tally);
        if threads.is_nan() {
            threads = closed.threads;
        }
        let segment = open_phase(&graph, &inputs, SEGMENT, tracer);
        if !traced {
            p50.push(percentile(&segment.latency_us, 50.0));
            p99.push(percentile(&segment.latency_us, 99.0));
        }
        open.absorb(segment);
        drop(timed_builds(&mut setup, SETUP_REPS, build));
    }
    if let Some(t) = tracer {
        t.set_enabled(true);
    }
    let stats = graph.shutdown();
    tally.add(open.tally);

    let mut m = Metrics::default();
    m.set("setup_s", median(&setup), "s");
    m.set("tokens_per_s", median(&rates), "1/s");
    m.set("request_p50_us", median(&p50), "us");
    m.set("request_p99_us", median(&p99), "us");
    modelled(&inputs, &mut tally).report(&mut m);
    if tracer.is_some() {
        let on = median(&traced_rates);
        m.set("trace.tokens_per_s", on, "1/s");
        m.set("trace.overhead_share", 1.0 - on / median(&rates), "share");
        let closed_s = SEGMENT.as_secs_f64() * pairs as f64;
        for ((name, profile), busy) in STAGES.iter().zip(stats.stage_profiles()).zip(busy) {
            assert_eq!(profile.name(), *name, "stage order of the demo network");
            let us = |d: Option<Duration>| d.map_or(f64::NAN, micros);
            m.set(
                format!("pipeline.{name}.occupancy"),
                busy.as_secs_f64() / closed_s,
                "share",
            );
            m.set(
                format!("pipeline.{name}.residence_us_p50"),
                us(profile.p50_residence()),
                "us",
            );
            m.set(
                format!("pipeline.{name}.residence_us_p99"),
                us(profile.p99_residence()),
                "us",
            );
            m.set(
                format!("pipeline.{name}.queue_high_water"),
                profile.queue_high_water() as f64,
                "count",
            );
        }
        m.set("loadgen.late_p99_us", percentile(&open.late_us, 99.0), "us");
        m.set("process.threads", threads, "count");
    }
    Outcome { tally, metrics: m }
}
