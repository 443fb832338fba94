//! Serving workloads: a trained model compiled, deployed and asked about
//! fresh inputs in a closed loop, over the wire or in process, and the
//! serve/wire/infer layer measurements every traced run reports.

use crate::data::{self, Mnist};
use crate::oracle;
use crate::stats::{self, median, per_call_us, Histogram, Round};
use crate::train::{self, Fit};
use crate::{Options, Report};
use quclassi::prelude::*;
use quclassi_infer::CompiledModel;
use quclassi_serve::json::Json;
use quclassi_serve::prelude::*;
use quclassi_serve::wire::write_frame;
use quclassi_serve::{FrameDecoder, TraceSpan, WirePrediction};
use quclassi_sim::executor::Executor;
use quclassi_sim::profile;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Registry name of the served model.
const MODEL: &str = "bench";
/// Requests per round over the wire; within the default trace-ring
/// capacity, so a round's spans are all still in the ring after it.
pub const WIRE_ROUND: usize = 500;
/// Requests per round in process.
const INPROCESS_ROUND: usize = 32;
/// Requests the in-process client keeps in flight.
const IN_FLIGHT: usize = 4;
/// Wire frames the traced run times the JSON and framing layers on.
const TIMED_FRAMES: usize = 32;

/// A running runtime with its model deployed, and optionally a one-shard
/// wire server with one connected client.
pub struct Stack {
    runtime: ServeRuntime,
    client: Client,
    wire: Option<(WireServer, WireClient)>,
}

/// Which client drives a loop.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    /// One `WireClient` connection, one request in flight.
    Wire,
    /// `Client::submit` in process, [`IN_FLIGHT`] requests in flight.
    InProcess,
}

impl Stack {
    /// Starts a runtime whose zero batch window drains whatever has
    /// accumulated, deploys `model`, and for [`Frontend::Wire`] starts the
    /// wire server and connects.
    pub fn start(model: CompiledModel, frontend: Frontend) -> Result<Stack, String> {
        let config = ServeConfig {
            batch_window: Duration::ZERO,
            ..ServeConfig::default()
        };
        let runtime = ServeRuntime::start(config, BatchExecutor::single_threaded(0))
            .map_err(|e| e.to_string())?;
        runtime.deploy(MODEL, model).map_err(|e| e.to_string())?;
        let client = runtime.client();
        let mut stack = Stack {
            runtime,
            client,
            wire: None,
        };
        if frontend == Frontend::Wire {
            stack.connect_wire()?;
        }
        Ok(stack)
    }

    /// Starts the wire server and connects one client.
    pub fn connect_wire(&mut self) -> Result<(), String> {
        let server =
            WireServer::start_with("127.0.0.1:0", self.client.clone(), WireConfig::default())
                .map_err(|e| e.to_string())?;
        let wire = WireClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        self.wire = Some((server, wire));
        Ok(())
    }

    /// Closes the connection and stops the server and the runtime.
    pub fn shutdown(self) {
        if let Some((server, wire)) = self.wire {
            drop(wire);
            server.shutdown();
        }
        self.runtime.shutdown();
    }
}

/// Reads one stage's nanoseconds from a span.
type SpanReader = fn(&TraceSpan) -> u64;

/// The trace-span stages the serve layer reports, as metric names and
/// nanosecond readers; the last is the part no stage accounts for.
const STAGES: [(&str, SpanReader); 7] = [
    ("serve.encode_us", |s| s.encode_ns),
    ("serve.queue_wait_us", |s| s.queue_wait_ns),
    ("serve.assemble_us", |s| s.assemble_ns),
    ("serve.compute_us", |s| s.compute_ns),
    ("serve.write_us", |s| s.write_ns),
    ("serve.total_us", |s| s.total_ns),
    ("serve.unattributed_us", |s| {
        s.total_ns.saturating_sub(s.stage_sum_ns())
    }),
];

/// What one closed loop observed.
#[derive(Default)]
pub struct Loop {
    pub attempted: u64,
    pub failed: u64,
    /// Completed predictions and wall time, round by round; input
    /// generation and checks excluded.
    pub rounds: Vec<Round>,
    /// Per-prediction latency as the caller saw it.
    pub latencies: Histogram,
    /// The runtime's spans of the loop's requests, stage by stage in
    /// [`STAGES`] order (traced runs).
    pub stages: [Histogram; STAGES.len()],
    /// Client round trip minus the span's total (traced wire runs).
    pub outside: Histogram,
    /// Features and responses of the last round's first wire frames.
    pub frames: Vec<(Vec<f64>, Json)>,
    /// Mean requests per evaluated micro-batch during the loop.
    pub batch_size: f64,
    /// Simulator amplitudes touched during the loop (profiling on).
    pub amplitudes: u64,
    pub errors: Vec<String>,
}

impl Loop {
    fn record_span(&mut self, span: &TraceSpan) {
        for (h, (_, ns)) in self.stages.iter_mut().zip(STAGES) {
            h.record(ns(span) as f64 / 1e3);
        }
    }

    fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// One request's outcome: the label, probabilities and fidelities.
type Answer = Result<(usize, Vec<f64>, Vec<f64>), String>;

/// Runs whole rounds of `round` requests through `frontend` until
/// `seconds` have passed (at least one round). Every input comes from
/// `inputs`; every answer is checked against `expected(x)`.
pub fn run_loop(
    stack: &mut Stack,
    frontend: Frontend,
    inputs: &mut dyn FnMut() -> Vec<f64>,
    expected: &dyn Fn(&[f64]) -> Vec<f64>,
    round: usize,
    seconds: f64,
    trace: bool,
) -> Loop {
    let mut out = Loop::default();
    let before = stack.client.metrics();
    let amplitudes_before = profile::snapshot().amplitudes_touched;
    let started = Instant::now();
    loop {
        let xs: Vec<Vec<f64>> = (0..round).map(|_| inputs()).collect();
        let (answers, secs) = match frontend {
            Frontend::Wire => wire_round(stack, &xs, trace, &mut out),
            Frontend::InProcess => inprocess_round(&stack.client, &xs, trace, &mut out),
        };
        out.attempted += round as u64;
        let mut completed = 0;
        for (x, (answer, us)) in xs.iter().zip(answers) {
            match answer {
                Ok((label, probabilities, fidelities)) => {
                    completed += 1;
                    out.latencies.record(us);
                    if let Err(e) =
                        oracle::check_response(&expected(x), label, &probabilities, &fidelities)
                    {
                        out.errors.push(e);
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(format!("request failed: {e}"));
                }
            }
        }
        out.rounds.push(Round {
            ops: completed,
            secs,
        });
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let after = stack.client.metrics();
    let hits: u64 = after.models.iter().map(|m| m.cache.hits).sum();
    if hits > 0 {
        out.errors.push(format!(
            "{hits} cache hits: the inputs were not all distinct"
        ));
    }
    out.amplitudes = profile::snapshot().amplitudes_touched - amplitudes_before;
    let batches = after.batches - before.batches;
    out.batch_size = (after.batched_requests - before.batched_requests) as f64 / batches as f64;
    out
}

/// One round over the wire: each answer with its latency, and the wall
/// time of the exchanges alone.
fn wire_round(
    stack: &mut Stack,
    xs: &[Vec<f64>],
    trace: bool,
    out: &mut Loop,
) -> (Vec<(Answer, f64)>, f64) {
    let (_, wire) = stack
        .wire
        .as_mut()
        .expect("wire loops run on a connected stack");
    let mut ids = Vec::with_capacity(xs.len());
    let mut responses = Vec::with_capacity(xs.len());
    let round = Instant::now();
    for x in xs {
        let sent = Instant::now();
        let reply = wire.send_predict(MODEL, x).and_then(|id| {
            let (echo, response) = wire.recv_response()?;
            Ok((id, echo, response))
        });
        let us = 1e6 * sent.elapsed().as_secs_f64();
        responses.push((reply, us));
    }
    let secs = round.elapsed().as_secs_f64();
    out.frames.clear();
    let answers = xs
        .iter()
        .zip(responses)
        .map(|(x, (reply, us))| {
            let answer = match reply {
                Ok((id, echo, response)) if echo == Some(id) => {
                    ids.push((id, us));
                    if out.frames.len() < TIMED_FRAMES {
                        out.frames.push((x.clone(), response.clone()));
                    }
                    WirePrediction::from_response(&response, MODEL)
                        .map(|p| (p.label, p.probabilities, p.fidelities))
                        .map_err(|e| e.to_string())
                }
                Ok((id, echo, _)) => Err(format!("request {id} answered with id {echo:?}")),
                Err(e) => Err(e.to_string()),
            };
            (answer, us)
        })
        .collect();
    if trace {
        // Spans carry the wire id verbatim; the ring holds the whole round.
        let rtt: HashMap<u64, f64> = ids.into_iter().collect();
        for span in stack.client.traces(xs.len()) {
            if let Some(us) = rtt.get(&span.trace_id) {
                out.outside.record(us - span.total_ns as f64 / 1e3);
                out.record_span(&span);
            }
        }
    }
    (answers, secs)
}

/// One round in process, [`IN_FLIGHT`] requests outstanding: each answer
/// with its latency, and the wall time of the round.
fn inprocess_round(
    client: &Client,
    xs: &[Vec<f64>],
    trace: bool,
    out: &mut Loop,
) -> (Vec<(Answer, f64)>, f64) {
    let mut answers: Vec<Option<(Answer, f64)>> = vec![None; xs.len()];
    let mut pending = VecDeque::with_capacity(IN_FLIGHT);
    let mut next = 0;
    let round = Instant::now();
    let submit = |next: &mut usize, pending: &mut VecDeque<_>, answers: &mut Vec<Option<_>>| {
        let i = *next;
        *next += 1;
        let sent = Instant::now();
        match client.submit(MODEL, &xs[i]) {
            Ok(p) => pending.push_back((i, sent, p)),
            Err(e) => answers[i] = Some((Err(e.to_string()), 0.0)),
        }
    };
    while next < xs.len() && pending.len() < IN_FLIGHT {
        submit(&mut next, &mut pending, &mut answers);
    }
    while let Some((i, sent, p)) = pending.pop_front() {
        let reply = p.wait();
        let us = 1e6 * sent.elapsed().as_secs_f64();
        answers[i] = Some((
            reply
                .map(|r| {
                    (
                        r.prediction.label,
                        r.prediction.probabilities,
                        r.prediction.fidelities,
                    )
                })
                .map_err(|e| e.to_string()),
            us,
        ));
        if next < xs.len() {
            submit(&mut next, &mut pending, &mut answers);
        }
    }
    let secs = round.elapsed().as_secs_f64();
    if trace {
        for span in client.traces(xs.len()) {
            out.record_span(&span);
        }
    }
    let answers = answers
        .into_iter()
        .map(|a| a.expect("every request answered"))
        .collect();
    (answers, secs)
}

/// Serve-layer metrics: p50 of each trace stage over `l`'s spans, the part
/// no stage accounts for, and the mean micro-batch size.
pub fn serve_layers(report: &mut Report, l: &Loop) {
    for (h, (name, _)) in l.stages.iter().zip(STAGES) {
        report.metric(name, h.quantile(0.5), "us");
    }
    report.metric("serve.batch_size", l.batch_size, "count");
}

/// Wire-layer metrics: what the client waited beyond the runtime's span,
/// and timings of the JSON and framing functions on `l`'s own frames.
pub fn wire_layers(report: &mut Report, l: &Loop) {
    report.metric("wire.outside_runtime_us", l.outside.quantile(0.5), "us");
    let mut parse = Vec::new();
    let mut serialize = Vec::new();
    let mut decode = Vec::new();
    for (id, (x, response)) in l.frames.iter().enumerate() {
        // The request exactly as `WireClient::send_predict` writes it.
        let request = Json::obj(vec![
            ("op", Json::str("predict")),
            ("model", Json::str(MODEL)),
            ("features", Json::nums(x)),
            ("id", Json::Num(id as f64 + 1.0)),
        ])
        .to_string();
        let mut frame = Vec::new();
        write_frame(&mut frame, request.as_bytes()).expect("writing to a Vec cannot fail");
        parse.push(per_call_us(64, &mut || {
            black_box(Json::parse(black_box(&request)).ok());
        }));
        serialize.push(per_call_us(64, &mut || {
            black_box(black_box(response).to_string());
        }));
        decode.push(per_call_us(64, &mut || {
            let mut decoder = FrameDecoder::new();
            decoder.extend(black_box(&frame)).ok();
            black_box(decoder.next_frame());
        }));
    }
    report.metric("wire.json_parse_us", median(&parse), "us");
    report.metric("wire.json_serialize_us", median(&serialize), "us");
    report.metric("wire.frame_decode_us", median(&decode), "us");
}

/// Infer-layer metrics: the deployed artifact's cache hits, then its
/// `predict_many_from_angles` at the observed batch size (per request),
/// timed on the artifact itself so that its cache is in the state the loop
/// left it in.
pub fn infer_layers(
    report: &mut Report,
    stack: &Stack,
    batch_size: f64,
    inputs: &mut dyn FnMut() -> Vec<f64>,
) {
    let hits: u64 = stack
        .client
        .metrics()
        .models
        .iter()
        .map(|m| m.cache.hits)
        .sum();
    report.metric("infer.cache_hits", hits as f64, "count");
    let entry = stack
        .runtime
        .registry()
        .get(MODEL)
        .expect("the model is deployed");
    let compiled = entry.model();
    let batch = (batch_size.round() as usize).max(1);
    let executor = BatchExecutor::single_threaded(0);
    let per_request: Vec<f64> = (0..8)
        .map(|_| {
            let angles: Vec<Vec<f64>> = (0..batch)
                .map(|_| {
                    compiled
                        .encoder()
                        .encoding_angles(&inputs())
                        .expect("inputs are in [0, 1]")
                })
                .collect();
            let started = Instant::now();
            black_box(compiled.predict_many_from_angles(angles, &executor, 0).ok());
            1e6 * started.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    report.metric("infer.predict_many_us", median(&per_request), "us");
}

/// `wire-iris-analytic` (`wire = true`) and `serve-mnist17-swap`.
pub fn run(wire: bool, opts: &Options, report: &mut Report) {
    let trainer = train::trainer();
    let mut setup_secs = Vec::new();
    let mut data_secs = Vec::new();
    let mut fits: Vec<Fit> = Vec::new();
    let mut built: Option<(Stack, QuClassiModel, data::Split, Option<Mnist>)> = None;
    for _ in 0..opts.setup_repeats() {
        if let Some((stack, ..)) = built.take() {
            Stack::shutdown(stack);
        }
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x7365_7475);
        let (split, mnist, config) = if wire {
            (data::iris(opts.seed), None, QuClassiConfig::qc_s(4, 3))
        } else {
            let mnist = Mnist::generate(opts.seed, train::TRAIN_PER_DIGIT, train::TEST_PER_DIGIT);
            (
                mnist.split.clone(),
                Some(mnist),
                QuClassiConfig::qc_s(data::PCA_DIMS, 2),
            )
        };
        data_secs.push(started.elapsed().as_secs_f64());
        let (model, history, fit) = train::fit_fresh(&config, &trainer, &split, &mut rng);
        match history {
            Ok(history) => report.check(train::check_qcs_fit(&model, &history, &split)),
            Err(e) => report.error(format!("set-up fit failed: {e}")),
        }
        fits.push(fit);
        let estimator = if wire {
            FidelityEstimator::analytic()
        } else {
            FidelityEstimator::swap_test(Executor::ideal())
        };
        let compiled = CompiledModel::compile(&model, estimator).expect("a trained model compiles");
        let frontend = if wire {
            Frontend::Wire
        } else {
            Frontend::InProcess
        };
        let stack = match Stack::start(compiled, frontend) {
            Ok(stack) => stack,
            Err(e) => {
                report.error(format!("serving stack did not start: {e}"));
                return;
            }
        };
        setup_secs.push(started.elapsed().as_secs_f64());
        built = Some((stack, model, split, mnist));
    }
    let (mut stack, model, split, mnist) = built.expect("at least one set-up");

    let classes = train::class_params(&model);
    let expected = |x: &[f64]| oracle::qcs_fidelities(&classes, x);
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x7265_7173);
    let mut inputs = || match &mnist {
        Some(mnist) => mnist.fresh(&mut rng),
        None => data::jittered(&split.train_x, &mut rng),
    };
    let (frontend, round) = if wire {
        (Frontend::Wire, WIRE_ROUND)
    } else {
        (Frontend::InProcess, INPROCESS_ROUND)
    };
    let main = run_loop(
        &mut stack,
        frontend,
        &mut inputs,
        &expected,
        round,
        opts.seconds,
        opts.trace,
    );
    report.attempted += main.attempted;
    report.failed += main.failed;
    report.check_all(&main.errors);

    if !opts.trace {
        report.end_to_end(&setup_secs, &main.rounds, &main.latencies);
    } else {
        eprintln!(
            "traced loop: throughput_per_s {} p50_us {} p90_us {}",
            stats::throughput(&main.rounds),
            main.latencies.quantile(0.5),
            main.latencies.quantile(0.9)
        );
        report.metric("datasets.setup_ms", 1e3 * median(&data_secs), "ms");
        train::trainer_layers(report, &trainer, &model, &split, &fits);
        report.metric(
            "sim.amplitudes_touched",
            main.amplitudes as f64 / main.completed() as f64,
            "count",
        );
        serve_layers(report, &main);
        if wire {
            wire_layers(report, &main);
        } else {
            // The in-process loop has no wire: probe it over one connection.
            match stack.connect_wire() {
                Ok(()) => {
                    let probe = run_loop(
                        &mut stack,
                        Frontend::Wire,
                        &mut inputs,
                        &expected,
                        round,
                        0.0,
                        true,
                    );
                    wire_layers(report, &probe);
                    report.check_all(&probe.errors);
                }
                Err(e) => report.error(format!("wire probe did not start: {e}")),
            }
        }
        infer_layers(report, &stack, main.batch_size, &mut inputs);
    }
    stack.shutdown();
}
