//! `serve_open`: the `exp_serving` three-die fleet (small ideal-crossbar
//! dies, 6 passes, all healthy) behind the HTTP front door, loaded by
//! an open-loop generator: each request is a seeded digit sent on a
//! fixed-interval schedule, first at the nominal rate, then up a ladder
//! of rates. The generator uses at most `nproc` threads, hence at most
//! `nproc` connections in flight.

use crate::common::{
    batch_of, checkpoint_probe, cim_probe, digits, fold, pass_probe, recoveries, repeated_setup,
    set_flight, set_host, set_ops_per_image, set_pass_share, set_recoveries, set_self_times,
    with_program_telemetry, xbar_layers, CallCounts, Ctx,
};
use crate::ledger::Ledger;
use crate::loadgen::{confirmed, drive, max_passing, Rung, Shot};
use crate::spans::Tracer;

use neuspin_bayes::{ArchConfig, Method};
use neuspin_bench::Setup;
use neuspin_cim::{CrossbarConfig, OpCounter};
use neuspin_core::json::{self, Json};
use neuspin_core::serve::client;
use neuspin_core::{
    serve, telemetry, DieFleet, HardwareConfig, HardwareModel, HealthConfig, RequestTrace,
    ServeConfig, ServerHandle, Supervisor, SupervisorConfig,
};
use neuspin_device::AgingConfig;
use neuspin_nn::{Dataset, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const DIES: usize = 3;
const PASSES: usize = 6;
const MASTER_SEED: u64 = 0x5E84_0001;
/// Fleet builds per run (train, compile, commission, start the
/// server); `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The `max_rps` ladder of arrival rates, ascending, a factor of two
/// apart; the scan stops at the first rung that fails (twice, see
/// [`confirmed`]). Every rung sends
/// the same number of requests, so each judges its p99 on the same
/// sample count. The first rung is the nominal rate the latency,
/// accuracy and energy metrics are read at.
const LADDER: [f64; 3] = [125.0, 250.0, 500.0];
const NOMINAL_RPS: f64 = LADDER[0];
/// Seeded digits the schedule cycles through.
const INPUT_POOL: usize = 512;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

fn arch() -> ArchConfig {
    ArchConfig {
        c1: 4,
        c2: 8,
        hidden: 32,
        classes: 10,
        side: 16,
        ..ArchConfig::default()
    }
}

/// One commissioned die compiled from the shared trained network: ideal
/// crossbar plus drift aging, independent compile seed, abstention at
/// high coverage and wide monitor slack (as in `exp_serving`).
fn die(model: &mut Sequential, calib: &Dataset, seed: u64) -> Supervisor {
    let config = HardwareConfig {
        crossbar: CrossbarConfig::ideal(),
        passes: PASSES,
        ..HardwareConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hw = HardwareModel::compile(model, Method::SpinDrop, &arch(), &config, &mut rng);
    hw.enable_aging(&AgingConfig {
        seed: seed ^ 0xA9,
        drift_rate: 0.002,
        ..AgingConfig::default()
    });
    let health = HealthConfig {
        entropy_slack: 4.0,
        margin_slack: 4.0,
        ..HealthConfig::default()
    };
    let mut sup = Supervisor::new(
        hw,
        SupervisorConfig {
            seed,
            coverage: 0.98,
            health,
            ..SupervisorConfig::default()
        },
    );
    let (monitor, _) = batch_of(calib, 0, 8);
    sup.commission(calib.inputs.clone(), &monitor);
    sup
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        input_shape: vec![1, arch().side, arch().side],
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        queue_capacity: 256,
        conn_capacity: 256,
        http_workers: 4,
        request_timeout: Duration::from_secs(20),
        seed: MASTER_SEED,
        ..ServeConfig::default()
    }
}

/// Trains the network, compiles and commissions three dies of it, and
/// starts the server.
fn build_fleet() -> ServerHandle {
    let setup = Setup {
        arch: arch(),
        passes: PASSES,
        epochs: 10,
        train_images: 2000,
        ..Setup::quick()
    };
    let (train, calib, _test) = setup.datasets();
    let mut model = setup.train(Method::SpinDrop, &train);
    let dies = (0..DIES as u64)
        .map(|i| die(&mut model, &calib, MASTER_SEED + i))
        .collect();
    serve(DieFleet::new(dies), serve_config()).expect("bind the serving socket")
}

/// A request body and the label of its digit.
struct Input {
    body: String,
    label: usize,
}

fn inputs(data: &Dataset) -> Vec<Input> {
    let per = arch().side * arch().side;
    data.inputs
        .as_slice()
        .chunks(per)
        .zip(&data.labels)
        .map(|(px, &label)| {
            let elems: Vec<String> = px.iter().map(|x| format!("{x}")).collect();
            Input {
                body: format!("{{\"input\": [{}]}}", elems.join(", ")),
                label,
            }
        })
        .collect()
}

/// What a response said, once checked.
#[derive(Debug, Clone, Copy)]
struct Answer {
    correct: bool,
    batch: u64,
}

/// Checks one response: a 200 whose body parses with finite probs that
/// sum to 1, and an `X-NeuSpin-Trace` header naming the body's die.
fn check(resp: &client::Response, label: usize) -> Result<Answer, String> {
    if resp.status != 200 {
        return Err(format!("status {}", resp.status));
    }
    let body = json::parse(&resp.text()).map_err(|e| format!("body does not parse: {e:?}"))?;
    let probs: Vec<f64> = body
        .get("probs")
        .and_then(Json::as_arr)
        .ok_or("no probs")?
        .iter()
        .map(|p| {
            p.as_f64()
                .filter(|v| v.is_finite())
                .ok_or("non-numeric prob")
        })
        .collect::<Result<_, _>>()?;
    let sum: f64 = probs.iter().sum();
    if probs.len() != arch().classes || (sum - 1.0).abs() > 1e-3 {
        return Err(format!("{} probs summing to {sum}", probs.len()));
    }
    let die = body.get("die").and_then(Json::as_f64).ok_or("no die")?;
    let class = body.get("class").and_then(Json::as_f64).ok_or("no class")?;
    let trace = resp
        .header("x-neuspin-trace")
        .and_then(RequestTrace::parse_header)
        .ok_or("missing or malformed X-NeuSpin-Trace")?;
    if trace.die as f64 != die {
        return Err(format!(
            "trace names die {} but the body die {die}",
            trace.die
        ));
    }
    Ok(Answer {
        correct: class as usize == label,
        batch: trace.batch,
    })
}

/// One rung's outcome: its summary, the shots, and the checked answers.
struct RungRun {
    rung: Rung,
    shots: Vec<Shot>,
    answers: Vec<Answer>,
}

/// Requests per rung: the whole ladder fits in `seconds`.
fn rung_requests(seconds: f64) -> usize {
    let per_request_s: f64 = LADDER.iter().map(|r| 1.0 / r).sum();
    ((seconds / per_request_s).round() as usize).max(1)
}

/// Sends `n` checked requests at `rate` per second.
fn run_rung(
    addr: SocketAddr,
    inputs: &[Input],
    rate: f64,
    n: usize,
    ctx: &Ctx,
    ledger: &mut Ledger,
) -> RungRun {
    let interval = Duration::from_secs_f64(1.0 / rate);
    // A seed-derived phase within the first interval, then fixed spacing.
    let phase = (fold(ctx.seed, rate.to_bits()) % 1000) as f64 / 1000.0;
    let start = Instant::now() + Duration::from_millis(20) + interval.mul_f64(phase);
    let results = drive(start, interval, n, ctx.host.cores, |k| {
        let input = &inputs[k % inputs.len()];
        client::request(addr, "POST", "/predict", Some(&input.body), CLIENT_TIMEOUT)
            .map_err(|e| format!("transport: {e}"))
            .and_then(|resp| check(&resp, input.label))
    });
    let mut shots = Vec::with_capacity(n);
    let mut ok = Vec::with_capacity(n);
    let mut answers = Vec::with_capacity(n);
    for (k, (shot, res)) in results.into_iter().enumerate() {
        shots.push(shot);
        ok.push(res.is_ok());
        match res {
            Ok(a) => answers.push(a),
            Err(e) => ledger.check(false, || format!("serve_open {rate} rps request {k}: {e}")),
        }
    }
    ledger.attempted += answers.len() as u64;
    RungRun {
        rung: Rung::from_shots(rate, &shots, &ok),
        shots,
        answers,
    }
}

/// Per-die model counters, summed over the fleet.
#[derive(Debug, Default, Clone, Copy)]
struct FleetCounters {
    energy_j: f64,
    ops: OpCounter,
    syncs: u64,
    rebuilds: u64,
    packed: u64,
}

fn fleet_counters(fleet: &DieFleet) -> FleetCounters {
    let mut c = FleetCounters::default();
    for d in 0..fleet.len() {
        fleet.with_die(d, |s| {
            c.energy_j += s.model().energy().0;
            c.ops.merge(&s.model().counter());
            c.syncs += s.replicas().syncs();
            c.rebuilds += s.model().plan_rebuilds();
            c.packed += s.model().packed_call_count();
        });
    }
    c
}

fn distinct_batches(answers: &[Answer]) -> usize {
    answers
        .iter()
        .map(|a| a.batch)
        .collect::<BTreeSet<_>>()
        .len()
}

pub fn run(ctx: &Ctx, ledger: &mut Ledger) {
    let (setup_s, mut handle) = repeated_setup(SETUP_REPS, build_fleet);
    ledger.set("setup_s", setup_s);
    ledger.set("setup.reps", SETUP_REPS as f64);
    let addr = handle.addr();
    let data = digits(INPUT_POOL, ctx.seed, 0x5E4E);
    let inputs = inputs(&data);
    let stats0 = handle.stats();

    if ctx.traced {
        traced(ctx, ledger, &handle, &inputs, &data);
    } else {
        let n = rung_requests(ctx.seconds);
        let before = fleet_counters(handle.fleet());
        let nominal = run_rung(addr, &inputs, NOMINAL_RPS, n, ctx, ledger);
        let after = fleet_counters(handle.fleet());
        let answered = nominal.answers.len().max(1) as f64;
        ledger.set("p50_ms", nominal.rung.latency.p50);
        ledger.set("images_per_s", nominal.rung.achieved_rps);
        ledger.set(
            "energy_uj_per_image",
            (after.energy_j - before.energy_j) * 1e6 / answered,
        );
        ledger.set(
            "accuracy",
            nominal.answers.iter().filter(|a| a.correct).count() as f64 / answered,
        );
        let mut ladder: Vec<Rung> = Vec::new();
        for (i, &rate) in LADDER.iter().enumerate() {
            let first = if i == 0 {
                nominal.rung
            } else {
                run_rung(addr, &inputs, rate, n, ctx, ledger).rung
            };
            let r = confirmed(first, || run_rung(addr, &inputs, rate, n, ctx, ledger).rung);
            ladder.push(r);
            if !r.passes() {
                break;
            }
        }
        for r in &ladder {
            eprintln!(
                "nsbench: rung {} rps: n={} failed={} p99={:.2} ms lag_tail={:.2} ms late={} growing={} achieved={:.1}",
                r.rate, r.n, r.failed, r.p99_ms, r.lag.tail, r.late_sends, r.lag_growing, r.achieved_rps
            );
        }
        ledger.set(
            "max_rps",
            max_passing(&ladder).map_or(0.0, |r| r.achieved_rps),
        );
        ledger.set("run.ops", ledger.attempted as f64);
    }

    let drain = handle.shutdown(Duration::from_secs(10));
    let stats = handle.stats();
    ledger.require(drain.drained, || {
        format!("serve_open: drain incomplete: {drain:?}")
    });
    ledger.require(stats.is_conserved(), || {
        format!("serve_open: requests not conserved: {stats:?}")
    });
    if ctx.traced {
        ledger.set("serve.shed", (stats.shed - stats0.shed) as f64);
        ledger.set(
            "serve.failovers",
            (stats.failovers - stats0.failovers) as f64,
        );
        ledger.set(
            "serve.sample_retries",
            (stats.sample_retries - stats0.sample_retries) as f64,
        );
        ledger.set(
            "serve.deadline_expired",
            (stats.deadline_expired - stats0.deadline_expired) as f64,
        );
    }
}

/// Mean of a serve histogram from a registry snapshot, ms. Means come
/// from the exact sum and count, so the stages add up to the request
/// total; the buckets (0.5 ms at the bottom) are too coarse for
/// sub-millisecond stage medians.
fn hist_mean(snap: &telemetry::MetricsSnapshot, name: &str) -> f64 {
    snap.histogram(name)
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.sum / h.count as f64)
}

/// The traced run: the nominal rung untraced (with benchmark spans),
/// the layer probes, then the nominal rung again with the program's
/// telemetry and flight recorder on.
fn traced(ctx: &Ctx, ledger: &mut Ledger, handle: &ServerHandle, inputs: &[Input], data: &Dataset) {
    set_host(ledger, &ctx.host);
    let addr = handle.addr();
    let mut tr = ctx.tracer();
    let before = fleet_counters(handle.fleet());

    let a = traced_rung(addr, inputs, ctx, ledger, &mut tr, 0);
    ledger.set("latency.p99_ms", a.rung.latency.tail);
    ledger.set("latency.tail_pct", a.rung.latency.tail_pct);
    ledger.set("serve.gen_lag_ms", a.rung.lag.tail);
    ledger.set("serve.late_sends", a.rung.late_sends as f64);

    let ((b, snap), events, dropped) = with_program_telemetry(|| {
        let b = traced_rung(addr, inputs, ctx, ledger, &mut tr, a.shots.len() as u64);
        (b, telemetry::snapshot())
    });
    set_flight(ledger, events, dropped, b.rung.n);
    let after = fleet_counters(handle.fleet());

    let answers: Vec<Answer> = a.answers.iter().chain(&b.answers).copied().collect();
    let answered = answers.len().max(1) as f64;
    let batches = distinct_batches(&answers).max(1) as f64;
    let batch_size = answered / batches;
    ledger.set("serve.batch_size_mean", batch_size);
    // One served batch is one `serve_predict` on a die.
    let per_batch = CallCounts {
        calls: batches as u64,
        syncs: after.syncs - before.syncs,
        rebuilds: after.rebuilds - before.rebuilds,
        packed: after.packed - before.packed,
        trace_events: 0,
    };
    per_batch.set_per_call(ledger, PASSES);
    set_ops_per_image(ledger, &after.ops.since(&before.ops), answered);
    let mut counts = [0u64; 4];
    for d in 0..DIES {
        let c = handle.fleet().with_die(d, |s| recoveries(s, 0).0);
        counts.iter_mut().zip(c).for_each(|(t, c)| *t += c);
    }
    set_recoveries(ledger, counts);

    // The served-request waterfall, as means over the traced rung: the
    // server's stages from its histograms, and the front end (connect,
    // accept queue, parse) as the client's latency from send minus the
    // server's request time. `accounted_frac` is the stages' share of
    // the server's request time (1 when the waterfall is complete).
    let stages = [
        "queue_wait",
        "batch_assembly",
        "die_compute",
        "retry",
        "write",
    ];
    let mut stage_sum = 0.0;
    for stage in stages {
        let v = hist_mean(&snap, &format!("serve_stage_{stage}_ms"));
        ledger.set(&format!("serve.{stage}_ms"), v);
        stage_sum += v;
    }
    let request_ms = hist_mean(&snap, "serve_request_ms");
    let sent_ms: Vec<f64> = b.shots.iter().map(Shot::sent_ms).collect();
    let client_ms = sent_ms.iter().sum::<f64>() / sent_ms.len().max(1) as f64;
    ledger.set("serve.request_ms", request_ms);
    ledger.set("serve.client_ms", client_ms);
    ledger.set("serve.front_ms", client_ms - request_ms);
    if request_ms > 0.0 {
        ledger.set("serve.accounted_frac", stage_sum / request_ms);
    }
    ledger.set(
        "telemetry.overhead_frac",
        b.rung.latency.p50 / a.rung.latency.p50 - 1.0,
    );

    // Layer probes on die 0 at the mean served batch size.
    let probe_op = (a.shots.len() + b.shots.len()) as u64;
    let bs = (batch_size.round() as usize).clamp(1, 8);
    let (x, _) = batch_of(data, 0, bs);
    let model = handle.fleet().with_die(0, |s| s.model().clone());
    let root = tr.enter("bench", "probe", probe_op);
    let pass_ms = pass_probe(&model, &x, &mut tr, probe_op, ledger);
    let kernel_ns = cim_probe(
        &xbar_layers(&arch(), bs),
        &CrossbarConfig::ideal(),
        0,
        &mut tr,
        probe_op,
        ledger,
    );
    handle
        .fleet()
        .with_die(0, |s| checkpoint_probe(s, &mut tr, probe_op, ledger));
    tr.exit(root);
    let compute_ms = ledger.get("serve.die_compute_ms").unwrap_or(0.0);
    set_pass_share(ledger, PASSES, pass_ms, compute_ms, ctx.host.pool_width);
    ledger.set("cim.kernel_share", kernel_ns / 1e6 / pass_ms);
    set_self_times(ledger, tr.spans(), probe_op);
    ledger.set("run.ops", probe_op as f64);
    crate::write_spans("serve_open", ctx, tr.spans());
}

/// The nominal rung under benchmark spans: one root span over the rung
/// and one `serve` span per request, send to response.
fn traced_rung(
    addr: SocketAddr,
    inputs: &[Input],
    ctx: &Ctx,
    ledger: &mut Ledger,
    tr: &mut Tracer,
    op0: u64,
) -> RungRun {
    let root = tr.enter("bench", "rung", op0);
    let r = run_rung(
        addr,
        inputs,
        NOMINAL_RPS,
        rung_requests(ctx.seconds),
        ctx,
        ledger,
    );
    for (k, shot) in r.shots.iter().enumerate() {
        tr.record("serve", "request", op0 + k as u64, shot.sent, shot.done);
    }
    tr.exit(root);
    r
}
