//! `lifetime_mixed`: one trained default-arch die on
//! `faulty_hardware_config(0.002, 4, 6)` at the 350 K aging corner of
//! `exp_lifetime`, under a supervisor with a scheduled scrub and a
//! checkpoint after every interaction (as in `exp_chaos`). A lifetime
//! alternates a served batch (`serve_predict`) with a device-time step
//! (`step`, 1 h) for a fixed number of simulated hours; the run replays
//! that lifetime, each time on a freshly built and commissioned die,
//! until the time budget is spent. Every step rewrites device state, so replica,
//! weight-table and plan rebuilds are on the measured path.

use crate::common::{
    batch_of, checkpoint_probe, cim_probe, digits, fold, lock_set, ms_since, pass_probe,
    recoveries, set_flight, set_host, set_ops_per_image, set_pass_share, set_recoveries,
    set_self_times, with_program_telemetry, xbar_layers, CallCounts, Ctx,
};
use crate::ledger::Ledger;
use crate::spans::Tracer;
use crate::stats::{median, summarize};
use neuspin_bayes::Method;
use neuspin_bench::scenarios::faulty_hardware_config;
use neuspin_bench::Setup;
use neuspin_cim::OpCounter;
use neuspin_core::{HardwareModel, Supervisor, SupervisorConfig};
use neuspin_device::{AgingConfig, TemperatureProfile};
use neuspin_nn::{Dataset, Tensor};
use std::time::Instant;

const DEFECT_RATE: f64 = 0.002;
const SPARE_COLS: usize = 4;
const PASSES: usize = 6;
/// Room-temperature thermal stability; ≈ 6 %/h retention flips at 350 K.
const DELTA0: f64 = 37.0;
const DRIFT_RATE: f64 = 0.01;
const TEMPERATURE_K: f64 = 350.0;
const SCRUB_INTERVAL_H: f64 = 2.0;
const DT_H: f64 = 1.0;
/// Device-hours of one lifetime (one `step` each).
const STEPS: usize = 8;
const SERVE_BATCH: usize = 32;
/// Size of the fixed lock set every `step` evaluates: the end-of-life
/// accuracy is read on it.
const EVAL_IMAGES: usize = 128;
/// Fewest lifetimes (hence die builds) per run; `setup_s` is the
/// median build time.
const SETUP_REPS: usize = 3;

/// The `exp_lifetime` fast-mode training setup.
fn setup() -> Setup {
    Setup {
        epochs: 2,
        train_images: 600,
        test_images: 96,
        calib_images: 48,
        passes: PASSES,
        ..Setup::quick()
    }
}

/// Builds the managed die: train, compile with light defects, enable
/// 350 K aging, commission, checkpoint every interaction.
fn build_die() -> Supervisor {
    let setup = setup();
    let (train, calib, test) = setup.datasets();
    let mut model = setup.train(Method::SpinDrop, &train);
    let master = setup.seed ^ 0x0A61_0000;
    let config = faulty_hardware_config(DEFECT_RATE, SPARE_COLS, PASSES);
    let mut hw = HardwareModel::compile(
        &mut model,
        Method::SpinDrop,
        &setup.arch,
        &config,
        &mut setup.rng(0x11FE),
    );
    hw.enable_aging(&AgingConfig {
        seed: master ^ 0x000D_ECAF,
        thermal_stability: DELTA0,
        temperature: TemperatureProfile::Constant(TEMPERATURE_K),
        drift_rate: DRIFT_RATE,
        ..AgingConfig::default()
    });
    let mut sup = Supervisor::new(
        hw,
        SupervisorConfig {
            scrub_interval_hours: SCRUB_INTERVAL_H,
            seed: master,
            ..SupervisorConfig::default()
        },
    );
    sup.commission(calib.inputs.clone(), &test.inputs);
    sup.set_checkpoint_interval(1);
    sup
}

/// The seeded inputs of one run.
struct Inputs {
    serve: Vec<(Tensor, u64)>,
    eval: Dataset,
}

/// What one lifetime observed.
#[derive(Default)]
struct Life {
    step_digests: Vec<u64>,
    serve_ms: Vec<f64>,
    step_ms: Vec<f64>,
    final_accuracy: f64,
    energy_j: f64,
    ops: OpCounter,
    recoveries: [u64; 4],
    cells_refreshed: u64,
    counts: CallCounts,
}

impl Life {
    fn time_s(&self) -> f64 {
        (self.serve_ms.iter().sum::<f64>() + self.step_ms.iter().sum::<f64>()) / 1e3
    }
}

/// One lifetime of a freshly commissioned die.
fn live(sup: &mut Supervisor, inp: &Inputs, tr: &mut Tracer, op0: u64) -> Life {
    let events0 = sup.events().len();
    let (energy0, ops0) = (sup.model().energy().0, sup.model().counter());
    let mut life = Life::default();
    for (i, (batch, seed)) in inp.serve.iter().enumerate() {
        let op = op0 + i as u64;
        let root = tr.enter("bench", "op", op);
        let t = Instant::now();
        let served = life.counts.observe(sup, |s| {
            tr.time("runtime", "serve_predict", op, || {
                s.serve_predict(batch, *seed)
            })
        });
        life.serve_ms.push(ms_since(t));
        let t = Instant::now();
        let stepped = life.counts.observe(sup, |s| {
            tr.time("runtime", "step", op, || s.step(&inp.eval.inputs, DT_H))
        });
        life.step_ms.push(ms_since(t));
        tr.exit(root);
        let digest = fold(
            served.predictive.bits_digest(),
            stepped.predictive.bits_digest(),
        );
        life.step_digests.push(digest);
        life.final_accuracy = stepped.predictive.accuracy(&inp.eval.labels);
    }
    life.energy_j = sup.model().energy().0 - energy0;
    life.ops = sup.model().counter().since(&ops0);
    (life.recoveries, life.cells_refreshed) = recoveries(sup, events0);
    life
}

/// Replays lifetimes for `budget_s` (at least `min_lives`), each on a
/// freshly built die, checking every step against the reference
/// lifetime's. Build times are appended to `builds_s`. Returns the
/// lifetimes and the last die.
#[allow(clippy::too_many_arguments)]
fn replays(
    inp: &Inputs,
    reference: Option<&Life>,
    budget_s: f64,
    min_lives: usize,
    tr: &mut Tracer,
    op0: u64,
    ledger: &mut Ledger,
    builds_s: &mut Vec<f64>,
) -> (Vec<Life>, Supervisor) {
    let mut lives: Vec<Life> = Vec::new();
    let t = Instant::now();
    loop {
        let b = Instant::now();
        let mut sup = build_die();
        builds_s.push(b.elapsed().as_secs_f64());
        let op = op0 + (lives.len() * STEPS) as u64;
        let life = live(&mut sup, inp, tr, op);
        let want = reference.or(lives.first()).unwrap_or(&life);
        for (i, (got, exp)) in life.step_digests.iter().zip(&want.step_digests).enumerate() {
            ledger.check(got == exp, || {
                format!(
                    "lifetime_mixed replay {} step {i}: digest {got:#x} != {exp:#x}",
                    lives.len()
                )
            });
        }
        lives.push(life);
        if lives.len() >= min_lives && t.elapsed().as_secs_f64() >= budget_s {
            return (lives, sup);
        }
    }
}

pub fn run(ctx: &Ctx, ledger: &mut Ledger) {
    let traffic = digits(SERVE_BATCH * STEPS, ctx.seed, 0x11FE);
    let inp = Inputs {
        serve: (0..STEPS)
            .map(|i| {
                (
                    batch_of(&traffic, i * SERVE_BATCH, SERVE_BATCH).0,
                    fold(ctx.seed, 0x5E7E_0000 + i as u64),
                )
            })
            .collect(),
        eval: lock_set(EVAL_IMAGES),
    };

    let mut tr = ctx.tracer();
    let budget = if ctx.traced {
        0.4 * ctx.seconds
    } else {
        ctx.seconds
    };
    let mut builds_s = Vec::new();
    let (a, sup) = replays(
        &inp,
        None,
        budget,
        SETUP_REPS,
        &mut tr,
        0,
        ledger,
        &mut builds_s,
    );
    ledger.set("setup_s", median(&builds_s));
    ledger.set("setup.reps", builds_s.len() as f64);
    let first = &a[0];
    let images = (STEPS * (SERVE_BATCH + EVAL_IMAGES)) as f64;
    let serve_ms: Vec<f64> = a.iter().flat_map(|l| l.serve_ms.iter().copied()).collect();
    let step_ms: Vec<f64> = a.iter().flat_map(|l| l.step_ms.iter().copied()).collect();
    let life_s = median(&a.iter().map(Life::time_s).collect::<Vec<_>>());
    let serve = summarize(&serve_ms);
    ledger.set("images_per_s", images / life_s);
    ledger.set("energy_uj_per_image", first.energy_j * 1e6 / images);
    ledger.set("accuracy", first.final_accuracy);
    ledger.set("p50_ms", serve.p50);
    ledger.set("max_rps", STEPS as f64 / life_s);
    ledger.set("run.ops", (a.len() * STEPS) as f64);
    if !ctx.traced {
        return;
    }

    set_host(ledger, &ctx.host);
    ledger.set("latency.p99_ms", serve.tail);
    ledger.set("latency.tail_pct", serve.tail_pct);
    let step = summarize(&step_ms);
    ledger.set("runtime.serve_predict_ms.p50", serve.p50);
    ledger.set("runtime.serve_predict_ms.tail", serve.tail);
    ledger.set("runtime.serve_predict_ms.tail_pct", serve.tail_pct);
    ledger.set("runtime.step_ms.p50", step.p50);
    ledger.set("runtime.step_ms.tail", step.tail);
    set_recoveries(ledger, first.recoveries);
    ledger.set(
        "device.cells_refreshed_per_step",
        first.cells_refreshed as f64 / STEPS as f64,
    );
    set_ops_per_image(ledger, &first.ops, images);
    let mut counts = CallCounts::default();
    a.iter().for_each(|l| counts.add(&l.counts));
    counts.set_per_call(ledger, PASSES);

    let probe_op = (a.len() * STEPS) as u64;
    let root = tr.enter("bench", "probe", probe_op);
    let (x, _) = batch_of(&inp.eval, 0, SERVE_BATCH);
    let pass_ms = pass_probe(sup.model(), &x, &mut tr, probe_op, ledger);
    let config = faulty_hardware_config(DEFECT_RATE, SPARE_COLS, PASSES);
    let kernel_ns = cim_probe(
        &xbar_layers(&setup().arch, SERVE_BATCH),
        &config.crossbar,
        SPARE_COLS,
        &mut tr,
        probe_op,
        ledger,
    );
    checkpoint_probe(&sup, &mut tr, probe_op, ledger);
    tr.exit(root);
    set_pass_share(ledger, PASSES, pass_ms, serve.p50, ctx.host.pool_width);
    ledger.set("cim.kernel_share", kernel_ns / 1e6 / pass_ms);

    // Traced lifetimes must match the untraced ones step for step.
    let ((b, _), events, dropped) = with_program_telemetry(|| {
        replays(
            &inp,
            Some(first),
            0.4 * ctx.seconds,
            1,
            &mut tr,
            probe_op + 1,
            ledger,
            &mut builds_s,
        )
    });
    let traced_s = median(&b.iter().map(Life::time_s).collect::<Vec<_>>());
    ledger.set("telemetry.overhead_frac", traced_s / life_s - 1.0);
    let mut traced = CallCounts::default();
    b.iter().for_each(|l| traced.add(&l.counts));
    ledger.set(
        "telemetry.events_per_op",
        traced.trace_events as f64 / traced.calls as f64,
    );
    set_flight(ledger, events, dropped, STEPS * b.len());
    set_self_times(ledger, tr.spans(), ((a.len() + b.len()) * STEPS) as u64);
    crate::write_spans("lifetime_mixed", ctx, tr.spans());
}
