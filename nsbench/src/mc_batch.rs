//! `mc_batch`: repeated `Supervisor::serve_predict` on seeded batch-32
//! digit batches over the production pool, on a paper-scale SpinDrop
//! die (the `exp_throughput` full-mode build: c1=32, c2=64, hidden=256,
//! 1 % defects, 5 % read noise, 6-bit ADC, 5 % IR drop, 4 spares, 12
//! passes). The crossbar kernels and blocks do nearly all the work;
//! the serve layer does none.

use crate::common::{
    batch_of, checkpoint_probe, cim_probe, digits, fold, lock_set, ms_since, pass_probe,
    recoveries, repeated_setup, set_flight, set_host, set_ops_per_image, set_pass_share,
    set_recoveries, set_self_times, with_program_telemetry, xbar_layers, CallCounts, Ctx,
    LOCK_MC_SEED,
};
use crate::ledger::Ledger;
use crate::spans::Tracer;
use crate::stats::{median, summarize};
use neuspin_bayes::{ArchConfig, Method};
use neuspin_bench::Setup;
use neuspin_cim::{BistConfig, CrossbarConfig};
use neuspin_core::{
    reliability_base, HardwareConfig, HardwareModel, HealthConfig, Supervisor, SupervisorConfig,
};
use neuspin_device::{AgingConfig, DefectRates};
use neuspin_nn::Tensor;
use std::time::Instant;

const BATCH: usize = 32;
/// Distinct seeded batches the timed loop cycles through.
const DISTINCT: usize = 4;
/// Die builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Size of the fixed lock set the sim metrics are taken on.
const LOCK_IMAGES: usize = 128;
const PASSES: usize = 12;

fn arch() -> ArchConfig {
    ArchConfig {
        c1: 32,
        c2: 64,
        hidden: 256,
        ..ArchConfig::default()
    }
}

fn crossbar() -> CrossbarConfig {
    CrossbarConfig {
        defect_rates: DefectRates {
            short: 0.005,
            open: 0.005,
            ..DefectRates::none()
        },
        read_noise: 0.05,
        adc_bits: Some(6),
        ir_drop: 0.05,
        ..reliability_base().crossbar
    }
}

/// Builds and commissions the die: data, one training epoch, compile,
/// fault management, calibration, supervisor commissioning. The health
/// monitor gets wide slack (as in `exp_serving`) so synthetic traffic
/// never escalates: this workload measures inference alone.
fn build_die() -> Supervisor {
    let setup = Setup {
        arch: arch(),
        epochs: 1,
        passes: PASSES,
        ..Setup::quick()
    };
    let (train, calib, _test) = setup.datasets();
    let mut model = setup.train(Method::SpinDrop, &train);
    let config = HardwareConfig {
        crossbar: crossbar(),
        spare_cols: 4,
        passes: PASSES,
        ..reliability_base()
    };
    let mut hw = HardwareModel::compile(
        &mut model,
        Method::SpinDrop,
        &setup.arch,
        &config,
        &mut setup.rng(0x7457),
    );
    hw.fault_management(&BistConfig::default(), &mut setup.rng(0x7458));
    hw.enable_aging(&AgingConfig::default());
    let health = HealthConfig {
        entropy_slack: 4.0,
        margin_slack: 4.0,
        ..HealthConfig::default()
    };
    let mut sup = Supervisor::new(
        hw,
        SupervisorConfig {
            health,
            ..SupervisorConfig::default()
        },
    );
    let (monitor, _) = batch_of(&calib, 0, BATCH);
    sup.commission(calib.inputs.clone(), &monitor);
    sup
}

/// The sim metrics, on one `serve_predict` over the fixed lock set:
/// MC-mean accuracy, energy per image from `HardwareModel::energy()`
/// deltas, and device ops per image. Inputs and MC seed are constants,
/// so these repeat exactly across workload seeds and pool widths and
/// lock the die's behaviour.
fn lock_metrics(sup: &mut Supervisor, ledger: &mut Ledger) {
    let lock = lock_set(LOCK_IMAGES);
    let (energy0, ops0) = (sup.model().energy().0, sup.model().counter());
    let report = sup.serve_predict(&lock.inputs, LOCK_MC_SEED);
    let n = LOCK_IMAGES as f64;
    let ops = sup.model().counter().since(&ops0);
    ledger.set("accuracy", report.predictive.accuracy(&lock.labels));
    ledger.set(
        "energy_uj_per_image",
        (sup.model().energy().0 - energy0) * 1e6 / n,
    );
    set_ops_per_image(ledger, &ops, n);
}

/// The seeded inputs of one run.
struct Inputs {
    batches: Vec<(Tensor, Vec<usize>)>,
    seeds: Vec<u64>,
    /// `bits_digest` each (batch, seed) gave under a one-worker pool.
    expect: Vec<u64>,
}

/// Timed `serve_predict` calls for `budget_s` (at least one cycle),
/// each checked against its oracle digest. Returns the call latencies
/// in ms and the bookkeeping the calls moved.
fn phase(
    sup: &mut Supervisor,
    inp: &Inputs,
    budget_s: f64,
    tr: &mut Tracer,
    op0: u64,
    ledger: &mut Ledger,
) -> (Vec<f64>, CallCounts) {
    let mut lat_ms = Vec::new();
    let mut counts = CallCounts::default();
    let start = Instant::now();
    let mut k = 0usize;
    while k < DISTINCT || start.elapsed().as_secs_f64() < budget_s {
        let b = k % DISTINCT;
        let op = op0 + k as u64;
        let root = tr.enter("bench", "op", op);
        let t = Instant::now();
        let report = counts.observe(sup, |s| {
            tr.time("runtime", "serve_predict", op, || {
                s.serve_predict(&inp.batches[b].0, inp.seeds[b])
            })
        });
        lat_ms.push(ms_since(t));
        tr.exit(root);
        let digest = report.predictive.bits_digest();
        ledger.check(digest == inp.expect[b], || {
            format!(
                "mc_batch call {k}: digest {digest:#x} != oracle {:#x}",
                inp.expect[b]
            )
        });
        k += 1;
    }
    (lat_ms, counts)
}

pub fn run(ctx: &Ctx, ledger: &mut Ledger) {
    let (setup_s, mut sup) = repeated_setup(SETUP_REPS, build_die);
    ledger.set("setup_s", setup_s);
    ledger.set("setup.reps", SETUP_REPS as f64);

    lock_metrics(&mut sup, ledger);
    let data = digits(BATCH * DISTINCT, ctx.seed, 0x3C);
    let batches: Vec<_> = (0..DISTINCT)
        .map(|b| batch_of(&data, b * BATCH, BATCH))
        .collect();
    let seeds: Vec<u64> = (0..DISTINCT as u64)
        .map(|b| fold(ctx.seed, 0xB47C_0000 + b))
        .collect();
    // The oracle: every (batch, seed) on a one-worker pool. The timed
    // calls run on the production pool and must match bit for bit.
    sup.set_threads(1);
    let expect = batches
        .iter()
        .zip(&seeds)
        .map(|((x, _), &s)| sup.serve_predict(x, s).predictive.bits_digest())
        .collect();
    sup.set_threads(ctx.host.pool_width);
    let inp = Inputs {
        batches,
        seeds,
        expect,
    };

    let mut tr = ctx.tracer();
    let budget = if ctx.traced {
        0.4 * ctx.seconds
    } else {
        ctx.seconds
    };
    let (a_ms, a) = phase(&mut sup, &inp, budget, &mut tr, 0, ledger);
    let lat = summarize(&a_ms);
    ledger.set("images_per_s", BATCH as f64 * 1e3 / lat.p50);
    ledger.set("p50_ms", lat.p50);
    ledger.set("max_rps", 1e3 / lat.p50);
    ledger.set("run.ops", a.calls as f64);
    if !ctx.traced {
        return;
    }

    set_host(ledger, &ctx.host);
    ledger.set("latency.p99_ms", lat.tail);
    ledger.set("latency.tail_pct", lat.tail_pct);
    ledger.set("runtime.serve_predict_ms.p50", lat.p50);
    ledger.set("runtime.serve_predict_ms.tail", lat.tail);
    ledger.set("runtime.serve_predict_ms.tail_pct", lat.tail_pct);
    set_recoveries(ledger, recoveries(&sup, 0).0);
    a.set_per_call(ledger, PASSES);

    // Layer probes: a pass on a clone, the kernels of each crossbar
    // shape, the checkpoint encode.
    let probe_op = a.calls;
    let root = tr.enter("bench", "probe", probe_op);
    let pass_ms = pass_probe(sup.model(), &inp.batches[0].0, &mut tr, probe_op, ledger);
    let kernel_ns = cim_probe(
        &xbar_layers(&arch(), BATCH),
        &crossbar(),
        4,
        &mut tr,
        probe_op,
        ledger,
    );
    checkpoint_probe(&sup, &mut tr, probe_op, ledger);
    tr.exit(root);
    set_pass_share(ledger, PASSES, pass_ms, lat.p50, ctx.host.pool_width);
    ledger.set("cim.kernel_share", kernel_ns / 1e6 / pass_ms);

    // Traced phase: the program's telemetry and flight recorder on.
    let ((b_ms, b), events, dropped) = with_program_telemetry(|| {
        phase(
            &mut sup,
            &inp,
            0.4 * ctx.seconds,
            &mut tr,
            probe_op + 1,
            ledger,
        )
    });
    ledger.set("telemetry.overhead_frac", median(&b_ms) / lat.p50 - 1.0);
    ledger.set(
        "telemetry.events_per_op",
        b.trace_events as f64 / b.calls as f64,
    );
    set_flight(ledger, events, dropped, b_ms.len());
    set_self_times(ledger, tr.spans(), a.calls + b.calls);
    crate::write_spans("mc_batch", ctx, tr.spans());
}
