//! What the workloads share: the run context, seeded inputs, and the
//! standalone layer probes (a model pass on a clone of the die, and
//! crossbar kernels of the die's shapes).

use crate::host::Host;
use crate::ledger::Ledger;
use crate::spans::Tracer;
use crate::stats::median;
use neuspin_bayes::ArchConfig;
use neuspin_cim::{Crossbar, CrossbarConfig, OpCounter};
use neuspin_core::{flight, telemetry, HardwareModel, RecoveryAction, Supervisor};
use neuspin_data::digits::{dataset, DigitStyle};
use neuspin_nn::{Dataset, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// One run's settings.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement time budget, seconds.
    pub seconds: f64,
    /// Traced run (per-layer report) or untraced (end-to-end report).
    pub traced: bool,
    /// The host record.
    pub host: Host,
    /// Shared clock origin for spans.
    pub epoch: Instant,
}

impl Ctx {
    /// A span recorder for this run: on only in the traced run.
    pub fn tracer(&self) -> Tracer {
        Tracer::new(self.traced, self.epoch)
    }
}

/// `n` seeded digit images with labels; `tag` separates input streams
/// drawn from one workload seed.
pub fn digits(n: usize, seed: u64, tag: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    dataset(n, &DigitStyle::default(), &mut rng)
}

/// Seed of the lock set: fixed, so the sim metrics taken on it repeat
/// exactly whatever the workload seed.
const LOCK_SEED: u64 = 0x10C4_5EED;

/// MC seed of predictions on the lock set.
pub const LOCK_MC_SEED: u64 = 0x10C4_0001;

/// The fixed labelled lock set: `n` digits from [`LOCK_SEED`].
pub fn lock_set(n: usize) -> Dataset {
    digits(n, LOCK_SEED, 0)
}

/// Images `[from, from + n)` of `data` as a batch tensor.
pub fn batch_of(data: &Dataset, from: usize, n: usize) -> (Tensor, Vec<usize>) {
    let idx: Vec<usize> = (from..from + n).collect();
    data.gather(&idx)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`, in ns, after one warm call.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    median(&samples)
}

/// A crossbar-mapped layer of a compiled die: its array shape and the
/// number of input vectors one batch feeds it.
#[derive(Debug, Clone, Copy)]
pub struct XbarLayer {
    /// Metric prefix (`conv1`, `conv2`, `fc1`).
    pub name: &'static str,
    /// Word lines (inputs).
    pub rows: usize,
    /// Bit lines (outputs).
    pub cols: usize,
    /// Input vectors per batch (im2col positions for a conv).
    pub n: usize,
}

/// The crossbar-mapped layers `HardwareModel::compile` builds for
/// `arch` (3×3 same-padded convs, 2× pools, one FC on the array; the
/// classifier runs in the digital periphery and has no crossbar).
pub fn xbar_layers(arch: &ArchConfig, batch: usize) -> [XbarLayer; 3] {
    let side = arch.side;
    [
        XbarLayer {
            name: "conv1",
            rows: 9,
            cols: arch.c1,
            n: batch * side * side,
        },
        XbarLayer {
            name: "conv2",
            rows: 9 * arch.c1,
            cols: arch.c2,
            n: batch * (side / 2) * (side / 2),
        },
        XbarLayer {
            name: "fc1",
            rows: arch.flat_features(),
            cols: arch.hidden,
            n: batch,
        },
    ]
}

/// Times `matmul_into` on a standalone crossbar of each layer's shape
/// and configuration. Sets `cim.<layer>.ns_per_call` / `.gops` and
/// returns the summed kernel ns of one pass.
pub fn cim_probe(
    layers: &[XbarLayer],
    config: &CrossbarConfig,
    spare_cols: usize,
    tr: &mut Tracer,
    op: u64,
    ledger: &mut Ledger,
) -> f64 {
    let mut total = 0.0;
    for (li, layer) in layers.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xC1A0 + li as u64);
        let weights: Vec<f32> = (0..layer.rows * layer.cols)
            .map(|i| if (i * 7 + li) % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let mut xbar = Crossbar::program_with_spares(
            &weights, layer.rows, layer.cols, spare_cols, config, &mut rng,
        );
        let inputs: Vec<f32> = (0..layer.n * layer.rows)
            .map(|i| ((i * 37 % 101) as f32 / 50.0) - 1.0)
            .collect();
        let mut out = vec![0.0f64; layer.n * layer.cols];
        // Enough calls for a stable median without dominating the run.
        let macs = (layer.n * layer.rows * layer.cols) as f64;
        let reps = (2e8 / macs).clamp(3.0, 50.0) as usize;
        let ns = tr.time("cim", "matmul_into", op, || {
            median_ns(reps, || {
                xbar.matmul_into(&inputs, layer.n, &mut out, &mut rng);
                black_box(&out);
            })
        });
        ledger.set(&format!("cim.{}.ns_per_call", layer.name), ns);
        ledger.set(&format!("cim.{}.gops", layer.name), 2.0 * macs / ns);
        total += ns;
    }
    total
}

/// Times `forward_planned` (one stochastic MC pass) on a clone of the
/// die. Sets `model.pass_ms` and `model.scratch_bytes`; returns the
/// pass time in ms.
pub fn pass_probe(
    model: &HardwareModel,
    inputs: &Tensor,
    tr: &mut Tracer,
    op: u64,
    ledger: &mut Ledger,
) -> f64 {
    let mut m = model.clone();
    let mut rng = StdRng::seed_from_u64(0x9A55);
    let ns = tr.time("model", "forward_planned", op, || {
        median_ns(5, || {
            black_box(m.forward_planned(inputs, true, &mut rng));
        })
    });
    ledger.set("model.pass_ms", ns / 1e6);
    ledger.set("model.scratch_bytes", m.scratch_bytes() as f64);
    ns / 1e6
}

/// Times `Supervisor::checkpoint` (the encode every periodic
/// checkpoint pays): the median of up to three encodes, stopping once
/// a second has been spent (a paper-scale die encodes for over a
/// second). Sets `checkpoint.encode_ms` / `checkpoint.bytes`.
pub fn checkpoint_probe(sup: &Supervisor, tr: &mut Tracer, op: u64, ledger: &mut Ledger) {
    let mut bytes = 0usize;
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 && (samples.is_empty() || start.elapsed().as_secs_f64() < 1.0) {
        let t = Instant::now();
        bytes = tr.time("checkpoint", "encode", op, || {
            black_box(sup.checkpoint()).len()
        });
        samples.push(ms_since(t));
    }
    ledger.set("checkpoint.encode_ms", median(&samples));
    ledger.set("checkpoint.bytes", bytes as f64);
}

/// `model.pass_share`: the share of the call's worker time spent in
/// MC passes, `passes × pass_ms / (call_ms × workers)`, where the
/// workers are the pool threads the passes fan out over.
pub fn set_pass_share(
    ledger: &mut Ledger,
    passes: usize,
    pass_ms: f64,
    call_ms: f64,
    pool_width: usize,
) {
    let workers = pool_width.min(passes).max(1) as f64;
    if call_ms > 0.0 {
        ledger.set(
            "model.pass_share",
            passes as f64 * pass_ms / (call_ms * workers),
        );
    }
}

/// Recovery events of the supervisor's trail from index `from` on:
/// per-action counts and cells refreshed.
pub fn recoveries(sup: &Supervisor, from: usize) -> ([u64; 4], u64) {
    let mut counts = [0u64; 4];
    let mut cells = 0u64;
    for e in &sup.events()[from..] {
        let slot = match e.action {
            RecoveryAction::Scrub => 0,
            RecoveryAction::Recalibrate => 1,
            RecoveryAction::RemapTier => 2,
            RecoveryAction::Abstain => 3,
        };
        counts[slot] += 1;
        cells += e.cells_refreshed as u64;
    }
    (counts, cells)
}

/// Writes `runtime.recoveries.*` from [`recoveries`] counts.
pub fn set_recoveries(ledger: &mut Ledger, counts: [u64; 4]) {
    for (name, c) in ["scrub", "recalibrate", "remap_tier", "abstain"]
        .iter()
        .zip(counts)
    {
        ledger.set(&format!("runtime.recoveries.{name}"), c as f64);
    }
}

/// Sets the host record.
pub fn set_host(ledger: &mut Ledger, host: &Host) {
    ledger.set("host.cores", host.cores as f64);
    ledger.set("host.pool_width", host.pool_width as f64);
    ledger.set("host.parallel_probe", host.parallel_probe);
    ledger.set(
        "host.scaling_measurement",
        if host.is_scaling_measurement() {
            1.0
        } else {
            0.0
        },
    );
}

/// Sets `span.<layer>.self_ms` (self time per workload op) and
/// `span.ops` from a finished traced phase.
pub fn set_self_times(ledger: &mut Ledger, spans: &[crate::spans::Span], ops: u64) {
    let by_layer = crate::spans::self_time_by_layer(spans);
    for layer in ["bench", "runtime", "model", "cim", "checkpoint", "serve"] {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        ledger.set(
            &format!("span.{layer}.self_ms"),
            ns as f64 / 1e6 / ops.max(1) as f64,
        );
    }
    ledger.set("span.ops", ops as f64);
}

/// Median of the setup repetitions, in seconds, after running `build`
/// `reps` times; returns the last build.
pub fn repeated_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous build first so peak memory reflects one die.
        drop(last.take());
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    (median(&times), last.expect("at least one setup"))
}

/// Switches the program's own telemetry (metrics registry, trace
/// buffers, flight recorder) on or off, starting from empty sinks. The
/// flight ring is sized so a whole traced phase fits without eviction.
fn program_telemetry(on: bool) {
    telemetry::set_enabled(on, on);
    telemetry::reset();
    flight::reset();
    if on {
        flight::set_capacity(1 << 20);
    }
    flight::set_enabled(on);
}

/// Runs `f` with the program's telemetry and flight recorder on, then
/// switches them off again. Returns `f`'s result and the flight events
/// recorded and dropped meanwhile.
pub fn with_program_telemetry<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    program_telemetry(true);
    let out = f();
    let (events, dropped) = (flight::len() as u64, flight::dropped());
    program_telemetry(false);
    (out, events, dropped)
}

/// Sets `flight.events_per_request` and `flight.dropped`. The ring is
/// sized to hold the whole phase, so an eviction fails the run: the
/// per-request count would be short.
pub fn set_flight(ledger: &mut Ledger, events: u64, dropped: u64, requests: usize) {
    ledger.require(dropped == 0, || {
        format!("flight recorder evicted {dropped} events")
    });
    ledger.set(
        "flight.events_per_request",
        events as f64 / requests.max(1) as f64,
    );
    ledger.set("flight.dropped", dropped as f64);
}

/// Sets the device-op counts per image (`cim.*_per_image`): the
/// figures the energy model prices, identical for any pool width.
pub fn set_ops_per_image(ledger: &mut Ledger, ops: &OpCounter, images: f64) {
    ledger.set("cim.cell_reads_per_image", ops.cell_reads as f64 / images);
    ledger.set(
        "cim.adc_converts_per_image",
        ops.adc_converts as f64 / images,
    );
    ledger.set("cim.rng_bits_per_image", ops.rng_bits as f64 / images);
}

/// Model bookkeeping moved by a run of supervisor calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallCounts {
    /// Calls observed.
    pub calls: u64,
    /// `ReplicaBank::syncs` advance (one per pooled MC evaluation).
    pub syncs: u64,
    /// `HardwareModel::plan_rebuilds` advance.
    pub rebuilds: u64,
    /// `HardwareModel::packed_call_count` advance.
    pub packed: u64,
    /// Program trace events the calls left on this thread.
    pub trace_events: u64,
}

impl CallCounts {
    /// Runs one supervisor call and adds what it moved. Drains this
    /// thread's trace buffer so a traced phase holds no events.
    pub fn observe<R>(
        &mut self,
        sup: &mut Supervisor,
        call: impl FnOnce(&mut Supervisor) -> R,
    ) -> R {
        let syncs = sup.replicas().syncs();
        let (rebuilds, packed) = (sup.model().plan_rebuilds(), sup.model().packed_call_count());
        let out = call(sup);
        self.calls += 1;
        self.syncs += sup.replicas().syncs() - syncs;
        self.rebuilds += sup.model().plan_rebuilds() - rebuilds;
        self.packed += sup.model().packed_call_count() - packed;
        self.trace_events += telemetry::take_trace().len() as u64;
        out
    }

    /// Adds another run's counts.
    pub fn add(&mut self, other: &CallCounts) {
        self.calls += other.calls;
        self.syncs += other.syncs;
        self.rebuilds += other.rebuilds;
        self.packed += other.packed;
        self.trace_events += other.trace_events;
    }

    /// Sets the per-call model and kernel counts for `passes`-pass
    /// calls.
    pub fn set_per_call(&self, ledger: &mut Ledger, passes: usize) {
        let calls = self.calls.max(1) as f64;
        ledger.set("model.replica_syncs_per_call", self.syncs as f64 / calls);
        ledger.set("model.plan_rebuilds_per_call", self.rebuilds as f64 / calls);
        ledger.set(
            "cim.packed_calls_per_pass",
            self.packed as f64 / (calls * passes as f64),
        );
    }
}

/// Folds `word` into a running FNV-1a digest.
pub fn fold(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}
