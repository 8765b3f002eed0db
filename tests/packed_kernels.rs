//! E2E acceptance for the bit-packed XNOR/popcount crossbar kernel.
//!
//! The contract under test: on a *noiseless* fault-managed SpinDrop
//! CNN fed binarized ±1 images, the packed kernel engages on the
//! binary-input layers (conv-1 sees ternary im2col patches; deeper
//! layers fall back per call on their continuous HardTanh activations)
//! and the model's `Predictive` is **bit-identical** across all three
//! [`KernelPolicy`] routings, across worker counts, and with telemetry
//! tracing on or off. Op counters and sense-margin statistics must
//! agree exactly between policies too — kernel selection is a speed
//! knob, never a semantics knob.

use neuspin::bayes::{build_cnn, ArchConfig, Method, Predictive};
use neuspin::cim::{BistConfig, CrossbarConfig, KernelPolicy};
use neuspin::core::{reliability_base, HardwareConfig, HardwareModel, ReplicaBank, ThreadPool};
use neuspin::device::DefectRates;
use neuspin::nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PASSES: usize = 6;
const SEED: u64 = 0xB17_ACC;

/// The noiseless E2E model: a SpinDrop CNN on ideal-corner crossbars
/// with stuck-at defects (ternary effective weights), 6-bit ADCs, no
/// read noise, no IR drop — the regime the packed kernel targets —
/// taken through BIST + repair + remap and calibration. Deterministic:
/// two calls build bit-identical models.
fn noiseless_model() -> HardwareModel {
    let arch = ArchConfig { c1: 4, c2: 8, hidden: 16, ..ArchConfig::default() };
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut sw = build_cnn(Method::SpinDrop, &arch, &mut rng);
    let config = HardwareConfig {
        crossbar: CrossbarConfig {
            defect_rates: DefectRates {
                stuck_parallel: 0.01,
                stuck_antiparallel: 0.01,
                ..DefectRates::none()
            },
            read_noise: 0.0,
            adc_bits: Some(6),
            ir_drop: 0.0,
            ..CrossbarConfig::ideal()
        },
        spare_cols: 4,
        passes: PASSES,
        ..reliability_base()
    };
    let mut hw = HardwareModel::compile(&mut sw, Method::SpinDrop, &arch, &config, &mut rng);
    hw.fault_management(&BistConfig::default(), &mut StdRng::seed_from_u64(SEED ^ 1));
    hw.calibrate(&binary_inputs(12, 3), 2, &mut StdRng::seed_from_u64(SEED ^ 2));
    hw
}

/// The seeded MC engine on a `threads`-wide pool with freshly cloned
/// replicas.
fn seeded(hw: &mut HardwareModel, x: &Tensor, seed: u64, threads: usize) -> Predictive {
    hw.predict_seeded(x, seed, &ThreadPool::new(threads), &mut ReplicaBank::new())
}

/// A deterministic batch of binarized ±1 images (the SpinDrop input
/// convention: sign-quantized pixels on the word lines).
fn binary_inputs(n: usize, tag: usize) -> Tensor {
    Tensor::from_fn(&[n, 1, 16, 16], |i| if (i * 31 + tag * 7) % 5 < 2 { 1.0 } else { -1.0 })
}

#[test]
fn packed_scalar_and_reference_predictions_are_bit_identical() {
    // Twin dies from the same seeds, one per policy: predictions,
    // merged op counters, and sense-margin statistics must all match
    // exactly (sequential evaluation — no reassociation anywhere).
    let x = binary_inputs(6, 0);
    let mut auto = noiseless_model();
    let mut scalar = noiseless_model();
    let mut reference = noiseless_model();
    scalar.set_kernel_policy(KernelPolicy::Scalar);
    reference.set_kernel_policy(KernelPolicy::Reference);
    for hw in [&mut auto, &mut scalar, &mut reference] {
        hw.reset_counter();
        hw.reset_sense_margins();
    }
    // `packed_call_count` is monotonic since programming (compile and
    // calibration already ran under the default Auto policy), so
    // engagement during the predictions below is measured as a delta.
    let auto_before = auto.packed_call_count();
    let scalar_before = scalar.packed_call_count();
    let reference_before = reference.packed_call_count();
    let pa = seeded(&mut auto, &x, 0xD15E, 1);
    let ps = seeded(&mut scalar, &x, 0xD15E, 1);
    let pr = seeded(&mut reference, &x, 0xD15E, 1);
    assert_eq!(pa, ps, "auto (packed) vs scalar predictions");
    assert_eq!(pa, pr, "auto (packed) vs reference predictions");
    assert_eq!(auto.counter(), scalar.counter(), "auto vs scalar op counters");
    assert_eq!(auto.counter(), reference.counter(), "auto vs reference op counters");
    let (ma, ms, mr) = (
        auto.mean_sense_margin(),
        scalar.mean_sense_margin(),
        reference.mean_sense_margin(),
    );
    assert_eq!(ma.to_bits(), ms.to_bits(), "auto vs scalar sense margins");
    assert_eq!(ma.to_bits(), mr.to_bits(), "auto vs reference sense margins");
    // The fast path must actually have served the binary layers — this
    // is the engagement proof, not just an equivalence vacuously
    // satisfied by universal fallback.
    assert!(
        auto.packed_call_count() > auto_before,
        "packed kernel never engaged on the binarized model"
    );
    assert_eq!(
        scalar.packed_call_count(),
        scalar_before,
        "scalar policy must never route packed"
    );
    assert_eq!(
        reference.packed_call_count(),
        reference_before,
        "reference policy must never route packed"
    );
    // A 4-worker pool runs the same passes on replicas, whose packed
    // calls resync into the die with its op counts.
    let mut pooled = noiseless_model();
    pooled.reset_counter();
    let pooled_before = pooled.packed_call_count();
    assert_eq!(seeded(&mut pooled, &x, 0xD15E, 4), pa, "4 workers vs sequential");
    assert_eq!(pooled.counter(), auto.counter(), "4 workers vs sequential op counters");
    assert_eq!(
        pooled.packed_call_count() - pooled_before,
        auto.packed_call_count() - auto_before,
        "a 4-worker pool must report the packed calls its replicas served"
    );
}

#[test]
fn packed_predictions_are_thread_count_invariant() {
    let mut hw = noiseless_model();
    let x = binary_inputs(6, 1);
    let sequential = seeded(&mut hw, &x, 0xD15E, 1);
    assert!(hw.packed_call_count() > 0, "sequential run must engage the packed kernel");
    for threads in [1usize, 2, 4] {
        let parallel = seeded(&mut hw, &x, 0xD15E, threads);
        assert_eq!(parallel, sequential, "{threads} threads vs sequential (packed)");
    }
    // NEUSPIN_THREADS drives the default pool through the same engine.
    std::env::set_var("NEUSPIN_THREADS", "3");
    let pool = ThreadPool::from_env();
    assert_eq!(pool.threads(), 3);
    let pred = hw.predict_seeded(&x, 0xD15E, &pool, &mut ReplicaBank::new());
    assert_eq!(pred, sequential, "NEUSPIN_THREADS pool");
    std::env::remove_var("NEUSPIN_THREADS");
}

#[test]
fn traced_packed_predictions_match_untraced_across_policies() {
    // Telemetry on: tracing consumes no RNG and must not disturb the
    // packed/scalar/reference equivalence, at any worker count.
    let _guard = neuspin::core::telemetry::test_lock();
    let x = binary_inputs(5, 2);
    let mut hw = noiseless_model();
    let untraced = seeded(&mut hw, &x, 0xCAFE, 2);
    for policy in [KernelPolicy::Auto, KernelPolicy::Scalar, KernelPolicy::Reference] {
        hw.set_kernel_policy(policy);
        for threads in [1usize, 2, 4] {
            neuspin::core::telemetry::set_enabled(true, true);
            neuspin::core::telemetry::reset();
            let traced = seeded(&mut hw, &x, 0xCAFE, threads);
            let events = neuspin::core::telemetry::take_trace();
            neuspin::core::telemetry::set_enabled(false, false);
            assert_eq!(traced, untraced, "{policy:?}, {threads} threads, traced vs untraced");
            assert!(!events.is_empty(), "trace must capture the MC passes");
        }
    }
}
