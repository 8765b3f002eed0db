//! Behaviour lock on the hardware Monte-Carlo inference surface.
//!
//! Every method of [`Method::ALL`] is compiled onto one small noisy die
//! (stuck-at, short and open defects, read noise, a 6-bit ADC, IR drop),
//! calibrated, and then driven through the ambient-stream `predict` and
//! the seeded engine on a 1-worker and a 4-worker pool. The outputs'
//! `bits_digest`, the die's op-counter window, and the mean sense
//! margin's bit pattern are pinned to values captured before the
//! inference paths were collapsed into one forward and one seeded
//! engine: a refactor of the forward plan, the pass loop, the MC engine
//! or the replica resync must reproduce them bit for bit, with no
//! re-capture.
//!
//! The die covers every block variant (binary conv and FC crossbars,
//! the SpinBayes multi-instance FC, calibrated and inverted norms,
//! every dropout unit, pooling, flatten, the digital classifier) and
//! both the calibrating and the inference path of the norm blocks.

use neuspin::bayes::{build_cnn, ArchConfig, Method, Predictive};
use neuspin::cim::{CrossbarConfig, OpCounter};
use neuspin::core::{HardwareConfig, HardwareModel, ReplicaBank, ThreadPool};
use neuspin::device::DefectRates;
use neuspin::nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0x10C4;
const PREDICT_SEED: u64 = 0x5EED;

/// `[predict, seeded@1, seeded@4, counter, margin]` per method, captured
/// before the refactor.
const GOLDEN: [(Method, [u64; 5]); 7] = [
    (
        Method::Deterministic,
        [
            0x87de208eae077041,
            0x894117cdd51cdcde,
            0x894117cdd51cdcde,
            0x81323b560a96d497,
            0x4021f566650e31a7,
        ],
    ),
    (
        Method::SpinDrop,
        [
            0x30a2f6fcd08d772e,
            0xa657c1e50543025d,
            0xa657c1e50543025d,
            0x18cc098736180728,
            0x400330fa25e86a39,
        ],
    ),
    (
        Method::SpatialSpinDrop,
        [
            0x4110b349c897d6f0,
            0xf6c6f4408ee99d7a,
            0xf6c6f4408ee99d7a,
            0xcf531dbe9bd0aa0a,
            0x4003fe0423259492,
        ],
    ),
    (
        Method::SpinScaleDrop,
        [
            0x31cc44343122444b,
            0xf15a53437391dff6,
            0xf15a53437391dff6,
            0x706f499c5d19fcfc,
            0x4009091ba2d13043,
        ],
    ),
    (
        Method::AffineDropout,
        [
            0x784e1b8331c9546c,
            0xb3732a1816b9bd29,
            0xb3732a1816b9bd29,
            0x5affc0300a65e6ca,
            0x4010fb7f87a86ca9,
        ],
    ),
    (
        Method::SubsetVi,
        [
            0x44593e77c7715be3,
            0xbca6f9dc685bc33e,
            0xbca6f9dc685bc33e,
            0x0dde80bc0dc4b7d1,
            0x4021bd20d2fb3ef0,
        ],
    ),
    (
        Method::SpinBayes,
        [
            0x0a4db48b31f8751f,
            0xa949aea5339fdb94,
            0xa949aea5339fdb94,
            0xa0c648c30118148f,
            0x400060d601756e52,
        ],
    ),
];

fn arch() -> ArchConfig {
    ArchConfig { c1: 2, c2: 4, hidden: 16, classes: 4, side: 8, ..ArchConfig::default() }
}

/// A deterministic batch shaped for [`arch`].
fn inputs(n: usize, tag: usize) -> Tensor {
    Tensor::from_fn(&[n, 1, 8, 8], |i| (((i * 37 + tag * 11) % 23) as f32) / 11.0 - 1.0)
}

/// The method compiled onto the noisy die (untrained weights: the lock
/// is about bits, not accuracy).
fn die(method: Method) -> HardwareModel {
    let a = arch();
    let mut rng = StdRng::seed_from_u64(SEED);
    let sw_method = if method == Method::SpinBayes { Method::Deterministic } else { method };
    let mut sw = build_cnn(sw_method, &a, &mut rng);
    let config = HardwareConfig {
        crossbar: CrossbarConfig {
            defect_rates: DefectRates {
                stuck_parallel: 0.01,
                stuck_antiparallel: 0.01,
                short: 0.005,
                open: 0.005,
            },
            read_noise: 0.02,
            adc_bits: Some(6),
            ir_drop: 0.05,
            ..CrossbarConfig::default()
        },
        passes: 4,
        ..HardwareConfig::default()
    };
    HardwareModel::compile(&mut sw, method, &a, &config, &mut rng)
}

/// The seeded MC engine on a `threads`-wide pool with a fresh replica
/// bank.
fn seeded(hw: &mut HardwareModel, x: &Tensor, threads: usize) -> Predictive {
    hw.predict_seeded(x, PREDICT_SEED, &ThreadPool::new(threads), &mut ReplicaBank::new())
}

/// FNV-1a-64 over every op-counter field.
fn counter_digest(c: &OpCounter) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for word in [
        c.cell_reads,
        c.cell_writes,
        c.sa_evals,
        c.adc_converts,
        c.adc_saturations,
        c.rng_bits,
        c.sram_accesses,
        c.digital_ops,
    ] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn fingerprint(method: Method) -> [u64; 5] {
    let mut hw = die(method);
    hw.calibrate(&inputs(6, 1), 2, &mut StdRng::seed_from_u64(SEED ^ 1));
    let x = inputs(3, 2);
    let ambient = hw.predict(&x, &mut StdRng::seed_from_u64(SEED ^ 2)).bits_digest();
    let one = seeded(&mut hw, &x, 1).bits_digest();
    let four = seeded(&mut hw, &x, 4).bits_digest();
    [ambient, one, four, counter_digest(&hw.counter()), hw.mean_sense_margin().to_bits()]
}

#[test]
fn mc_engine_outputs_counters_and_margins_are_locked() {
    let mut mismatches = Vec::new();
    for (method, want) in GOLDEN {
        let got = fingerprint(method);
        if got != want {
            let words: Vec<String> = got.iter().map(|w| format!("0x{w:016x}")).collect();
            mismatches.push(format!("(Method::{method:?}, [{}]),", words.join(", ")));
        }
    }
    assert!(mismatches.is_empty(), "locked values moved:\n{}", mismatches.join("\n"));
}

#[test]
fn golden_table_covers_every_method() {
    let methods: Vec<Method> = GOLDEN.iter().map(|(m, _)| *m).collect();
    assert_eq!(methods, Method::ALL);
}
