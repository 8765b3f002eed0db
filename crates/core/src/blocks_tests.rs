//! Unit tests for the hardware execution blocks (separate file to keep
//! `blocks.rs` focused on the implementation).

use crate::blocks::*;
use neuspin_cim::{Crossbar, CrossbarConfig, OpCounter, ScaleDropModule, SpinDropModule};
use neuspin_device::VariedParams;
use neuspin_nn::conv::ConvGeometry;
use neuspin_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(4242)
}

/// Runs one `forward_into` call into a fresh output tensor.
fn run(f: impl FnOnce(&mut Tensor)) -> Tensor {
    let mut out = Tensor::default();
    f(&mut out);
    out
}

#[test]
fn hw_conv_matches_direct_convolution() {
    let mut r = rng();
    // 1→2 channels, 3×3, identity-ish kernels of ±1.
    let geo = ConvGeometry { in_channels: 1, out_channels: 2, kernel: 3, stride: 1, padding: 1 };
    let signs: Vec<f32> = (0..9 * 2).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    // Crossbar layout rows=9 (patch), cols=2.
    let mut layout = vec![0.0f32; 18];
    for o in 0..2 {
        for i in 0..9 {
            layout[i * 2 + o] = signs[o * 9 + i];
        }
    }
    let mut block = HwConv {
        xbar: Crossbar::program(&layout, 9, 2, &CrossbarConfig::ideal(), &mut r),
        geo,
        alphas: vec![0.5, 2.0],
        bias: vec![0.1, -0.1],
        local: OpCounter::new(),
        col: Tensor::default(),
        ybuf: Vec::new(),
    };
    let x = Tensor::from_fn(&[1, 1, 4, 4], |i| (i as f32 * 0.3).sin());
    let y = run(|out| block.forward_into(&x, out, &mut r));
    assert_eq!(y.shape(), &[1, 2, 4, 4]);
    // Reference: direct convolution with the same ±1 kernels.
    let col = neuspin_nn::im2col(&x, &geo);
    for pos in 0..16 {
        for o in 0..2 {
            let mut acc = 0.0f32;
            for i in 0..9 {
                acc += col[pos * 9 + i] * signs[o * 9 + i];
            }
            let expected = acc * block.alphas[o] + block.bias[o];
            let got = y[o * 16 + pos];
            assert!((got - expected).abs() < 1e-4, "pos {pos} ch {o}: {got} vs {expected}");
        }
    }
}

#[test]
fn hw_norm_calibration_whitens_features() {
    let mut block = HwNorm {
        gamma: vec![1.0; 3],
        beta: vec![0.0; 3],
        mean: vec![0.0; 3],
        var: vec![1.0; 3],
        stats: FeatureStats::default(),
        local: OpCounter::new(),
    };
    // Features with distinct means/scales.
    let x = Tensor::from_fn(&[64, 3], |i| match i % 3 {
        0 => 5.0 + ((i / 3) as f32 * 0.37).sin(),
        1 => -2.0 + 3.0 * ((i / 3) as f32 * 0.53).cos(),
        _ => 0.5 * ((i / 3) as f32 * 0.71).sin(),
    });
    let _ = run(|out| block.forward_into(&x, out, true)); // calibration pass
    let y = run(|out| block.forward_into(&x, out, false));
    for f in 0..3 {
        let col: Vec<f32> = (0..64).map(|n| y[n * 3 + f]).collect();
        let mean: f32 = col.iter().sum::<f32>() / 64.0;
        let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
        assert!(mean.abs() < 0.05, "feature {f} mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "feature {f} var {var}");
    }
}

#[test]
fn hw_norm_accumulates_across_calibration_rounds() {
    let mut block = HwNorm {
        gamma: vec![1.0],
        beta: vec![0.0],
        mean: vec![0.0],
        var: vec![1.0],
        stats: FeatureStats::default(),
        local: OpCounter::new(),
    };
    let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4, 1]);
    let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[4, 1]);
    let _ = run(|out| block.forward_into(&a, out, true));
    let _ = run(|out| block.forward_into(&b, out, true));
    // Mean over both batches = 4.5.
    assert!((block.mean[0] - 4.5).abs() < 1e-5, "mean {}", block.mean[0]);
}

#[test]
fn hw_inv_norm_heals_global_scale_at_block_level() {
    let mut r = rng();
    let mut block = HwInvNorm {
        gamma: vec![1.3, 0.7, 1.1, 0.9],
        beta: vec![0.1, -0.2, 0.0, 0.3],
        modules: None,
        local: OpCounter::new(),
        abuf: Vec::new(),
    };
    let x = Tensor::from_fn(&[2, 4], |i| (i as f32 * 0.61).cos());
    let y1 = run(|out| block.forward_into(&x, out, false, &mut r));
    let scaled = &x * 1.7;
    let y2 = run(|out| block.forward_into(&scaled, out, false, &mut r));
    // β breaks exact invariance, but the output must stay close.
    let diff = (&y1 - &y2).map(f32::abs).max();
    assert!(diff < 0.35, "inverted norm should largely absorb a 1.7× drift: {diff}");
    // Pure-affine case (β = 0) is exactly invariant.
    let mut pure = HwInvNorm {
        gamma: vec![1.3, 0.7, 1.1, 0.9],
        beta: vec![0.0; 4],
        modules: None,
        local: OpCounter::new(),
        abuf: Vec::new(),
    };
    let z1 = run(|out| pure.forward_into(&x, out, false, &mut r));
    let z2 = run(|out| pure.forward_into(&scaled, out, false, &mut r));
    assert!((&z1 - &z2).map(f32::abs).max() < 1e-4);
}

#[test]
fn hw_dropout_scale_identity_when_dropped() {
    let mut r = rng();
    // p ≈ 1 → always dropped.
    let module = ScaleDropModule::new(0.999, 3, VariedParams::ideal(), &mut r);
    let mut block = HwDropout::Scale {
        module,
        scale: vec![5.0, 5.0, 5.0],
        local: OpCounter::new(),
    };
    let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
    let mut identity_seen = false;
    for _ in 0..20 {
        if run(|out| block.forward_into(&x, out, true, &mut r)) == x {
            identity_seen = true;
            break;
        }
    }
    assert!(identity_seen);
}

#[test]
fn hw_dropout_per_neuron_counts_bits() {
    let mut r = rng();
    let modules: Vec<SpinDropModule> =
        (0..6).map(|_| SpinDropModule::new(0.3, VariedParams::ideal(), &mut r)).collect();
    let mut block = HwDropout::PerNeuron { modules, p: 0.3 };
    let x = Tensor::ones(&[2, 6]);
    let _ = run(|out| block.forward_into(&x, out, true, &mut r));
    assert_eq!(block.counter().rng_bits, 12, "6 modules × 2 samples");
    // Non-stochastic pass consumes nothing.
    let y = run(|out| block.forward_into(&x, out, false, &mut r));
    assert_eq!(y, x);
    assert_eq!(block.counter().rng_bits, 12);
}

#[test]
fn hw_digital_fc_matches_matmul() {
    let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
    let mut block = HwDigitalFc {
        weight: w,
        bias: vec![0.5, -0.5],
        local: OpCounter::new(),
        weight_t: Tensor::default(),
    };
    let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
    let y = run(|out| block.forward_into(&x, out));
    assert_eq!(y.as_slice(), &[3.5, 6.5]);
}
