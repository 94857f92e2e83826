//! Regenerates **Figure 22**: layer-wise and full-model inference speedups
//! for VGG-16, ResNet-18, Mask R-CNN, the LSTM language model and the
//! BERT-base encoder under every execution scheme.
//!
//! CNN layers compare the five convolution schemes normalised to *Dense
//! Implicit* (cuDNN); the NLP models compare the three GEMM schemes
//! normalised to *Dense GEMM* (CUTLASS), exactly as the paper plots them.
//!
//! Run with `cargo run --release -p dsstc-bench --bin fig22_models`.

#![deny(unsafe_code)]

use dsstc::InferenceEstimator;
use dsstc_models::networks;

fn main() {
    let estimator = InferenceEstimator::v100();
    let mut dual_speedups = Vec::new();

    for network in networks::all_networks() {
        let report = estimator.estimate_network(&network);
        println!("{}", report.render_table());
        for layer in &report.layers {
            dual_speedups.push(layer.dual_side_speedup());
        }
        println!();
    }

    let min = dual_speedups.iter().cloned().fold(f64::MAX, f64::min);
    let max = dual_speedups.iter().cloned().fold(f64::MIN, f64::max);
    let mean = dual_speedups.iter().sum::<f64>() / dual_speedups.len() as f64;
    println!("Dual-side layer-wise speedup over the dense baseline: min {min:.2}x, mean {mean:.2}x, max {max:.2}x");
    println!(
        "(paper reference: 1.25x-7.49x for SpCONV, 3.62x-8.45x for SpGEMM layers, CNN average 4.38x, NLP average 6.74x)"
    );
}
