//! Regenerates **Table III**: normalised im2col time of the dense, CSR and
//! bitmap encodings on the ResNet-18 convolution layer (feature map 56x56,
//! 3x3 filter, 128 in/out channels) across feature-map sparsity ratios.
//!
//! Like the paper's Table III (measured on the PyTorch ATen CPU kernels),
//! this is a *software* micro-benchmark: the three Rust implementations are
//! timed directly and normalised to the dense case.
//!
//! Run with `cargo run --release -p dsstc-bench --bin table3_im2col`.

#![deny(unsafe_code)]

use dsstc_bench::time_min_ms;
use dsstc_kernels::im2col::{BitmapIm2col, CsrIm2col, DenseIm2col};
use dsstc_models::activation_feature_map;
use dsstc_tensor::ConvShape;

fn main() {
    // Table III's layer: H/W = 56, filter 3x3, 128 channels in and out.
    let shape = ConvShape::square(56, 128, 128, 3, 1, 1);
    let sparsities = [0.0, 0.25, 0.50, 0.75, 0.99, 0.999];
    let repeats = 3;

    println!("Table III: normalised im2col time (ResNet-18 layer: 56x56, 3x3, 128 channels)");
    println!("{:<18}{:>12}{:>12}{:>12}", "Sparsity (%)", "Dense", "CSR", "Bitmap");

    for &sparsity in &sparsities {
        let input = activation_feature_map(&shape, sparsity, 42);

        let dense = DenseIm2col::new();
        let dense_ms = time_min_ms(repeats, || {
            std::hint::black_box(dense.lower(&input, &shape));
        });

        let csr = CsrIm2col::new();
        let csr_encoded = csr.encode(&input);
        let csr_ms = time_min_ms(repeats, || {
            std::hint::black_box(csr.lower(&csr_encoded, &shape));
        });

        let bitmap = BitmapIm2col::new();
        let bitmap_encoded = bitmap.encode(&input);
        let bitmap_ms = time_min_ms(repeats, || {
            std::hint::black_box(bitmap.lower(&bitmap_encoded, &shape));
        });

        println!(
            "{:<18}{:>12.2}{:>12.2}{:>12.2}",
            format!("{:.1}", sparsity * 100.0),
            1.0,
            csr_ms / dense_ms,
            bitmap_ms / dense_ms,
        );
    }
    println!();
    println!(
        "(paper Table III reference: CSR 101.3 / 45.2 / 1.2 and Bitmap 8.31 / 4.73 / 1.1 at 0% / 50% / 99.9%)"
    );
}
