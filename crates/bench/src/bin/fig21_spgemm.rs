//! Regenerates **Figure 21**: SpGEMM execution time on a 4096x4096x4096
//! problem as matrix A's sparsity sweeps from 0 % to 99.9 %, for several
//! matrix B sparsities, compared against the CUTLASS dense baseline, the
//! fixed-ratio single-side Sparse Tensor Core, and a cuSparse-style CSR
//! SpGEMM.
//!
//! With `--bench-json PATH` the sweep also **measures** the functional
//! kernel on the host — the retained scalar reference against the
//! word-parallel execution path, plus the serve hot path
//! (encode-A + execute, the per-batch work of a `dsstc-serve` worker) —
//! asserts the two paths agree bit for bit, and writes everything as
//! machine-readable JSON (schema `dsstc.bench.kernels/1`, documented in
//! `docs/OBSERVABILITY.md`) so CI can track a kernel perf trajectory per
//! commit.
//!
//! Run with `cargo run --release -p dsstc-bench --bin fig21_spgemm`.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::time::Instant;

use dsstc::DualSideSparseTensorCore;
use dsstc_formats::CsrMatrix;
use dsstc_kernels::bitmap_spgemm::BitmapSpGemm;
use dsstc_kernels::csr_spgemm::CsrSpGemm;
use dsstc_sim::GpuConfig;
use dsstc_tensor::{GemmShape, Matrix, SparsityPattern};

const USAGE: &str = "usage: fig21_spgemm [--bench-json PATH]

  (no flags)           print the modelled Figure 21 sweep
  --bench-json PATH    also measure the functional kernel (scalar reference
                       vs word-parallel path, plus the serve hot path) and
                       write the sweep as machine-readable JSON
                       (schema dsstc.bench.kernels/1; see
                       docs/OBSERVABILITY.md)
  --help               this text";

/// Wall-clock best-of-`runs` of `f`, in microseconds (the minimum is the
/// standard noise-robust statistic for a deterministic kernel).
fn best_of_us<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..runs)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// One modelled sweep cell.
struct ModelledCell {
    a_sparsity: f64,
    b_sparsity: f64,
    modelled_us: f64,
    speedup_vs_dense: f64,
}

/// One measured scalar-vs-word cell of the functional kernel.
struct MeasuredCell {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    a_sparsity: f64,
    b_sparsity: f64,
    /// Encode-A wall time (the per-batch encode a serve worker pays);
    /// 0 for pure-execute cells, where only the execution path differs.
    encode_us: f64,
    /// Scalar-reference execution time over pre-built encodings.
    scalar_us: f64,
    /// Word-parallel execution time over the same encodings.
    word_us: f64,
    /// `(encode + scalar) / (encode + word)` — the speedup of the full
    /// measured chain (for pure-execute cells this is scalar/word).
    speedup: f64,
    /// Whether the two paths produced identical bits (asserted too).
    bit_identical: bool,
}

/// Measures one cell: encodes once, times both execution paths over the
/// same encodings, and proves them bit-identical.
fn measure_cell(
    name: &'static str,
    (m, k, n): (usize, usize, usize),
    a_sparsity: f64,
    b_sparsity: f64,
    with_encode: bool,
    runs: usize,
) -> MeasuredCell {
    let kernel = BitmapSpGemm::new(GpuConfig::v100());
    let a = Matrix::random_sparse(m, k, a_sparsity, SparsityPattern::Uniform, 21);
    let b = Matrix::random_sparse(k, n, b_sparsity, SparsityPattern::Uniform, 42);
    let a_enc = kernel.encode_a(&a);
    let b_enc = kernel.encode_b(&b);
    let word = kernel.execute_encoded(&a_enc, &b_enc);
    let scalar = kernel.execute_encoded_scalar(&a_enc, &b_enc);
    let bit_identical = word == scalar;
    assert!(bit_identical, "{name}: word path diverged from the scalar reference");
    let encode_us = if with_encode { best_of_us(runs, || kernel.encode_a(&a)) } else { 0.0 };
    let scalar_us = best_of_us(runs, || kernel.execute_encoded_scalar(&a_enc, &b_enc));
    let word_us = best_of_us(runs, || kernel.execute_encoded(&a_enc, &b_enc));
    MeasuredCell {
        name,
        m,
        k,
        n,
        a_sparsity,
        b_sparsity,
        encode_us,
        scalar_us,
        word_us,
        speedup: (encode_us + scalar_us) / (encode_us + word_us),
        bit_identical,
    }
}

/// The measured half of the bench: three fig21-sweep cells at a
/// host-tractable 512^3 plus the serve hot path (per-batch encode-A +
/// execute at the serving proxy shape, weights resident).
fn measure_kernels() -> Vec<MeasuredCell> {
    const RUNS: usize = 5;
    println!("measured functional kernel (best of {RUNS}, host wall-clock):");
    println!(
        "{:<18} {:>16} {:>12} {:>12} {:>12} {:>10}",
        "cell", "shape", "scalar us", "word us", "encode us", "speedup"
    );
    let cells = vec![
        measure_cell("fig21_a50_b50", (512, 512, 512), 0.50, 0.50, false, RUNS),
        measure_cell("fig21_a90_b90", (512, 512, 512), 0.90, 0.90, false, RUNS),
        measure_cell("fig21_a75_b99", (512, 512, 512), 0.75, 0.99, false, RUNS),
        measure_cell("serve_hot_path", (256, 64, 64), 0.40, 0.80, true, RUNS),
    ];
    for cell in &cells {
        println!(
            "{:<18} {:>16} {:>12.1} {:>12.1} {:>12.1} {:>10}",
            cell.name,
            format!("{}x{}x{}", cell.m, cell.k, cell.n),
            cell.scalar_us,
            cell.word_us,
            cell.encode_us,
            format!("{:.2}x", cell.speedup),
        );
    }
    println!();
    cells
}

/// A finite float for JSON (`NaN`/`inf` have no JSON encoding → `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Writes the modelled sweep + measured cells as `dsstc.bench.kernels/1`
/// JSON (documented in `docs/OBSERVABILITY.md`).
fn write_bench_json(
    path: &PathBuf,
    shape: GemmShape,
    dense_us: f64,
    vector_us: f64,
    modelled: &[ModelledCell],
    measured: &[MeasuredCell],
) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"dsstc.bench.kernels/1\",\n");
    out.push_str("  \"modelled\": {\n");
    out.push_str(&format!(
        "    \"shape\": {{\"m\": {}, \"k\": {}, \"n\": {}}},\n",
        shape.m, shape.k, shape.n
    ));
    out.push_str(&format!("    \"dense_baseline_us\": {},\n", json_f64(dense_us)));
    out.push_str(&format!("    \"vector_sparse_us\": {},\n", json_f64(vector_us)));
    out.push_str("    \"cells\": [\n");
    for (i, cell) in modelled.iter().enumerate() {
        let comma = if i + 1 < modelled.len() { "," } else { "" };
        out.push_str(&format!(
            "      {{\"a_sparsity\": {}, \"b_sparsity\": {}, \"modelled_us\": {}, \
             \"speedup_vs_dense\": {}}}{comma}\n",
            json_f64(cell.a_sparsity),
            json_f64(cell.b_sparsity),
            json_f64(cell.modelled_us),
            json_f64(cell.speedup_vs_dense),
        ));
    }
    out.push_str("    ]\n  },\n");
    out.push_str("  \"measured\": {\n    \"runs_per_cell\": 5,\n    \"cells\": [\n");
    for (i, cell) in measured.iter().enumerate() {
        let comma = if i + 1 < measured.len() { "," } else { "" };
        out.push_str(&format!(
            "      {{\"name\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"a_sparsity\": {}, \"b_sparsity\": {}, \"encode_us\": {}, \"scalar_us\": {}, \
             \"word_us\": {}, \"speedup\": {}, \"bit_identical\": {}}}{comma}\n",
            cell.name,
            cell.m,
            cell.k,
            cell.n,
            json_f64(cell.a_sparsity),
            json_f64(cell.b_sparsity),
            json_f64(cell.encode_us),
            json_f64(cell.scalar_us),
            json_f64(cell.word_us),
            json_f64(cell.speedup),
            cell.bit_identical,
        ));
    }
    out.push_str("    ]\n  }\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("fig21_spgemm: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "wrote {} ({} modelled + {} measured cells)",
        path.display(),
        modelled.len(),
        measured.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench_json: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--bench-json" => {
                bench_json = iter.next().filter(|v| !v.starts_with("--")).map(PathBuf::from);
                if bench_json.is_none() {
                    eprintln!("fig21_spgemm: --bench-json needs a file path\n\n{USAGE}");
                    std::process::exit(2);
                }
            }
            unknown => {
                eprintln!("fig21_spgemm: unknown flag {unknown}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let engine = DualSideSparseTensorCore::v100();
    let shape = GemmShape::new(4096, 4096, 4096);
    let a_sparsities = [0.0, 0.10, 0.25, 0.40, 0.50, 0.60, 0.75, 0.90, 0.95, 0.99, 0.999];
    let b_sparsities = [0.0, 0.20, 0.40, 0.60, 0.80, 0.90, 0.99, 0.999];

    // Baselines that do not depend on A's sparsity.
    let dense_us = engine.compare_schemes(shape, 0.0, 0.0).dense_us;
    let vector_us = engine.compare_schemes(shape, 0.0, 0.75).vector_sparse_us;

    println!("Figure 21: SpGEMM execution time (us), 4096x4096x4096");
    println!("CUTLASS dense baseline: {dense_us:.1} us");
    println!(
        "Sparse Tensor Core [72] (fixed 75% weight sparsity): {vector_us:.1} us ({:.2}x)",
        dense_us / vector_us
    );
    println!();

    // Our method: one curve per B sparsity.
    let mut modelled = Vec::new();
    print!("{:<16}", "A sparsity (%)");
    for &b in &b_sparsities {
        print!("{:>14}", format!("B={:.1}%", b * 100.0));
    }
    println!();
    for &a in &a_sparsities {
        print!("{:<16}", format!("{:.1}", a * 100.0));
        for &b in &b_sparsities {
            let est = engine.estimate_spgemm(shape, a, b);
            print!("{:>14}", format!("{:.1}", est.time_us()));
            modelled.push(ModelledCell {
                a_sparsity: a,
                b_sparsity: b,
                modelled_us: est.time_us(),
                speedup_vs_dense: dense_us / est.time_us(),
            });
        }
        println!();
    }
    println!();

    // Speedup over CUTLASS for the same grid.
    print!("{:<16}", "speedup vs dense");
    for &b in &b_sparsities {
        print!("{:>14}", format!("B={:.1}%", b * 100.0));
    }
    println!();
    for &a in &a_sparsities {
        print!("{:<16}", format!("{:.1}", a * 100.0));
        for &b in &b_sparsities {
            let est = engine.estimate_spgemm(shape, a, b);
            print!("{:>14}", format!("{:.2}x", dense_us / est.time_us()));
        }
        println!();
    }
    println!();

    // cuSparse curve (B fixed at 99%, A from 90%): evaluated at a reduced
    // 1024^3 size to keep CSR materialisation cheap, then scaled by the
    // dense-GEMM work ratio, matching how the paper presents it as a
    // reference curve.
    println!("cuSparse-style CSR SpGEMM (B = 99%):");
    let small_shape = GemmShape::new(1024, 1024, 1024);
    let scale = shape.macs() as f64 / small_shape.macs() as f64;
    let cusparse_kernel = CsrSpGemm::new(GpuConfig::v100());
    for &a in &[0.90, 0.95, 0.99, 0.999] {
        let a_mat = Matrix::random_sparse(1024, 1024, a, SparsityPattern::Uniform, 7);
        let b_mat = Matrix::random_sparse(1024, 1024, 0.99, SparsityPattern::Uniform, 8);
        let profile =
            cusparse_kernel.profile(&CsrMatrix::encode(&a_mat), &CsrMatrix::encode(&b_mat));
        let us = engine.timing_model().estimate(&profile).time_us() * scale;
        println!("  A={:>6.1}%  {:>10.1} us   ({:.2}x vs CUTLASS)", a * 100.0, us, dense_us / us);
    }
    println!();
    println!(
        "(paper reference points: ours 13.4x at A=0%/B=99%, 23x at A=99.9%/B=99%; \
              cuSparse only beats CUTLASS above ~95% A sparsity)"
    );

    if let Some(path) = &bench_json {
        println!();
        let measured = measure_kernels();
        write_bench_json(path, shape, dense_us, vector_us, &modelled, &measured);
    }
}
