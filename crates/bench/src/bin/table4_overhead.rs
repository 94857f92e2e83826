//! Regenerates **Table IV**: area and power overhead of the dual-side
//! sparse Tensor Core extensions on a V100 at 12 nm.
//!
//! Run with `cargo run --release -p dsstc-bench --bin table4_overhead`.

#![deny(unsafe_code)]

use dsstc_hwmodel::DsstcOverhead;

fn main() {
    let overhead = DsstcOverhead::paper_configuration();
    println!("Table IV: area and power overhead estimation (12 nm)");
    println!("{}", overhead.render_table());
    println!(
        "(paper reference: adders 0.121 mm2 / 2.35 W, operand collector 1.51 mm2 / 0.46 W, \
         accumulation buffer 11.215 mm2 / 1.08 W, total 12.846 mm2 (1.5%) / 3.89 W (1.6%))"
    );
}
