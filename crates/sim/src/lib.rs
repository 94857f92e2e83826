//! A warp/tile-granular GPU timing model standing in for Accel-Sim.
//!
//! The paper evaluates its architecture on Accel-Sim with a V100
//! configuration. A full cycle-accurate GPU simulator is far outside the
//! scope of a Rust reproduction, but the performance effects the paper
//! reports are driven by a small set of countable events:
//!
//! * how many tensor-core instructions (`HMMA`, `OHMMA`, `BOHMMA`) a kernel
//!   issues after sparsity-driven skipping,
//! * how many scalar/`POPC` operations the encoding and im2col logic costs,
//! * how many bytes move through DRAM/L2/shared memory,
//! * how many extra cycles the accumulation-buffer bank conflicts add during
//!   the sparse merge, and
//! * how much parallelism (thread blocks) is available to hide all of the
//!   above.
//!
//! Kernels in `dsstc-kernels` count those events per warp tile and hand the
//! totals to [`GpuTimingModel`], which converts them into cycles and
//! microseconds using V100-like peak rates. Because every scheme — dense
//! CUTLASS-style GEMM, cuSparse-style CSR SpGEMM, the single-side sparse
//! Tensor Core baseline, and the paper's dual-side design — is scored by the
//! same model, relative speedups (the quantity every figure of the paper
//! reports) are preserved.
//!
//! # Example
//!
//! ```
//! use dsstc_sim::{GpuConfig, GpuTimingModel, WorkloadProfile};
//!
//! let model = GpuTimingModel::new(GpuConfig::v100());
//! let mut profile = WorkloadProfile::new("toy-gemm");
//! profile.hmma_instructions = 1_000_000;
//! profile.dram_bytes_read = 64 << 20;
//! profile.thread_blocks = 1024;
//! let est = model.estimate(&profile);
//! assert!(est.time_us() > 0.0);
//! ```

#![deny(missing_docs)]

pub mod accum_buffer;
pub mod config;
pub mod engine;
pub mod isa;
pub mod otc;
pub mod stats;
pub mod tiling;

pub use crate::accum_buffer::{AccumulationBuffer, ScatterStats};
pub use crate::config::{GpuConfig, OtcConfig};
pub use crate::engine::GpuTimingModel;
pub use crate::isa::{predicate_mask, MachineInstruction, SpWmmaSet, WarpProgram};
pub use crate::otc::OtcStepCost;
pub use crate::stats::{KernelEstimate, WorkloadProfile};
pub use crate::tiling::{GemmTiling, TrafficEstimate, TrafficInputs};
