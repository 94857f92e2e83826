//! Wire-codec hot-path benches: pipelined-burst decode through the
//! [`FrameDecoder`] read-offset cursor, and in-place request encode.
//!
//! The decode group is the satellite proof for the PR that removed the
//! O(buffer) `drain(..consumed)` memmove per frame: a burst of pipelined
//! frames fed in one `feed` used to pay a quadratic total memmove, the
//! cursor makes the same burst linear (compaction only when the consumed
//! prefix exceeds half the buffer).
//!
//! Linux-only, like `dsstc_serve::net` itself.

#[cfg(target_os = "linux")]
mod linux {
    use criterion::{criterion_group, BenchmarkId, Criterion};
    use dsstc_serve::net::{encode_request_into, FrameDecoder};
    use dsstc_serve::{InferRequest, ModelId, ServeConfig};
    use dsstc_tensor::{Matrix, SparsityPattern};
    use std::hint::black_box;

    const PROXY_DIM: usize = 64;

    fn request(seed: u64) -> InferRequest {
        let features = Matrix::random_sparse(2, PROXY_DIM, 0.4, SparsityPattern::Uniform, seed);
        InferRequest::new(ModelId::RnnLm, features)
    }

    /// One wire burst: `frames` pipelined request frames, back to back, as
    /// a client that pipelines without waiting would put them on the
    /// socket.
    fn burst(frames: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        for seed in 0..frames {
            encode_request_into(&mut bytes, seed, &request(seed));
        }
        bytes
    }

    fn bench_pipelined_burst_decode(c: &mut Criterion) {
        let max_frame_len = ServeConfig::default().max_frame_len;
        let mut group = c.benchmark_group("wire_pipelined_burst_decode");
        for frames in [16u64, 64, 256] {
            let bytes = burst(frames);
            group.bench_with_input(BenchmarkId::from_parameter(frames), &bytes, |b, bytes| {
                b.iter(|| {
                    let mut decoder = FrameDecoder::new(max_frame_len);
                    decoder.feed(bytes);
                    let mut decoded = 0u64;
                    while let Some(frame) = decoder.next_frame().expect("well-formed burst") {
                        black_box(&frame);
                        decoded += 1;
                    }
                    assert_eq!(decoded, frames);
                });
            });
        }
        group.finish();
    }

    fn bench_request_encode_into(c: &mut Criterion) {
        let req = request(7);
        let mut group = c.benchmark_group("wire_request_encode");
        // Serialise straight from the borrowed request into a reused buffer.
        group.bench_function("encode_into_reused_buffer", |b| {
            let mut out = Vec::new();
            b.iter(|| {
                out.clear();
                encode_request_into(&mut out, 1, &req);
                black_box(out.len());
            });
        });
        group.finish();
    }

    criterion_group!(benches, bench_pipelined_burst_decode, bench_request_encode_into);
}

#[cfg(target_os = "linux")]
criterion::criterion_main!(linux::benches);

#[cfg(not(target_os = "linux"))]
fn main() {}
