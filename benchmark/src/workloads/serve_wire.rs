//! `serve_wire` — **open loop**: seeded Poisson arrivals at 2 000 requests a
//! second over one pipelined `WireClient` connection (a sender and a reader
//! thread) against a loopback `WireServer`.
//!
//! Why: wire → scheduler → dispatcher → repository hit → kernel → wire with
//! small GEMMs, so the frame codec, the reactor and the batcher dominate and
//! the kernel does little. It is the bypass workload for kernel changes and
//! the exercising workload for front-end, scheduler and stats changes.
//! Every request is timed from the instant it was *due*, so a stall shows in
//! the latency of the requests queued behind it.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dsstc_serve::net::frame::{decode_frame, encode_request_into, encode_response_into};
use dsstc_serve::{
    DeviceDispatcher, DevicePool, DispatchPolicy, InferRequest, InferResponse, InferenceServer,
    ModelId, ModelRepository, PoissonArrivals, Priority, ServeConfig, Stage, WireClient,
    WireServer,
};
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, SparsityPattern};

use crate::harness::{
    bits_equal, end_to_end, out_dir, sub_seed, Budget, EndToEnd, Phase, Refusal, Windows,
};
use crate::report::Traced;
use crate::stats::{median, p50, percentile, percentile_of, sorted};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{repeat_setup, RunConfig};

const PROXY_DIM: usize = 64;
const ROWS: usize = 4;
const FEATURE_SPARSITY: f64 = 0.4;
/// Distinct requests per run, cycled.
const POOL: usize = 256;
/// Offered load, requests per second.
const RATE_RPS: f64 = 2000.0;
const MAX_BATCH: usize = 8;
const MAX_QUEUE_WAIT: Duration = Duration::from_millis(2);
/// Requests of the warm-up that `setup_s` includes (at the offered rate).
const WARMUP_REQUESTS: u64 = 1000;
/// Latency limit of `slo_met_share` and of `ops_per_s`.
const LIMIT_MS: f64 = 10.0;
/// How long after the last send the reader waits for stragglers.
const GRACE: Duration = Duration::from_secs(10);
/// The load generator must not run later than this at p95.
const MAX_LATE_MS_P95: f64 = 1.0;
/// Length of the informational in-process saturation probe.
const CLOSED_LOOP_SECONDS: f64 = 1.5;

/// `serve_throughput`'s `request_for` stream: 4 x 64 features, 40 % sparse,
/// ResNet-50 and BERT alternating, one request in four `High`.
fn request_for(seed: u64, i: u64) -> InferRequest {
    let model = if i.is_multiple_of(2) { ModelId::ResNet50 } else { ModelId::BertBase };
    let priority = if i.is_multiple_of(4) { Priority::High } else { Priority::Normal };
    let features = Matrix::random_sparse(
        ROWS,
        PROXY_DIM,
        FEATURE_SPARSITY,
        SparsityPattern::Uniform,
        sub_seed(seed, 8, i),
    );
    InferRequest::new(model, features).with_priority(priority)
}

/// One device and worker, one reactor, serial GEMMs; every other field is
/// the default.
fn server_config() -> ServeConfig {
    ServeConfig::default()
        .with_workers(1)
        .with_reactors(1)
        .with_execute_threads(1)
        .with_proxy_dim(PROXY_DIM)
        .with_max_batch(MAX_BATCH)
        .with_max_queue_wait(MAX_QUEUE_WAIT)
}

/// Due times of the arrival schedule, as offsets from the phase start.
pub fn schedule(seed: u64, budget: Budget) -> Vec<Duration> {
    let mut arrivals = PoissonArrivals::new(RATE_RPS, seed);
    let mut due = Duration::ZERO;
    let mut offsets = Vec::new();
    loop {
        due += arrivals.next_gap();
        let done = match budget {
            Budget::Seconds(s) => due.as_secs_f64() > s,
            Budget::Ops(n) => offsets.len() as u64 >= n,
        };
        if done {
            return offsets;
        }
        offsets.push(due);
    }
}

/// The sending half of a transport; runs on the sender thread.
trait SendHalf: Send {
    /// Sends pooled request `pool_index`.
    fn send(&mut self, pool_index: usize);
    /// Called when responses are still missing [`GRACE`] after the last
    /// send, to unblock a receiver that cannot time out by itself.
    fn abandon(&mut self) {}
}

/// One response as the receiving half saw it.
struct Received {
    /// Position in the schedule of the request this answers.
    index: usize,
    output: Option<Matrix>,
}

/// What the open-loop driver observed beyond the [`Phase`].
struct OpenLoop {
    phase: Phase,
    /// Per scheduled request: how late its send started, ms.
    late_ms: Vec<f64>,
    /// Per scheduled request: due, send start, send end, response arrival.
    stamps: Vec<(Instant, Instant, Instant, Option<Instant>)>,
}

/// Offers `schedule` to a transport from a sender thread while the calling
/// thread receives, verifies and times the responses.
fn open_loop(
    schedule: &[Duration],
    expected: Option<&[Matrix]>,
    sender: &mut dyn SendHalf,
    mut receive: impl FnMut() -> Option<Received>,
    seconds: Option<f64>,
) -> OpenLoop {
    let total = schedule.len();
    let received_count = AtomicU64::new(0);
    let mut phase = Phase { attempted: total as u64, ..Phase::default() };
    let mut windows = seconds.map(Windows::new);
    let mut arrived: Vec<Option<Instant>> = vec![None; total];
    let cpu_before = sys::process_cpu_seconds();
    let start = Instant::now() + Duration::from_millis(2);
    let sends = std::thread::scope(|scope| {
        let received_count = &received_count;
        let sending = scope.spawn(move || {
            let mut sends = Vec::with_capacity(total);
            for (index, &due) in schedule.iter().enumerate() {
                // Sleep, never spin: `dsstc_serve::pace_until` busy-waits
                // the last 200 us before each due time, which at this rate
                // keeps a third of one of the two cores spinning and made
                // the server's own numbers depend on where the scheduler
                // put it. A sleeping generator runs ~0.1 ms late instead,
                // which `loadgen.late_ms_p95` reports and every latency
                // (timed from the due instant) includes.
                std::thread::sleep((start + due).saturating_duration_since(Instant::now()));
                let send_start = Instant::now();
                sender.send(index % POOL);
                sends.push((send_start, Instant::now()));
            }
            let give_up = Instant::now() + GRACE;
            while received_count.load(Ordering::Acquire) < total as u64 {
                if Instant::now() >= give_up {
                    sender.abandon();
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            sends
        });
        let mut ok = 0u64;
        for _ in 0..total {
            let Some(response) = receive() else { break };
            let now = Instant::now();
            received_count.fetch_add(1, Ordering::Release);
            let index = response.index;
            if index >= total || arrived[index].is_some() {
                continue; // unknown or duplicate id: counted as missing below
            }
            arrived[index] = Some(now);
            let correct = match (&response.output, expected) {
                (Some(output), Some(expected)) => {
                    bits_equal(output.as_slice(), expected[index % POOL].as_slice())
                }
                (Some(_), None) => true,
                (None, _) => false,
            };
            if !correct {
                continue;
            }
            ok += 1;
            let ms = now.saturating_duration_since(start + schedule[index]).as_secs_f64() * 1e3;
            phase.lat_ms.push(ms);
            let within_limit = ms <= LIMIT_MS;
            phase.within_limit += u64::from(within_limit);
            if let Some(windows) = windows.as_mut() {
                let offset_s = now.saturating_duration_since(start).as_secs_f64();
                windows.record(offset_s, ms, within_limit, within_limit);
            }
        }
        // Lets the sender thread stop waiting if responses went missing.
        received_count.store(total as u64, Ordering::Release);
        phase.failed = total as u64 - ok;
        sending.join().expect("sender thread")
    });
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.cpu_s = sys::process_cpu_seconds() - cpu_before;
    if let Some(windows) = windows {
        windows.finish(&mut phase);
    }
    let stamps: Vec<_> = schedule
        .iter()
        .zip(&sends)
        .zip(&arrived)
        .map(|((&due, &(send_start, send_end)), &arrived)| {
            (start + due, send_start, send_end, arrived)
        })
        .collect();
    let late_ms = stamps
        .iter()
        .map(|(due, send_start, _, _)| {
            send_start.saturating_duration_since(*due).as_secs_f64() * 1e3
        })
        .collect();
    OpenLoop { phase, late_ms, stamps }
}

/// The wire transport's sending half: one pipelined connection.
struct WireSender<'a> {
    client: &'a mut WireClient,
    pool: &'a [InferRequest],
}

impl SendHalf for WireSender<'_> {
    fn send(&mut self, pool_index: usize) {
        // A failed send leaves its response missing, which counts as failed.
        let _ = self.client.send(&self.pool[pool_index]);
    }

    fn abandon(&mut self) {
        // Half-close: the server answers what it has and closes, which ends
        // the reader's blocking `recv`.
        let _ = self.client.finish_sending();
    }
}

/// The in-process transport's sending half: `InferenceServer::submit_with`
/// into one shared completion channel.
struct InprocSender<'a> {
    server: &'a InferenceServer,
    pool: &'a [InferRequest],
    completions: mpsc::Sender<InferResponse>,
}

impl SendHalf for InprocSender<'_> {
    fn send(&mut self, pool_index: usize) {
        let _ = self.server.submit_with(self.pool[pool_index].clone(), self.completions.clone());
    }
}

struct State {
    // Clients first: they close before the server drains on drop.
    sender: WireClient,
    reader: WireClient,
    server: WireServer,
    pool: Vec<InferRequest>,
    /// Requests sent on `sender` so far; the next request's wire id.
    sent: u64,
}

impl State {
    /// Request-pool generation, server start, both models' prune + encode,
    /// the connection, and the warm-up requests at the offered rate.
    fn setup(seed: u64) -> State {
        let pool: Vec<InferRequest> = (0..POOL as u64).map(|i| request_for(seed, i)).collect();
        let server = WireServer::start(server_config()).expect("bind a loopback listener");
        for model in [ModelId::ResNet50, ModelId::BertBase] {
            server.server().warm_model(model, None);
        }
        let sender =
            WireClient::connect(server.local_addr()).expect("connect to the loopback server");
        let reader = sender.try_clone().expect("clone the connection for the reader");
        let mut state = State { sender, reader, server, pool, sent: 0 };
        let warmup = schedule(sub_seed(seed, 9, 0), Budget::Ops(WARMUP_REQUESTS));
        state.offer(&warmup, None, None);
        state
    }

    /// Offers `schedule` over the wire.
    fn offer(
        &mut self,
        schedule: &[Duration],
        expected: Option<&[Matrix]>,
        seconds: Option<f64>,
    ) -> OpenLoop {
        let base = self.sent;
        self.sent += schedule.len() as u64;
        let reader = &mut self.reader;
        let mut sender = WireSender { client: &mut self.sender, pool: &self.pool };
        open_loop(
            schedule,
            expected,
            &mut sender,
            || {
                let frame = reader.recv().ok()?;
                Some(Received {
                    index: frame.id.wrapping_sub(base) as usize,
                    output: frame.into_body().ok().map(|body| body.output),
                })
            },
            seconds,
        )
    }

    /// Every pooled request's output from an in-process `forward` on a
    /// repository of the harness's own — what the wire must return bit for
    /// bit, however the server batched the request.
    fn expected(&self, doctor: bool) -> Vec<Matrix> {
        let repository = ModelRepository::new(GpuConfig::v100(), PROXY_DIM);
        let mut expected: Vec<Matrix> = self
            .pool
            .iter()
            .map(|request| {
                repository.get(request.key()).forward(repository.kernel(), &request.features)
            })
            .collect();
        if doctor {
            crate::workloads::doctor(&mut expected);
        }
        expected
    }

    /// The sizing guards of an open-loop phase.
    fn check_sizing(&self, config: &RunConfig, run: &OpenLoop) -> Result<(), Refusal> {
        let late_p95 = percentile_of(&run.late_ms, 0.95);
        if late_p95 > MAX_LATE_MS_P95 {
            config.sizing_guard(format!(
                "the load generator ran late (p95 {late_p95:.3} ms > {MAX_LATE_MS_P95} ms); \
                 latencies, timed from the due instant, include the generator's delay"
            ))?;
        }
        let shed = self.server.stats().total_shed() + self.server.wire_stats().shed_total();
        if shed > 0 {
            config.sizing_guard(format!("{shed} requests were shed at the nominal rate"))?;
        }
        Ok(())
    }
}

pub fn measure(config: RunConfig) -> Result<EndToEnd, Refusal> {
    let (mut state, setup_s) = repeat_setup(|| State::setup(config.seed));
    let expected = state.expected(config.doctor_expected);
    let schedule = schedule(sub_seed(config.seed, 10, 0), Budget::Seconds(config.seconds));
    let run = state.offer(&schedule, Some(&expected), Some(config.seconds));
    if run.phase.failed == 0 {
        state.check_sizing(&config, &run)?;
    }
    end_to_end(&run.phase, &setup_s, &config)
}

/// Median µs per item of `f` over `reps` timed batches of `items` calls.
fn per_item_us(reps: usize, items: usize, mut f: impl FnMut(usize)) -> f64 {
    p50((0..reps)
        .map(|_| {
            let started = Instant::now();
            (0..items).for_each(&mut f);
            started.elapsed().as_secs_f64() * 1e6 / items as f64
        })
        .collect())
}

pub fn traced(config: RunConfig) -> Result<Traced, Refusal> {
    let mut state = State::setup(config.seed);
    let expected = state.expected(config.doctor_expected);
    let ops = config.traced_ops(RATE_RPS);

    // Untraced reference for the tracing overhead, same request count.
    let plain_schedule = schedule(sub_seed(config.seed, 11, 0), Budget::Ops(ops));
    let plain = state.offer(&plain_schedule, Some(&expected), None);

    let wire_before = state.server.wire_stats();
    let traced_schedule = schedule(sub_seed(config.seed, 12, 0), Budget::Ops(ops));
    let spanned = state.offer(&traced_schedule, Some(&expected), None);
    let wire_after = state.server.wire_stats();
    state.check_sizing(&config, &spanned)?;

    let mut tracer = Tracer::new(spanned.stamps[0].0);
    for (i, &(due, send_start, send_end, arrived)) in spanned.stamps.iter().enumerate() {
        let Some(arrived) = arrived else { continue };
        let op = tracer.record("op", due, arrived, None, i as u64);
        tracer.record("serve.net.client.send", send_start, send_end, Some(op), i as u64);
    }
    tracer
        .write_chrome_trace(&out_dir().join("trace_serve_wire.json"))
        .map_err(|e| Refusal(format!("cannot write the chrome trace: {e}")))?;

    let wire_p50 = percentile_of(&spanned.phase.lat_ms, 0.5);
    let mut traced = Traced::new(
        plain.phase.attempted + spanned.phase.attempted,
        plain.phase.failed + spanned.phase.failed,
    );
    traced.set("trace.overhead_share", wire_p50 / percentile_of(&plain.phase.lat_ms, 0.5) - 1.0);
    traced.set("loadgen.late_ms_p95", percentile_of(&spanned.late_ms, 0.95));
    traced.set("serve.net.client.send_us_p50", p50(tracer.durations_us("serve.net.client.send")));
    let wire_bytes = (wire_after.bytes_received - wire_before.bytes_received)
        + (wire_after.bytes_sent - wire_before.bytes_sent);
    traced.set("serve.net.bytes_per_op", wire_bytes as f64 / ops as f64);

    // The program's own stage trace against the client's wall clock, over
    // the most recent requests the trace ring still holds.
    let stage_sums: Vec<f64> = state
        .server
        .server()
        .telemetry()
        .sink()
        .recent()
        .iter()
        .filter_map(|t| t.span_us(Stage::WireDecoded, Stage::WireFlushed))
        .map(|us| us as f64)
        .collect();
    let client_walls: Vec<f64> = spanned
        .stamps
        .iter()
        .rev()
        .take(stage_sums.len())
        .filter_map(|&(_, send_start, _, arrived)| {
            Some(arrived?.saturating_duration_since(send_start).as_secs_f64() * 1e6)
        })
        .collect();
    if stage_sums.is_empty() || client_walls.is_empty() {
        return Err(Refusal("the server recorded no complete wire trace".to_string()));
    }
    traced.set("serve.trace.span_sum_over_wall", median(&stage_sums) / median(&client_walls));

    let stats = state.server.stats();
    traced.set("serve.batcher.queue_ms_p50", stats.queue_p50_us / 1e3);
    traced.set("serve.batcher.mean_batch", stats.mean_batch_size);
    traced.set("serve.batcher.batches", stats.executed_batches as f64);
    traced.set("serve.worker.execute_ms_p50", stats.execute_p50_us / 1e3);
    traced.set("serve.repository.hit_rate", stats.encode_hit_rate);
    traced.set(
        "serve.admission.shed",
        (stats.total_shed() + state.server.wire_stats().shed_total()) as f64,
    );

    // The same schedule through `InferenceServer::submit_with`, no wire.
    let inproc_server = InferenceServer::start(server_config());
    for model in [ModelId::ResNet50, ModelId::BertBase] {
        inproc_server.warm_model(model, None);
    }
    let (completions, completed) = mpsc::channel::<InferResponse>();
    let mut responses: Vec<InferResponse> = Vec::with_capacity(POOL);
    let inproc = {
        let mut sender = InprocSender {
            server: &inproc_server,
            pool: &state.pool,
            completions: completions.clone(),
        };
        open_loop(
            &traced_schedule,
            Some(&expected),
            &mut sender,
            || {
                let response = completed.recv_timeout(GRACE).ok()?;
                // Server ids count submissions from 0 and there is one submitter.
                let received =
                    Received { index: response.id as usize, output: Some(response.output.clone()) };
                if responses.len() < POOL {
                    responses.push(response);
                }
                Some(received)
            },
            None,
        )
    };
    let inproc_lat = sorted(inproc.phase.lat_ms.clone());
    traced.attempted += inproc.phase.attempted;
    traced.failed += inproc.phase.failed;
    traced.set("serve.server.inproc_ms_p50", percentile(&inproc_lat, 0.5));
    traced.set("serve.server.inproc_ms_p95", percentile(&inproc_lat, 0.95));
    traced.set("serve.net.overhead_ms_p50", wire_p50 - percentile(&inproc_lat, 0.5));

    // Informational: in-process saturation with two closed-loop callers.
    let deadline = Instant::now() + Duration::from_secs_f64(CLOSED_LOOP_SECONDS);
    let completed_ops: u64 = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..2usize)
            .map(|caller| {
                let (server, pool) = (&inproc_server, &state.pool);
                scope.spawn(move || {
                    let mut done = 0u64;
                    while Instant::now() < deadline {
                        let request = pool[(caller + 2 * done as usize) % POOL].clone();
                        if server.infer(request).is_ok() {
                            done += 1;
                        }
                    }
                    done
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().expect("closed-loop caller")).sum()
    });
    traced.set("serve.server.closed_loop_ops_per_s", completed_ops as f64 / CLOSED_LOOP_SECONDS);
    drop(inproc_server);

    // The public codec functions on this workload's own frames.
    let max_frame_len = server_config().max_frame_len;
    let mut buffer = Vec::new();
    let request_frames: Vec<Vec<u8>> = state
        .pool
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let mut bytes = Vec::new();
            encode_request_into(&mut bytes, i as u64, request);
            bytes
        })
        .collect();
    let response_frames: Vec<Vec<u8>> = responses
        .iter()
        .map(|response| {
            let mut bytes = Vec::new();
            encode_response_into(&mut bytes, response.id, response);
            bytes
        })
        .collect();
    if response_frames.is_empty() {
        return Err(Refusal("the in-process replay returned no response".to_string()));
    }
    traced.set(
        "serve.net.frame.encode_request_us",
        per_item_us(200, POOL, |i| {
            buffer.clear();
            encode_request_into(&mut buffer, i as u64, &state.pool[i]);
            black_box(&buffer);
        }),
    );
    traced.set(
        "serve.net.frame.decode_request_us",
        per_item_us(200, POOL, |i| {
            black_box(decode_frame(&request_frames[i], max_frame_len).expect("own frame decodes"));
        }),
    );
    traced.set(
        "serve.net.frame.encode_response_us",
        per_item_us(200, responses.len(), |i| {
            buffer.clear();
            encode_response_into(&mut buffer, responses[i].id, &responses[i]);
            black_box(&buffer);
        }),
    );
    traced.set(
        "serve.net.frame.decode_response_us",
        per_item_us(200, responses.len(), |i| {
            black_box(
                decode_frame(&response_frames[i], max_frame_len + 64).expect("own frame decodes"),
            );
        }),
    );

    // The dispatcher's batch-to-device decision, standalone.
    let dispatcher = DeviceDispatcher::new(
        &DevicePool::homogeneous(GpuConfig::v100(), 1),
        DispatchPolicy::MinCompletionTime,
    );
    let key = state.pool[0].key();
    traced.set(
        "serve.dispatch.assign_us_p50",
        per_item_us(200, 16, |_| {
            black_box(dispatcher.assign(key, MAX_BATCH));
        }),
    );
    Ok(traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let a = schedule(3, Budget::Ops(500));
        assert_eq!(a, schedule(3, Budget::Ops(500)));
        assert_ne!(a, schedule(4, Budget::Ops(500)));
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times never go back");
    }

    #[test]
    fn timed_schedule_offers_the_nominal_rate() {
        let offsets = schedule(1, Budget::Seconds(5.0));
        let expected = RATE_RPS * 5.0;
        assert!((offsets.len() as f64 - expected).abs() < 0.05 * expected);
        assert!(offsets.last().expect("non-empty").as_secs_f64() <= 5.0);
    }

    #[test]
    fn request_stream_follows_serve_throughputs_mix() {
        let requests: Vec<InferRequest> = (0..8).map(|i| request_for(1, i)).collect();
        assert_eq!(requests[0].model, ModelId::ResNet50);
        assert_eq!(requests[1].model, ModelId::BertBase);
        assert_eq!(requests.iter().filter(|r| r.priority == Priority::High).count(), 2);
        assert_eq!(requests[0].features.rows(), ROWS);
        assert_eq!(requests[0].features.cols(), PROXY_DIM);
        assert_ne!(request_for(1, 0).features, request_for(2, 0).features);
    }
}
