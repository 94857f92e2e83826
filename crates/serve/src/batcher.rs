//! Dynamic, SLO-aware request batching.
//!
//! Requests accumulate in per-class arrival-ordered queues (one per
//! `(model, sparsity)` key, the queues themselves in first-arrival order);
//! a worker (or the device dispatcher) asking for work receives a
//! **batch**: up to `max_batch` queued requests sharing one key. A
//! compatibility class is released as soon as it reaches `max_batch`
//! requests, when any of its members is about to miss its queue deadline
//! (the per-request SLO capped at `max_queue_wait`), or when the scheduler
//! is draining for shutdown — so latency is bounded even under trickle
//! traffic, full batches of one model never wait behind an unfull head of
//! another, and unrelated models queued behind the head cannot starve it.
//!
//! Two SLO-aware refinements over a plain FIFO batcher:
//!
//! * **release order** — when several classes are releasable, the one whose
//!   most urgent member is closest to (or furthest past) its deadline goes
//!   first, higher priority breaking ties; and
//! * **extraction order** — when a class holds more requests than fit in
//!   one batch, deadline-expired requests go first (so nobody in SLO can
//!   starve someone already past it), then higher-[`Priority`] requests,
//!   FIFO within one priority level — latency-critical traffic jumps the
//!   queue without reordering its own service class, and under saturation
//!   (everything expired) the order degrades to strict priority.
//!
//! The release decision is O(classes), not O(queued requests): every
//! aggregate it consults (member count, most urgent deadline, highest
//! priority) is maintained incrementally on enqueue/extract, so a deep
//! backlog — tens of thousands of requests flooded in by the wire
//! front-end's reactors — costs the dispatcher nothing per wake. Before
//! this, `next_batch` re-scanned the whole queue per wake and extraction
//! removed members one `O(n)` splice at a time, which capped the server
//! around 600 batches/s once the queue grew past ~10k requests.

use std::cmp::Reverse;
use std::collections::{BTreeSet, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dsstc_tensor::Matrix;

use crate::request::{InferResponse, ModelKey, Priority};
use crate::telemetry::{RequestTrace, Stage};

/// Batching policy knobs (a subset of [`crate::ServeConfig`]).
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Largest number of requests merged into one batch.
    pub max_batch: usize,
    /// How long any queued request may wait before its batch is flushed
    /// even if it is not full (also the cap on per-request SLO deadlines).
    pub max_queue_wait: Duration,
}

/// The wake-up a device worker follows its sends with when the receiver
/// sleeps in something other than `recv` on the response channel: a wire
/// reactor blocked in its epoll wait implements this on its eventfd waker.
pub(crate) trait Wake: std::fmt::Debug + Send + Sync {
    /// Makes the receiver look at its response channel.
    fn wake(&self);
}

/// One queued request with its response channel.
#[derive(Debug)]
pub(crate) struct PendingRequest {
    /// Server-assigned request id.
    pub id: u64,
    /// Encode-cache key (batch compatibility class).
    pub key: ModelKey,
    /// Scheduling priority.
    pub priority: Priority,
    /// Per-request queue-wait SLO; capped at the policy's `max_queue_wait`.
    pub slo: Option<Duration>,
    /// Input features.
    pub features: Matrix,
    /// Where the response goes.
    pub response_tx: Sender<InferResponse>,
    /// Whom to wake once it is there (`None`: the receiver blocks in
    /// `recv`, the send alone wakes it).
    pub wake: Option<Arc<dyn Wake>>,
    /// When the request entered the queue.
    pub enqueued: Instant,
    /// The request's staged timeline, stamped as it moves through the
    /// pipeline and returned on its [`InferResponse`].
    pub trace: RequestTrace,
}

/// A group of compatible requests released to one worker.
#[derive(Debug)]
pub(crate) struct Batch {
    /// The shared `(model, sparsity)` key.
    pub key: ModelKey,
    /// The member requests: deadline-expired members first, then by
    /// priority (highest first), FIFO within a priority.
    pub requests: Vec<PendingRequest>,
}

impl Batch {
    /// Number of member requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Total feature rows across member requests.
    pub fn total_rows(&self) -> usize {
        self.requests.iter().map(|r| r.features.rows()).sum()
    }
}

/// One queued request plus the bookkeeping the incremental aggregates key
/// on: a monotonic admission sequence number (arrival-order tie-break) and
/// its queue deadline, computed once at admission.
#[derive(Debug)]
struct Member {
    seq: u64,
    deadline: Instant,
    request: PendingRequest,
}

/// One compatibility class's members, arrival-ordered, with the aggregates
/// `next_batch` consults kept current on every enqueue/extract.
#[derive(Debug)]
struct ClassQueue {
    key: ModelKey,
    /// Members in arrival order.
    members: VecDeque<Member>,
    /// Member `(deadline, seq)` pairs, ordered: the first entry is the
    /// class's most urgent member (closest to — or furthest past — its
    /// SLO). The seq disambiguates equal instants.
    deadlines: BTreeSet<(Instant, u64)>,
    /// Member count per priority level, indexed by [`Priority::index`].
    priority_counts: [usize; Priority::ALL.len()],
}

impl ClassQueue {
    fn new(key: ModelKey) -> Self {
        ClassQueue {
            key,
            members: VecDeque::new(),
            deadlines: BTreeSet::new(),
            priority_counts: [0; Priority::ALL.len()],
        }
    }

    /// Earliest queue deadline among members.
    fn min_deadline(&self) -> Instant {
        self.deadlines.first().expect("class queues are never left empty").0
    }

    /// Highest member priority (release-order tie-break).
    fn max_priority(&self) -> Priority {
        for priority in Priority::ALL.iter().rev() {
            if self.priority_counts[priority.index()] > 0 {
                return *priority;
            }
        }
        unreachable!("class queues are never left empty")
    }
}

#[derive(Debug)]
struct QueueState {
    /// Classes currently holding members, in first-arrival order (a class
    /// that empties and later reappears re-enters at the back) — the
    /// final release-order tie-break.
    classes: Vec<ClassQueue>,
    /// Total queued requests across classes.
    len: usize,
    /// Next admission sequence number.
    next_seq: u64,
    open: bool,
}

/// The dynamic batching queue shared by the server front-end and the worker
/// pool.
#[derive(Debug)]
pub struct BatchScheduler {
    policy: BatchPolicy,
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl BatchScheduler {
    /// Creates an open scheduler.
    ///
    /// # Panics
    /// Panics if `max_batch` is zero.
    pub fn new(policy: BatchPolicy) -> Self {
        assert!(policy.max_batch > 0, "batches need at least one request");
        BatchScheduler {
            policy,
            state: Mutex::new(QueueState { classes: Vec::new(), len: 0, next_seq: 0, open: true }),
            cv: Condvar::new(),
        }
    }

    /// The batching policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Number of requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.state.lock().expect("scheduler mutex poisoned").len
    }

    /// Queued requests per priority level, indexed by
    /// [`Priority::index`] — what admission control projects queue delay
    /// from. O(classes), like the release decision.
    pub fn queue_depths(&self) -> [usize; Priority::ALL.len()] {
        let state = self.state.lock().expect("scheduler mutex poisoned");
        let mut depths = [0; Priority::ALL.len()];
        for class in &state.classes {
            for (slot, count) in depths.iter_mut().zip(class.priority_counts) {
                *slot += count;
            }
        }
        depths
    }

    /// Whether the scheduler still accepts requests.
    pub fn is_open(&self) -> bool {
        self.state.lock().expect("scheduler mutex poisoned").open
    }

    /// The absolute instant by which `request` should leave the queue: its
    /// SLO (capped at `max_queue_wait`) past its enqueue time.
    fn deadline(&self, request: &PendingRequest) -> Instant {
        let wait = request
            .slo
            .map_or(self.policy.max_queue_wait, |slo| slo.min(self.policy.max_queue_wait));
        request.enqueued + wait
    }

    /// Enqueues one request. Returns `false` (dropping the request) if the
    /// scheduler has been shut down.
    pub(crate) fn enqueue(&self, mut request: PendingRequest) -> bool {
        let deadline = self.deadline(&request);
        let mut state = self.state.lock().expect("scheduler mutex poisoned");
        if !state.open {
            return false;
        }
        request.trace.record(Stage::Enqueued);
        let seq = state.next_seq;
        state.next_seq += 1;
        let at = match state.classes.iter().position(|c| c.key == request.key) {
            Some(at) => at,
            None => {
                state.classes.push(ClassQueue::new(request.key));
                state.classes.len() - 1
            }
        };
        let class = &mut state.classes[at];
        class.priority_counts[request.priority.index()] += 1;
        class.deadlines.insert((deadline, seq));
        class.members.push_back(Member { seq, deadline, request });
        state.len += 1;
        // Wake every waiting worker: some class may just have become full,
        // and a worker watching a deadline needs to re-evaluate.
        self.cv.notify_all();
        true
    }

    /// Blocks until a batch is ready (or the scheduler is shut down **and**
    /// drained, in which case `None` tells the worker to exit).
    ///
    /// A class is releasable as soon as it holds `max_batch` compatible
    /// requests (so a full batch never waits on anyone's deadline), as soon
    /// as any of its members reaches its queue deadline, or unconditionally
    /// while draining. Among releasable classes, the one whose most urgent
    /// member is closest to violation goes first.
    pub(crate) fn next_batch(&self) -> Option<Batch> {
        let mut state = self.state.lock().expect("scheduler mutex poisoned");
        loop {
            if state.len == 0 {
                if !state.open {
                    return None;
                }
                state = self.cv.wait(state).expect("scheduler mutex poisoned");
                continue;
            }
            let now = Instant::now();
            if let Some(at) =
                Self::release_index(&state.classes, now, self.policy.max_batch, state.open)
            {
                return Some(self.extract(&mut state, at, now));
            }
            // Nothing full or expired yet: sleep until the most urgent
            // deadline or the next enqueue, whichever comes first.
            let earliest =
                state.classes.iter().map(ClassQueue::min_deadline).min().expect("non-empty queue");
            let wait = earliest.saturating_duration_since(now);
            let (next, _timed_out) =
                self.cv.wait_timeout(state, wait).expect("scheduler mutex poisoned");
            state = next;
        }
    }

    /// The class to release now, if any: releasable classes (full, past a
    /// member deadline, or draining) ordered by urgency — earliest deadline
    /// first, higher priority breaking ties, first arrival breaking those
    /// (`min_by_key` keeps the first of equals, and `classes` is in
    /// first-arrival order). Every aggregate consulted here is maintained
    /// incrementally, so the decision is O(classes).
    fn release_index(
        classes: &[ClassQueue],
        now: Instant,
        max_batch: usize,
        open: bool,
    ) -> Option<usize> {
        classes
            .iter()
            .enumerate()
            .filter(|(_, c)| !open || c.members.len() >= max_batch || c.min_deadline() <= now)
            .min_by_key(|(_, c)| (c.min_deadline(), Reverse(c.max_priority())))
            .map(|(at, _)| at)
    }

    /// Stops accepting requests; queued work is still drained by
    /// `next_batch`.
    pub fn shutdown(&self) {
        let mut state = self.state.lock().expect("scheduler mutex poisoned");
        state.open = false;
        self.cv.notify_all();
    }

    /// Removes up to `max_batch` requests with `key` from the queue. The
    /// selection (and batch member) order is:
    ///
    /// 1. requests already past their queue deadline — so a fresh flood of
    ///    higher-priority (but still in-SLO) arrivals can never starve a
    ///    deadline-expired request out of batch after batch;
    /// 2. then unexpired requests.
    ///
    /// Inside each group: highest priority first, then earliest deadline,
    /// then arrival order. Same-priority requests with equal SLOs
    /// therefore always stay FIFO (equal SLOs expire in arrival order),
    /// and when overload leaves *everything* expired the order degrades to
    /// strict priority — lower classes lose their latency bound only once
    /// the pool is saturated with expired higher-priority work. The rest
    /// of the queue keeps its arrival order.
    fn extract(&self, state: &mut QueueState, at: usize, now: Instant) -> Batch {
        let class = &mut state.classes[at];
        let total = class.members.len();
        // Selection key, ascending: unexpired-last puts deadline-expired
        // members first, `Reverse(priority)` puts the highest priority
        // first inside each group, then earliest deadline, then arrival.
        let selection_key = |member: &Member| {
            (member.deadline > now, Reverse(member.request.priority), member.deadline, member.seq)
        };
        let mut order: Vec<usize> = (0..total).collect();
        if total > self.policy.max_batch {
            // Only the top `max_batch` need ordering: select them in O(n),
            // then sort just that prefix.
            order.select_nth_unstable_by_key(self.policy.max_batch - 1, |&i| {
                selection_key(&class.members[i])
            });
            order.truncate(self.policy.max_batch);
        }
        order.sort_unstable_by_key(|&i| selection_key(&class.members[i]));
        let mut requests = Vec::with_capacity(order.len());
        if order.iter().copied().eq(0..order.len()) {
            // Uniform-priority, uniform-SLO traffic selects a pure arrival
            // prefix (deadlines are arrival-ordered): pop it off the front
            // without disturbing — or copying — the rest of a deep backlog.
            for _ in 0..order.len() {
                requests.push(class.members.pop_front().expect("selected member"));
            }
        } else {
            // Mixed selection: pull the chosen members out in one pass,
            // preserving the arrival order of everything left behind, then
            // restore the selection order.
            let mut selected = vec![false; total];
            for &i in &order {
                selected[i] = true;
            }
            let mut taken: Vec<Option<Member>> = (0..total).map(|_| None).collect();
            let mut remaining = VecDeque::with_capacity(total - order.len());
            for (i, member) in class.members.drain(..).enumerate() {
                if selected[i] {
                    taken[i] = Some(member);
                } else {
                    remaining.push_back(member);
                }
            }
            class.members = remaining;
            for &i in &order {
                requests.push(taken[i].take().expect("selected member"));
            }
        }
        let key = class.key;
        let mut batch = Vec::with_capacity(requests.len());
        for mut member in requests {
            class.deadlines.remove(&(member.deadline, member.seq));
            class.priority_counts[member.request.priority.index()] -= 1;
            member.request.trace.record(Stage::Released);
            batch.push(member.request);
        }
        state.len -= batch.len();
        if class.members.is_empty() {
            state.classes.remove(at);
        }
        debug_assert!(!batch.is_empty(), "extract called with a matching member");
        Batch { key, requests: batch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelId;
    use std::sync::mpsc;

    fn policy(max_batch: usize, wait_ms: u64) -> BatchPolicy {
        BatchPolicy { max_batch, max_queue_wait: Duration::from_millis(wait_ms) }
    }

    fn request(model: ModelId) -> PendingRequest {
        let (tx, _rx) = mpsc::channel();
        // Tests keep the receiver alive only when they assert on responses.
        std::mem::forget(_rx);
        PendingRequest {
            id: 0,
            key: ModelKey::new(model, None),
            priority: Priority::Normal,
            slo: None,
            features: Matrix::zeros(2, 8),
            response_tx: tx,
            wake: None,
            enqueued: Instant::now(),
            trace: RequestTrace::new(),
        }
    }

    fn prioritised(model: ModelId, id: u64, priority: Priority) -> PendingRequest {
        PendingRequest { id, priority, ..request(model) }
    }

    #[test]
    fn queue_depths_track_per_priority_counts_across_classes() {
        let s = BatchScheduler::new(policy(8, 50));
        assert_eq!(s.queue_depths(), [0, 0, 0]);
        assert!(s.enqueue(prioritised(ModelId::BertBase, 0, Priority::Low)));
        assert!(s.enqueue(prioritised(ModelId::BertBase, 1, Priority::High)));
        assert!(s.enqueue(prioritised(ModelId::RnnLm, 2, Priority::High)));
        assert!(s.enqueue(prioritised(ModelId::RnnLm, 3, Priority::Normal)));
        assert_eq!(s.queue_depths(), [1, 1, 2], "summed across model classes");
        assert_eq!(s.queue_depths().iter().sum::<usize>(), s.queue_len());
        // Extraction drains the counts class by class.
        s.shutdown();
        while let Some(batch) = s.next_batch() {
            drop(batch);
        }
        assert_eq!(s.queue_depths(), [0, 0, 0]);
    }

    #[test]
    fn full_batches_never_exceed_max_batch() {
        let s = BatchScheduler::new(policy(4, 60_000));
        for _ in 0..10 {
            assert!(s.enqueue(request(ModelId::BertBase)));
        }
        let sizes: Vec<usize> = (0..2).map(|_| s.next_batch().unwrap().len()).collect();
        assert_eq!(sizes, vec![4, 4]);
        assert_eq!(s.queue_len(), 2);
        // The remaining two are not a full batch; they flush on shutdown.
        s.shutdown();
        assert_eq!(s.next_batch().unwrap().len(), 2);
        assert!(s.next_batch().is_none());
    }

    #[test]
    fn deadline_flushes_a_partial_batch() {
        let s = BatchScheduler::new(policy(64, 30));
        let t0 = Instant::now();
        assert!(s.enqueue(request(ModelId::ResNet50)));
        let batch = s.next_batch().unwrap();
        let waited = t0.elapsed();
        assert_eq!(batch.len(), 1);
        assert!(waited >= Duration::from_millis(25), "flushed after {waited:?}");
        assert!(waited < Duration::from_secs(5), "flushed after {waited:?}");
    }

    #[test]
    fn per_request_slo_flushes_before_max_queue_wait() {
        // max_queue_wait is a whole minute, but the request carries a 20 ms
        // SLO: its batch must flush on the SLO, not the policy cap.
        let s = BatchScheduler::new(policy(64, 60_000));
        let mut r = request(ModelId::BertBase);
        r.slo = Some(Duration::from_millis(20));
        let t0 = Instant::now();
        assert!(s.enqueue(r));
        let batch = s.next_batch().unwrap();
        let waited = t0.elapsed();
        assert_eq!(batch.len(), 1);
        assert!(waited >= Duration::from_millis(15), "flushed after {waited:?}");
        assert!(waited < Duration::from_secs(5), "flushed after {waited:?}");
    }

    #[test]
    fn extraction_prefers_high_priority_fifo_within_priority() {
        // Six compatible requests, batches of three: the two High requests
        // and the oldest Normal one go first, each class FIFO internally.
        let s = BatchScheduler::new(policy(3, 60_000));
        s.enqueue(prioritised(ModelId::BertBase, 0, Priority::Normal));
        s.enqueue(prioritised(ModelId::BertBase, 1, Priority::High));
        s.enqueue(prioritised(ModelId::BertBase, 2, Priority::Low));
        s.enqueue(prioritised(ModelId::BertBase, 3, Priority::High));
        s.enqueue(prioritised(ModelId::BertBase, 4, Priority::Normal));
        s.enqueue(prioritised(ModelId::BertBase, 5, Priority::Low));
        s.shutdown();
        let first: Vec<u64> = s.next_batch().unwrap().requests.iter().map(|r| r.id).collect();
        assert_eq!(first, vec![1, 3, 0], "high first (FIFO), then oldest normal");
        let second: Vec<u64> = s.next_batch().unwrap().requests.iter().map(|r| r.id).collect();
        assert_eq!(second, vec![4, 2, 5], "remaining normal, then lows FIFO");
    }

    #[test]
    fn an_expired_low_priority_request_is_not_starved_by_a_high_priority_flood() {
        // One Low request with a tiny SLO, buried under two full batches of
        // High traffic on the same model. Once its deadline expires it must
        // ride in the very next released batch, not wait behind every High
        // request.
        let s = BatchScheduler::new(policy(3, 60_000));
        let mut low = prioritised(ModelId::BertBase, 99, Priority::Low);
        low.slo = Some(Duration::from_millis(5));
        s.enqueue(low);
        for id in 0..6 {
            s.enqueue(prioritised(ModelId::BertBase, id, Priority::High));
        }
        std::thread::sleep(Duration::from_millis(10));
        let batch = s.next_batch().unwrap();
        assert_eq!(batch.requests[0].id, 99, "expired request leads the batch");
        assert_eq!(batch.requests[0].priority, Priority::Low);
        // The rest of the slots still go to the highest priorities, FIFO.
        let tail: Vec<u64> = batch.requests[1..].iter().map(|r| r.id).collect();
        assert_eq!(tail, vec![0, 1]);
        s.shutdown();
        while s.next_batch().is_some() {}
    }

    #[test]
    fn release_prefers_the_class_closest_to_violation() {
        // Two unfull classes; the BERT member has the tighter SLO, so even
        // though ResNet-50 arrived first, BERT's batch is released first
        // once deadlines drive the flush.
        let s = BatchScheduler::new(policy(8, 60));
        let mut early = request(ModelId::BertBase);
        early.slo = Some(Duration::from_millis(10));
        s.enqueue(request(ModelId::ResNet50));
        s.enqueue(early);
        let first = s.next_batch().unwrap();
        assert_eq!(first.key.model, ModelId::BertBase);
        s.shutdown();
        assert_eq!(s.next_batch().unwrap().key.model, ModelId::ResNet50);
    }

    #[test]
    fn batches_group_by_key_without_starving_the_head() {
        let s = BatchScheduler::new(policy(3, 60_000));
        s.enqueue(request(ModelId::BertBase));
        s.enqueue(request(ModelId::ResNet50));
        s.enqueue(request(ModelId::BertBase));
        s.enqueue(request(ModelId::ResNet50));
        s.enqueue(request(ModelId::BertBase));
        // Head is BERT: its three compatible requests batch together.
        let b1 = s.next_batch().unwrap();
        assert_eq!(b1.key.model, ModelId::BertBase);
        assert_eq!(b1.len(), 3);
        // ResNet-50 moved to the head; drain it via shutdown flush.
        s.shutdown();
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.key.model, ModelId::ResNet50);
        assert_eq!(b2.len(), 2);
    }

    #[test]
    fn a_full_batch_behind_an_unfull_head_releases_immediately() {
        // Head is a lone ResNet-50 request with a long deadline; a FULL
        // BERT batch arrives behind it and must not wait for that deadline.
        let s = BatchScheduler::new(policy(3, 60_000));
        s.enqueue(request(ModelId::ResNet50));
        for _ in 0..3 {
            s.enqueue(request(ModelId::BertBase));
        }
        let t0 = Instant::now();
        let batch = s.next_batch().unwrap();
        assert_eq!(batch.key.model, ModelId::BertBase);
        assert_eq!(batch.len(), 3);
        assert!(t0.elapsed() < Duration::from_secs(5), "released without waiting on the head");
        // The head is still queued and flushes on shutdown.
        s.shutdown();
        assert_eq!(s.next_batch().unwrap().key.model, ModelId::ResNet50);
    }

    #[test]
    fn different_sparsity_overrides_do_not_batch_together() {
        let s = BatchScheduler::new(policy(8, 60_000));
        let mut sparse = request(ModelId::RnnLm);
        sparse.key = ModelKey::new(ModelId::RnnLm, Some(0.9));
        s.enqueue(request(ModelId::RnnLm));
        s.enqueue(sparse);
        s.shutdown();
        assert_eq!(s.next_batch().unwrap().len(), 1);
        assert_eq!(s.next_batch().unwrap().len(), 1);
    }

    #[test]
    fn enqueue_after_shutdown_is_rejected() {
        let s = BatchScheduler::new(policy(4, 10));
        s.shutdown();
        assert!(!s.enqueue(request(ModelId::Vgg16)));
        assert!(!s.is_open());
        assert!(s.next_batch().is_none());
    }

    #[test]
    fn total_rows_sums_member_features() {
        let s = BatchScheduler::new(policy(4, 60_000));
        s.enqueue(request(ModelId::BertBase));
        s.enqueue(request(ModelId::BertBase));
        s.shutdown();
        let batch = s.next_batch().unwrap();
        assert_eq!(batch.total_rows(), 4); // two requests x two rows
    }

    #[test]
    fn concurrent_producers_and_consumers_preserve_every_request() {
        let s = Arc::new(BatchScheduler::new(policy(5, 5)));
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        assert!(s.enqueue(request(ModelId::BertBase)));
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    while let Some(batch) = s.next_batch() {
                        assert!(batch.len() <= 5);
                        seen += batch.len();
                    }
                    seen
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        // Give consumers a moment to drain, then close.
        while s.queue_len() > 0 {
            std::thread::yield_now();
        }
        s.shutdown();
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    /// Property tests: arbitrary interleavings of enqueue / next_batch over
    /// mixed models, priorities and SLOs never violate the scheduler's
    /// invariants. The case count follows `PROPTEST_CASES` (CI pins 64).
    mod props {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use std::collections::HashMap;

        /// Wall-clock slack allowed on top of `max_queue_wait` for the
        /// release-latency bound: one extraction cycle (the batch released
        /// ahead of the measured one) plus scheduler wake-up and CI timer
        /// jitter. Generous so the property never flakes on a loaded
        /// machine, yet tight enough to catch real starvation.
        const CYCLE_SLACK: Duration = Duration::from_millis(500);

        const MODELS: [ModelId; 3] = [ModelId::BertBase, ModelId::ResNet50, ModelId::RnnLm];

        fn check_batch(
            batch: &Batch,
            max_batch: usize,
            max_queue_wait: Duration,
            released: &mut HashMap<(ModelKey, Priority), u64>,
            bound_applies: bool,
        ) {
            let now = Instant::now();
            prop_assert!(!batch.requests.is_empty());
            prop_assert!(batch.len() <= max_batch, "batch of {} > {max_batch}", batch.len());
            for r in &batch.requests {
                prop_assert_eq!(r.key, batch.key, "mixed keys in one batch");
                // Same-priority requests within a model are served FIFO:
                // ids are assigned in enqueue order, so per (key, priority)
                // they must be released in increasing order.
                let slot = released.entry((r.key, r.priority)).or_insert(0);
                prop_assert!(
                    r.id >= *slot,
                    "priority {:?} of {:?} released out of order: {} after {}",
                    r.priority,
                    r.key.model,
                    r.id,
                    *slot
                );
                *slot = r.id + 1;
                if bound_applies {
                    let waited = now.duration_since(r.enqueued);
                    prop_assert!(
                        waited <= max_queue_wait + CYCLE_SLACK,
                        "request {} waited {waited:?} (bound {max_queue_wait:?} + cycle)",
                        r.id
                    );
                }
            }
        }

        proptest! {
            #[test]
            fn interleaved_enqueue_and_extract_hold_all_invariants(
                seed in any::<u64>(),
                max_batch in 1usize..=5,
                ops in 12usize..=40,
            ) {
                let wait = Duration::from_millis(2);
                let s = BatchScheduler::new(BatchPolicy { max_batch, max_queue_wait: wait });
                let mut rng = StdRng::seed_from_u64(seed);
                let mut next_id = 0u64;
                let mut enqueued = 0usize;
                let mut drained = 0usize;
                let mut released: HashMap<(ModelKey, Priority), u64> = HashMap::new();
                for _ in 0..ops {
                    let extract = s.queue_len() > 0 && rng.random_bool(0.4);
                    if extract {
                        let batch = s.next_batch().unwrap();
                        drained += batch.len();
                        check_batch(&batch, max_batch, wait, &mut released, true);
                    } else {
                        let model = MODELS[rng.random_range(0usize..MODELS.len())];
                        let priority = Priority::ALL[rng.random_range(0usize..3)];
                        // One SLO per service class: FIFO-within-priority is
                        // only a meaningful invariant when a class shares a
                        // deadline policy (mixed SLOs inside one class are
                        // legitimately served earliest-deadline-first).
                        let slo = match priority {
                            Priority::High => Some(Duration::from_micros(700)),
                            Priority::Normal => None,
                            Priority::Low => Some(Duration::from_micros(1500)),
                        };
                        let mut r = request(model);
                        r.id = next_id;
                        r.priority = priority;
                        r.slo = slo;
                        next_id += 1;
                        prop_assert!(s.enqueue(r));
                        enqueued += 1;
                    }
                }
                // Drain: every request is released exactly once, under the
                // same size / purity / FIFO invariants (the latency bound
                // does not apply to the shutdown flush).
                s.shutdown();
                while let Some(batch) = s.next_batch() {
                    drained += batch.len();
                    check_batch(&batch, max_batch, wait, &mut released, false);
                }
                prop_assert_eq!(drained, enqueued, "requests lost or duplicated");
                prop_assert_eq!(s.queue_len(), 0);
            }
        }
    }
}
