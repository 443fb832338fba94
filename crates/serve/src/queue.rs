//! The bounded request queue: admission control at the front, micro-batch
//! draining at the back.
//!
//! The queue is the single coordination point between any number of
//! producer threads (client handles) and the one scheduler thread. Its two
//! defining behaviours:
//!
//! * **Backpressure, not buffering.** [`BoundedQueue::try_push`] rejects
//!   immediately when the queue is at capacity. An unbounded queue converts
//!   overload into unbounded latency and memory; a bounded one converts it
//!   into an explicit, retryable [`ServeError::Saturated`] signal at the
//!   edge, while admitted requests keep a predictable worst-case wait.
//! * **Batch-at-once draining.** [`BoundedQueue::pop_batch`] blocks until at
//!   least one item is queued, then keeps collecting until either the batch
//!   size target is met or the batching window expires, and hands the whole
//!   run to the scheduler in arrival order. A zero window means "drain
//!   whatever is there" — natural batching that never idles: under load the
//!   batch is whatever accumulated while the previous one was being
//!   computed.
//!
//! Closing the queue ([`BoundedQueue::close`]) makes every subsequent push
//! fail with [`ServeError::ShutDown`] while `pop_batch` continues to return
//! the already-admitted remainder (flushing immediately, without waiting
//! out the window) until the queue is empty — which is what makes graceful
//! shutdown lossless.
//! Requests run to completion on their admitting thread are admitted under
//! the same lock ([`BoundedQueue::admit_inline`]), so shutdown outlives
//! them too.

use crate::error::ServeError;
use crate::metrics::{FlushReason, Gauge};
use crate::mutation;
use crate::quclassi_sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

struct QueueState<T> {
    /// Queued items, each stamped with its admission time so the batching
    /// window can be measured from when the *oldest* request entered the
    /// queue — not from when the scheduler happened to start waiting.
    items: VecDeque<(Instant, T)>,
    closed: bool,
    peak_depth: usize,
    /// Requests admitted by [`BoundedQueue::admit_inline`] and still
    /// running on their admitting thread.
    running: usize,
}

/// A bounded MPSC queue with admission control and batched draining.
pub(crate) struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
    /// Mirrors the queue depth into the metrics registry; updated under
    /// the queue lock, so the gauge never drifts from the real depth.
    depth_gauge: Option<Gauge>,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` in-flight items.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (validated upstream by `ServeConfig`).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                peak_depth: 0,
                running: 0,
            }),
            not_empty: Condvar::new(),
            capacity,
            depth_gauge: None,
        }
    }

    /// [`BoundedQueue::new`], mirroring the live depth into `gauge`.
    pub(crate) fn with_depth_gauge(capacity: usize, gauge: Gauge) -> Self {
        BoundedQueue {
            depth_gauge: Some(gauge),
            ..BoundedQueue::new(capacity)
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued items.
    pub(crate) fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// High-water mark of the queue depth since construction.
    pub(crate) fn peak_depth(&self) -> usize {
        self.lock().peak_depth
    }

    /// Admits `item`, or rejects it when the queue is full (backpressure)
    /// or closed (shutdown). Never blocks. `on_admit` runs under the lock
    /// once the item is admitted, before the consumer can take it, so
    /// admission accounting never trails the request's completion.
    pub(crate) fn try_push(&self, item: T, on_admit: impl FnOnce()) -> Result<(), ServeError> {
        let notify_early = mutation::queue_notify_early();
        if notify_early {
            // Mutation point: notifying before the item is visible is the
            // classic lost wakeup — the consumer can check the queue under
            // the lock, find it empty, and then sleep through the only
            // notification, which already fired into thin air. Manifests
            // as a model-detected deadlock in tests/model_queue.rs.
            self.not_empty.notify_one();
        }
        let mut state = self.lock();
        if state.closed {
            return Err(ServeError::ShutDown);
        }
        if state.items.len() >= self.capacity {
            return Err(ServeError::Saturated {
                depth: state.items.len(),
                capacity: self.capacity,
            });
        }
        state.items.push_back((Instant::now(), item));
        state.peak_depth = state.peak_depth.max(state.items.len());
        if let Some(gauge) = &self.depth_gauge {
            gauge.set(state.items.len() as u64);
        }
        on_admit();
        drop(state);
        if !notify_early {
            // One consumer (the scheduler); one wake is enough.
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Admits one request that the caller runs to completion itself
    /// instead of queueing (it takes no capacity), or rejects it with
    /// [`ServeError::ShutDown`] once the queue is closed; `on_admit` runs
    /// under the lock as in [`BoundedQueue::try_push`]. Hold the returned
    /// guard until the request is answered: while any guard is alive,
    /// `pop_batch` does not report a closed queue as drained.
    pub(crate) fn admit_inline(
        &self,
        on_admit: impl FnOnce(),
    ) -> Result<InlineGuard<'_, T>, ServeError> {
        let mut state = self.lock();
        if state.closed {
            return Err(ServeError::ShutDown);
        }
        state.running += 1;
        on_admit();
        Ok(InlineGuard { queue: self })
    }

    /// Blocks until at least one item is available, then drains up to
    /// `max_batch` items, waiting until at most `window` **after the
    /// oldest queued item was admitted** for the batch to fill.
    ///
    /// Measuring the window from enqueue time (not from when this call
    /// started waiting) bounds every admitted request's batching delay by
    /// `window` even when the scheduler was busy computing the previous
    /// batch while the request arrived: a request that has already waited
    /// out its window flushes immediately instead of waiting
    /// `window + previous-batch-compute`.
    ///
    /// Returns `None` only when the queue is closed, empty, and no request
    /// admitted by [`BoundedQueue::admit_inline`] is still running — the
    /// scheduler's signal to exit. When the queue is closed with items
    /// remaining, they are returned immediately (no window wait) with
    /// [`FlushReason::Close`].
    pub(crate) fn pop_batch(
        &self,
        max_batch: usize,
        window: Duration,
    ) -> Option<(Vec<T>, FlushReason)> {
        let mut state = self.lock();
        // Phase 1: wait for the first item (or close).
        loop {
            if !state.items.is_empty() {
                break;
            }
            if state.closed && (state.running == 0 || mutation::queue_ignore_running()) {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        // Phase 2: let the batch fill until the size target or the oldest
        // item's window deadline, whichever comes first. A deadline already
        // in the past (the request aged while the previous batch computed)
        // flushes at once, as does a closed queue.
        if !window.is_zero() {
            let deadline = state.items.front().expect("phase 1 saw an item").0 + window;
            while state.items.len() < max_batch && !state.closed {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = self
                    .not_empty
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                state = guard;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        let n = state.items.len().min(max_batch);
        let batch: Vec<T> = state.items.drain(..n).map(|(_, item)| item).collect();
        if let Some(gauge) = &self.depth_gauge {
            gauge.set(state.items.len() as u64);
        }
        let reason = flush_reason(batch.len(), max_batch, state.closed);
        Some((batch, reason))
    }

    /// Closes the queue: every later `try_push` fails with
    /// [`ServeError::ShutDown`]; `pop_batch` drains the remainder and then
    /// returns `None`.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }
}

/// Why a batch of `len` requests flushed: it met the size target, the
/// queue was closing, or else its window expired (a zero window always
/// has).
pub(crate) fn flush_reason(len: usize, max_batch: usize, closed: bool) -> FlushReason {
    if len >= max_batch {
        FlushReason::Size
    } else if closed {
        FlushReason::Close
    } else {
        FlushReason::Deadline
    }
}

/// A request admitted by [`BoundedQueue::admit_inline`], running on its
/// admitting thread; dropping it marks the request finished.
pub(crate) struct InlineGuard<'a, T> {
    queue: &'a BoundedQueue<T>,
}

impl<T> Drop for InlineGuard<'_, T> {
    fn drop(&mut self) {
        let mut state = self.queue.lock();
        state.running -= 1;
        let drained = state.closed && state.running == 0;
        drop(state);
        if drained {
            // The consumer may be parked on the closed, empty queue.
            self.queue.not_empty.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn saturation_rejects_with_depth_and_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1, || {}).unwrap();
        q.try_push(2, || {}).unwrap();
        match q.try_push(3, || {}) {
            Err(ServeError::Saturated { depth, capacity }) => {
                assert_eq!((depth, capacity), (2, 2));
            }
            other => panic!("expected saturation, got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
        assert_eq!(q.peak_depth(), 2);
        // Draining frees capacity again.
        let (batch, _) = q.pop_batch(10, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![1, 2]);
        q.try_push(4, || {}).unwrap();
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn zero_window_drains_whatever_is_present() {
        let q = BoundedQueue::new(8);
        q.try_push(1, || {}).unwrap();
        q.try_push(2, || {}).unwrap();
        q.try_push(3, || {}).unwrap();
        let (batch, reason) = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![1, 2, 3]);
        assert_eq!(reason, FlushReason::Deadline);
    }

    #[test]
    fn size_target_flushes_without_waiting_out_the_window() {
        let q = BoundedQueue::new(8);
        for i in 0..4 {
            q.try_push(i, || {}).unwrap();
        }
        let start = Instant::now();
        let (batch, reason) = q.pop_batch(4, Duration::from_secs(5)).unwrap();
        assert!(start.elapsed() < Duration::from_secs(1), "must not wait");
        assert_eq!(batch.len(), 4);
        assert_eq!(reason, FlushReason::Size);
    }

    #[test]
    fn window_collects_late_arrivals() {
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push(0, || {}).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                q.try_push(1, || {}).unwrap();
            })
        };
        // A generous window lets the second item join the first batch.
        let (batch, _) = q.pop_batch(8, Duration::from_millis(500)).unwrap();
        producer.join().unwrap();
        assert_eq!(batch, vec![0, 1]);
    }

    #[test]
    fn close_drains_remainder_then_signals_exit() {
        let q = BoundedQueue::new(8);
        q.try_push(1, || {}).unwrap();
        q.try_push(2, || {}).unwrap();
        q.close();
        assert_eq!(q.try_push(3, || {}), Err(ServeError::ShutDown));
        // Remainder flushes immediately (no window wait), tagged Close.
        let start = Instant::now();
        let (batch, reason) = q.pop_batch(8, Duration::from_secs(5)).unwrap();
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(reason, FlushReason::Close);
        assert!(q.pop_batch(8, Duration::ZERO).is_none());
    }

    #[test]
    fn close_wakes_a_blocked_consumer() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert!(consumer.join().unwrap().is_none());
    }

    #[test]
    fn window_is_measured_from_enqueue_not_from_pop() {
        // Regression: a request admitted while the scheduler was busy
        // computing the previous batch used to wait up to
        // `window + previous-batch-compute` — the deadline was measured
        // from when pop_batch started waiting. It must be measured from
        // the oldest item's admission.
        let q = BoundedQueue::new(8);
        q.try_push(1, || {}).unwrap();
        // Simulate the scheduler being busy past the whole window.
        std::thread::sleep(Duration::from_millis(250));
        let start = Instant::now();
        let (batch, reason) = q.pop_batch(8, Duration::from_millis(200)).unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(120),
            "expired window must flush immediately, waited {:?}",
            start.elapsed()
        );
        assert_eq!(batch, vec![1]);
        assert_eq!(reason, FlushReason::Deadline);
    }

    #[test]
    fn partially_elapsed_window_only_waits_the_remainder() {
        let q = BoundedQueue::new(8);
        q.try_push(1, || {}).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let start = Instant::now();
        // 300 ms window, ~200 ms already burned while "computing": the
        // wait from here is the ~100 ms remainder, not a fresh 300 ms.
        let (batch, _) = q.pop_batch(8, Duration::from_millis(300)).unwrap();
        let waited = start.elapsed();
        assert!(
            waited < Duration::from_millis(250),
            "must wait only the window remainder, waited {waited:?}"
        );
        assert_eq!(batch, vec![1]);
    }

    #[test]
    fn inline_admission_takes_no_capacity_and_is_refused_once_closed() {
        let q = BoundedQueue::<u32>::new(1);
        q.try_push(1, || {}).unwrap();
        let mut admitted = false;
        let running = q.admit_inline(|| admitted = true).unwrap();
        assert!(admitted, "a full queue still admits a request run inline");
        drop(running);
        q.close();
        assert!(matches!(q.admit_inline(|| {}), Err(ServeError::ShutDown)));
    }

    #[test]
    fn closed_queue_is_not_drained_while_an_inline_request_runs() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let running = q.admit_inline(|| {}).unwrap();
        q.close();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4, Duration::ZERO))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!consumer.is_finished(), "drained under a running request");
        drop(running);
        assert!(consumer.join().unwrap().is_none());
    }

    #[test]
    fn arrival_order_is_preserved_across_batches() {
        let q = BoundedQueue::new(64);
        for i in 0..10 {
            q.try_push(i, || {}).unwrap();
        }
        let (a, _) = q.pop_batch(4, Duration::ZERO).unwrap();
        let (b, _) = q.pop_batch(4, Duration::ZERO).unwrap();
        let (c, _) = q.pop_batch(4, Duration::ZERO).unwrap();
        assert_eq!(a, vec![0, 1, 2, 3]);
        assert_eq!(b, vec![4, 5, 6, 7]);
        assert_eq!(c, vec![8, 9]);
    }
}
