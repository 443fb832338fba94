//! The admission gate: backpressure at the front, lossless shutdown at the
//! back.
//!
//! Every request runs to completion on the thread that admits it (see
//! [`crate::runtime`]), so nothing is ever queued; every request passes
//! this gate on its way in:
//!
//! * **Backpressure, not buffering.** [`AdmissionGate::admit`] rejects
//!   immediately with a retryable [`ServeError::Saturated`] once
//!   `capacity` requests are admitted and not yet answered. Overload turns
//!   into an explicit signal at the edge instead of unbounded latency.
//! * **Arrival order.** Each admission takes the next admission index under
//!   the gate lock; stochastic estimators seed their streams from it.
//! * **Lossless shutdown.** [`AdmissionGate::close`] refuses every later
//!   admission with [`ServeError::ShutDown`], and
//!   [`AdmissionGate::wait_drained`] returns only once every admitted
//!   request has been answered, so shutdown counts every one of them.

use crate::error::ServeError;
use crate::mutation;
use crate::quclassi_sync::{Condvar, Mutex, MutexGuard};

struct GateState {
    closed: bool,
    /// Requests admitted and not yet answered.
    running: usize,
    /// Requests admitted since construction: the next admission index.
    admitted: u64,
}

/// Admission control for requests answered on their admitting thread.
pub(crate) struct AdmissionGate {
    state: Mutex<GateState>,
    /// Signalled when the gate closes and when the last running request
    /// of a closed gate finishes.
    drained: Condvar,
    capacity: usize,
}

impl AdmissionGate {
    /// A gate admitting at most `capacity` unanswered requests.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (validated upstream by `ServeConfig`).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission capacity must be at least 1");
        AdmissionGate {
            state: Mutex::new(GateState {
                closed: false,
                running: 0,
                admitted: 0,
            }),
            drained: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits one request, or rejects it when `capacity` requests are
    /// already running (backpressure) or the gate is closed (shutdown).
    /// Never blocks. `on_admit` runs under the lock, so admission
    /// accounting never trails the request's completion. Hold the returned
    /// guard until the request is answered.
    pub(crate) fn admit(&self, on_admit: impl FnOnce()) -> Result<Running<'_>, ServeError> {
        let mut state = self.lock();
        if state.closed {
            return Err(ServeError::ShutDown);
        }
        if state.running >= self.capacity {
            return Err(ServeError::Saturated {
                depth: state.running,
                capacity: self.capacity,
            });
        }
        state.running += 1;
        let index = state.admitted;
        state.admitted += 1;
        on_admit();
        Ok(Running { gate: self, index })
    }

    /// Closes the gate: every later admission fails with
    /// [`ServeError::ShutDown`].
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.drained.notify_all();
    }

    /// Blocks until the gate is closed and no admitted request is still
    /// running.
    pub(crate) fn wait_drained(&self) {
        let mut state = self.lock();
        while !(state.closed && (state.running == 0 || mutation::queue_ignore_running())) {
            state = self.drained.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A request admitted by [`AdmissionGate::admit`], running on its
/// admitting thread; dropping it marks the request answered.
pub(crate) struct Running<'a> {
    gate: &'a AdmissionGate,
    index: u64,
}

impl Running<'_> {
    /// The request's admission index: 0 for the first request the gate
    /// admitted, then 1, 2, … in the order admissions took the lock.
    pub(crate) fn index(&self) -> u64 {
        self.index
    }
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.lock();
        state.running -= 1;
        let drained = state.closed && state.running == 0;
        drop(state);
        if drained {
            // Shutdown may be parked in `wait_drained`.
            self.gate.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn saturation_rejects_with_depth_and_capacity() {
        let gate = AdmissionGate::new(2);
        let first = gate.admit(|| {}).unwrap();
        let second = gate.admit(|| {}).unwrap();
        let mut counted = false;
        match gate.admit(|| counted = true) {
            Err(ServeError::Saturated { depth, capacity }) => {
                assert_eq!((depth, capacity), (2, 2));
            }
            Err(other) => panic!("expected saturation, got {other:?}"),
            Ok(_) => panic!("expected saturation, got an admission"),
        }
        assert!(!counted, "a rejected request is not counted as admitted");
        // Answering a request frees capacity again.
        drop(first);
        let third = gate.admit(|| {}).unwrap();
        assert_eq!((second.index(), third.index()), (1, 2));
    }

    #[test]
    fn close_drains_remainder_then_signals_exit() {
        let gate = AdmissionGate::new(4);
        let running = gate.admit(|| {}).unwrap();
        gate.close();
        assert!(matches!(gate.admit(|| {}), Err(ServeError::ShutDown)));
        drop(running);
        // Closed with nothing running: returns at once.
        gate.wait_drained();
    }

    #[test]
    fn close_wakes_a_blocked_consumer() {
        let gate = Arc::new(AdmissionGate::new(4));
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.wait_drained())
        };
        std::thread::sleep(Duration::from_millis(10));
        gate.close();
        waiter.join().unwrap();
    }

    #[test]
    fn closed_queue_is_not_drained_while_an_inline_request_runs() {
        let gate = Arc::new(AdmissionGate::new(4));
        let running = gate.admit(|| {}).unwrap();
        gate.close();
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.wait_drained())
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "drained under a running request");
        drop(running);
        waiter.join().unwrap();
    }
}
