//! Mutation points for the model-check mutation proofs.
//!
//! Each function below pins one deliberately weakenable decision in a
//! concurrent protocol: a memory ordering, a fence, a lock scope, a drain
//! condition.
//! In normal builds they are `const fn`s returning the shipped (correct)
//! choice — the call sites compile to exactly the constants they used
//! before this module existed, so release binaries are unchanged. Under
//! `--cfg quclassi_model` they consult runtime flags set by
//! [`crate::model_support::mutations`], letting the `model_*` tests weaken
//! exactly one site and prove the checker detects the resulting bug
//! (`#[should_panic]` mutation proofs — checker power is demonstrated, not
//! assumed).

#[cfg(not(quclassi_model))]
mod imp {
    use crate::quclassi_sync::atomic::Ordering;

    /// Ordering of the `TraceRing` seqlock publish store (the final ticket
    /// store). Shipped: `Release`.
    #[inline(always)]
    pub(crate) const fn seqlock_publish() -> Ordering {
        Ordering::Release
    }

    /// Whether the `TraceRing` writer issues its release fence between the
    /// ticket invalidation and the field stores. Shipped: yes.
    #[inline(always)]
    pub(crate) const fn seqlock_release_fence() -> bool {
        true
    }

    /// Whether `TraceRing` readers verify the span checksum. Shipped: yes
    /// (the model tests disable it to expose the bare two-ticket seqlock).
    #[inline(always)]
    pub(crate) const fn seqlock_verify_checksum() -> bool {
        true
    }

    /// Ordering of the `LatencyHistogram` nanosecond-sum publish. Shipped:
    /// `Release` (pairs with the snapshot's `Acquire` load).
    #[inline(always)]
    pub(crate) const fn histogram_total() -> Ordering {
        Ordering::Release
    }

    /// Whether `AdmissionGate::wait_drained` reports a closed gate as
    /// drained while an admitted request is still running (shutdown
    /// returning before that request is answered). Shipped: no.
    #[inline(always)]
    pub(crate) const fn queue_ignore_running() -> bool {
        false
    }

    /// Whether `SwapMap::publish` drops the write lock between version
    /// assignment and insert (a TOCTOU that forges duplicate versions).
    /// Shipped: no — one write-locked critical section.
    #[inline(always)]
    pub(crate) const fn swap_split_publish() -> bool {
        false
    }
}

#[cfg(quclassi_model)]
mod imp {
    use crate::model_support::mutations;
    use crate::quclassi_sync::atomic::Ordering;

    pub(crate) fn seqlock_publish() -> Ordering {
        if mutations::active(mutations::SEQLOCK_PUBLISH_RELAXED) {
            Ordering::Relaxed
        } else {
            Ordering::Release
        }
    }

    pub(crate) fn seqlock_release_fence() -> bool {
        !mutations::active(mutations::SEQLOCK_SKIP_RELEASE_FENCE)
    }

    pub(crate) fn seqlock_verify_checksum() -> bool {
        !mutations::active(mutations::SEQLOCK_SKIP_CHECKSUM)
    }

    pub(crate) fn histogram_total() -> Ordering {
        if mutations::active(mutations::HISTOGRAM_TOTAL_RELAXED) {
            Ordering::Relaxed
        } else {
            Ordering::Release
        }
    }

    pub(crate) fn queue_ignore_running() -> bool {
        mutations::active(mutations::QUEUE_IGNORE_RUNNING)
    }

    pub(crate) fn swap_split_publish() -> bool {
        mutations::active(mutations::SWAP_SPLIT_PUBLISH)
    }
}

pub(crate) use imp::*;
