//! Recovery accounting for the fault-tolerant epoch pipeline.
//!
//! Epoch summaries (`dift_taint::summary`) are pure functions of an
//! epoch's records and its I/O base, so any worker-side loss — a
//! panic, a wedged worker, records that never arrived, a damaged
//! summary — is recoverable by recomputing the epoch, with results
//! bit-identical to the serial engine. This module holds the ledger
//! ([`RecoveryStats`]) of that machinery; the mechanism itself is the
//! crate's one epoch-stream core, which every epoch runner uses.
//!
//! The recovery ladder, in order:
//!
//! 1. **Isolate** — worker panics are caught per epoch, so one bad epoch
//!    costs exactly one summary; a wedged worker stops claiming epochs
//!    and the other workers absorb its share.
//! 2. **Validate** — every summary must report exactly its epoch's
//!    record count, which catches silent corruption and partial
//!    delivery; a missing or failed summary counts as lost.
//! 3. **Re-summarize inline** — every lost epoch is summarized on the
//!    calling thread, which cannot fail by construction (it is exactly
//!    the serial DIFT path), so the run always completes.

/// What the recovery machinery did during one run. All zeros on a
/// fault-free run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Distinct injected faults that actually fired.
    pub faults_injected: u64,
    /// Epochs whose worker-side summary was missing or failed the
    /// record-count check.
    pub epochs_lost: u64,
    /// Epochs recomputed successfully (always equals `epochs_lost` when
    /// the run returns — recovery cannot give up).
    pub epochs_recovered: u64,
    /// Epochs re-summarized inline on the calling thread — the graceful
    /// degradation to serial DIFT.
    pub degraded_epochs: u64,
    /// Workers that wedged on an injected stall and stopped claiming
    /// epochs.
    pub shards_lost: u64,
}

impl RecoveryStats {
    /// True when any fault fired or any epoch needed recovery.
    pub fn eventful(&self) -> bool {
        *self != RecoveryStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stats_are_uneventful() {
        assert!(!RecoveryStats::default().eventful());
        let s = RecoveryStats { faults_injected: 1, ..Default::default() };
        assert!(s.eventful());
    }
}
