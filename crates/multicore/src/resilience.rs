//! Recovery policy and accounting for the fault-tolerant epoch pipeline.
//!
//! Epoch summaries (`dift_taint::summary`) are pure functions of an
//! epoch's records and its I/O base, so any helper-side loss — a shard
//! panic, a wedged queue, dropped channel traffic, a damaged summary —
//! is recoverable by recomputing the epoch elsewhere, with results
//! bit-identical to the serial engine. This module holds the knobs
//! ([`RecoveryPolicy`]) and the ledger ([`RecoveryStats`]) of that
//! machinery; the mechanism itself lives in [`crate::epoch`] (the
//! channel runner) and the crate's stream core.
//!
//! The recovery ladder, in order:
//!
//! 1. **Isolate** — shard panics are caught per epoch, so one bad epoch
//!    costs exactly one summary, not the shard's whole backlog.
//! 2. **Detect** — per-shard progress watermarks notice a shard that
//!    stopped draining its queue ([`RecoveryPolicy::stall_timeout`]);
//!    producer sends time out rather than blocking forever, and every
//!    surviving summary must pass the record-count integrity check.
//! 3. **Retry on a spare shard** — lost epochs are re-summarized on
//!    fresh spare threads, up to [`RecoveryPolicy::max_retries`] rounds.
//! 4. **Degrade to serial** — whatever is still missing is summarized
//!    inline on the main thread, which cannot fail by construction (it
//!    is exactly the serial DIFT path), so the run always completes.

use std::time::Duration;

/// How the epoch runner responds to helper-side failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Master switch. Disabled (fail-stop) reproduces the pre-resilience
    /// behavior: any shard failure aborts the run with a diagnostic
    /// naming the shard and epoch.
    pub enabled: bool,
    /// Rounds of retry-on-spare-shard before degrading to inline
    /// re-summarization on the main thread.
    pub max_retries: u32,
    /// How long a shard may go without draining a batch (and a producer
    /// send may block) before it is declared stalled and abandoned.
    pub stall_timeout: Duration,
    /// Poll interval for the progress-watermark check while waiting on
    /// shard results.
    pub backoff: Duration,
}

impl RecoveryPolicy {
    /// Pre-resilience behavior: propagate the first failure.
    pub fn fail_stop() -> RecoveryPolicy {
        RecoveryPolicy {
            enabled: false,
            max_retries: 0,
            stall_timeout: Duration::from_secs(30),
            backoff: Duration::from_millis(20),
        }
    }

    /// Production shape: retry twice on spares, then degrade.
    pub fn tolerant() -> RecoveryPolicy {
        RecoveryPolicy {
            enabled: true,
            max_retries: 2,
            stall_timeout: Duration::from_secs(2),
            backoff: Duration::from_millis(20),
        }
    }

    /// Test-sized timeouts so stall detection resolves in milliseconds.
    pub fn quick() -> RecoveryPolicy {
        RecoveryPolicy {
            enabled: true,
            max_retries: 1,
            stall_timeout: Duration::from_millis(150),
            backoff: Duration::from_millis(5),
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy::fail_stop()
    }
}

/// What the recovery machinery did during one run. All zeros on a
/// fault-free run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Distinct injected faults that actually fired.
    pub faults_injected: u64,
    /// Epochs whose helper-side summary was missing, damaged, or
    /// stranded on a failed shard.
    pub epochs_lost: u64,
    /// Epochs recomputed successfully (always equals `epochs_lost` when
    /// the run returns — recovery cannot give up).
    pub epochs_recovered: u64,
    /// Re-summarization attempts on spare shards (counts attempts, not
    /// rounds; a retried epoch that fails again counts each time).
    pub retries: u64,
    /// Epochs recovered by a spare shard (the rest degraded to inline).
    pub spare_recovered: u64,
    /// Epochs re-summarized inline on the main thread — the graceful
    /// degradation to serial DIFT.
    pub degraded_epochs: u64,
    /// Shards abandoned after a progress-watermark stall.
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
    fn presets_make_sense() {
        assert!(!RecoveryPolicy::fail_stop().enabled);
        assert!(RecoveryPolicy::tolerant().enabled);
        assert!(RecoveryPolicy::quick().enabled);
        assert!(RecoveryPolicy::quick().stall_timeout < RecoveryPolicy::tolerant().stall_timeout);
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::fail_stop());
    }

    #[test]
    fn default_stats_are_uneventful() {
        assert!(!RecoveryStats::default().eventful());
        let s = RecoveryStats { faults_injected: 1, ..Default::default() };
        assert!(s.eventful());
    }
}
