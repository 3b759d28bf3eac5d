//! Serving-path degradation counters.
//!
//! The fault-tolerant request path in `cts-runtime`/`cts-serve` reports
//! every admission rejection, shed, quarantine, retry, degradation step,
//! and canary verdict here, so chaos tests and `BENCH_serve.json` can
//! prove the ladder actually fired instead of inferring it from timing.
//! Like every other counter block in this crate, recording is a relaxed
//! atomic increment — always on, never a clock read or an allocation.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! serve_counters {
    ($($(#[$doc:meta])* $name:ident => $record:ident),+ $(,)?) => {
        $(
            $(#[$doc])*
            #[allow(non_upper_case_globals)]
            static $name: AtomicU64 = AtomicU64::new(0);

            $(#[$doc])*
            pub fn $record() {
                $name.fetch_add(1, Ordering::Relaxed);
            }
        )+

        /// Point-in-time copy of every serving counter.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        #[allow(non_snake_case, missing_docs)]
        pub struct ServeCounters {
            $(pub $name: u64,)+
        }

        /// Copy out the current counters.
        pub fn snapshot() -> ServeCounters {
            ServeCounters {
                $($name: $name.load(Ordering::Relaxed),)+
            }
        }

        /// Zero every serving counter and shard gauge (tests, bench
        /// warm-up boundaries).
        pub fn reset() {
            $($name.store(0, Ordering::Relaxed);)+
            reset_shards();
        }

        /// The counters as stable `(name, value)` pairs, in declaration
        /// order — the serialization the serve bench and run log use.
        pub fn rows() -> Vec<(&'static str, u64)> {
            vec![$((stringify!($name), $name.load(Ordering::Relaxed)),)+]
        }
    };
}

serve_counters! {
    /// Requests offered to `MicroBatcher::submit`.
    submitted => record_submitted,
    /// Requests that passed admission and entered the pending queue.
    admitted => record_admitted,
    /// Requests rejected at admission for a shape mismatch.
    rejected_shape => record_rejected_shape,
    /// Requests rejected at admission for unmaskable non-finite input.
    rejected_non_finite => record_rejected_non_finite,
    /// Requests rejected at admission for exceeding the missing-value cap.
    rejected_missing => record_rejected_missing,
    /// Windows whose non-finite entries were masked to the null sentinel.
    masked_windows => record_masked_window,
    /// Requests shed at submit because the pending queue was full.
    queue_shed => record_queue_shed,
    /// Requests shed at flush because their deadline had expired.
    deadline_shed => record_deadline_shed,
    /// Oversize requests split into multiple sub-batches.
    oversize_split => record_oversize_split,
    /// Coalesced batch executions that failed outright.
    batch_failures => record_batch_failure,
    /// Batch or solo outputs found non-finite (poisoned).
    poisoned_outputs => record_poisoned_output,
    /// Requests quarantined out of a failing batch for solo re-run.
    quarantined => record_quarantined,
    /// Solo re-run retry attempts (beyond the first solo attempt).
    solo_retries => record_solo_retry,
    /// Requests answered by a successful solo re-run (ladder step 2).
    degraded_solo => record_degraded_solo,
    /// Requests answered by the tape fallback (ladder step 3).
    degraded_tape => record_degraded_tape,
    /// Requests that exhausted the ladder and returned a typed error.
    failed_requests => record_failed_request,
    /// Plans admitted by the registry canary gate.
    canary_pass => record_canary_pass,
    /// Plans rejected (and rolled back) by the registry canary gate.
    canary_fail => record_canary_fail,
    /// Front-end requests routed to a model id no shard serves. Counted
    /// *instead of* `submitted` (routing happens before admission), so the
    /// conservation invariant `submitted == admitted + rejected_* +
    /// queue_shed` is unaffected.
    unknown_model => record_unknown_model,
    /// Requests answered bit-identically from the per-model result cache.
    cache_hit => record_cache_hit,
    /// Admitted requests that missed the result cache and ran the plan.
    cache_miss => record_cache_miss,
    /// Cache entries evicted LRU to stay under the byte cap.
    cache_evict => record_cache_evict,
    /// Cache entries dropped because the window origin advanced past the
    /// forecast horizon (the horizon-aware TTL).
    cache_expired => record_cache_expired,
}

/// Upper bound on tracked serving shards; depths for shards at or above
/// this index are folded into the last gauge.
pub const MAX_SHARDS: usize = 64;

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
/// Live pending-queue depth per serving shard (gauge, not a counter).
static SHARD_DEPTH: [AtomicU64; MAX_SHARDS] = [ZERO; MAX_SHARDS];
/// High-water pending-queue depth per serving shard since the last reset.
static SHARD_DEPTH_PEAK: [AtomicU64; MAX_SHARDS] = [ZERO; MAX_SHARDS];

/// Record shard `shard`'s pending-queue depth (front-end workers call this
/// after every enqueue and flush). Also advances the shard's high-water
/// mark.
pub fn set_shard_depth(shard: usize, depth: u64) {
    let i = shard.min(MAX_SHARDS - 1);
    SHARD_DEPTH[i].store(depth, Ordering::Relaxed);
    SHARD_DEPTH_PEAK[i].fetch_max(depth, Ordering::Relaxed);
}

/// Current and high-water pending-queue depth for one shard.
pub fn shard_depth(shard: usize) -> (u64, u64) {
    let i = shard.min(MAX_SHARDS - 1);
    (
        SHARD_DEPTH[i].load(Ordering::Relaxed),
        SHARD_DEPTH_PEAK[i].load(Ordering::Relaxed),
    )
}

/// `(shard, depth, peak)` rows for every shard that has seen traffic
/// since the last reset, in shard order — the serialization the serve
/// bench writes next to the counters.
pub fn shard_rows() -> Vec<(usize, u64, u64)> {
    (0..MAX_SHARDS)
        .filter_map(|i| {
            let peak = SHARD_DEPTH_PEAK[i].load(Ordering::Relaxed);
            (peak > 0).then(|| (i, SHARD_DEPTH[i].load(Ordering::Relaxed), peak))
        })
        .collect()
}

/// Zero every shard depth gauge and high-water mark.
pub fn reset_shards() {
    for i in 0..MAX_SHARDS {
        SHARD_DEPTH[i].store(0, Ordering::Relaxed);
        SHARD_DEPTH_PEAK[i].store(0, Ordering::Relaxed);
    }
}

/// Emit one flat `serve` event with every counter into the run log (no-op
/// while metrics are off, like every [`crate::runlog`] write).
pub fn emit_row() {
    let pairs = rows();
    let fields: Vec<(&str, crate::runlog::Value<'_>)> = pairs
        .iter()
        .map(|(k, v)| (*k, crate::runlog::Value::U64(*v)))
        .collect();
    crate::runlog::emit("serve", &fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_record_snapshot_reset() {
        reset();
        record_submitted();
        record_submitted();
        record_quarantined();
        record_canary_fail();
        let s = snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.canary_fail, 1);
        assert_eq!(s.degraded_tape, 0);
        let rows = rows();
        assert_eq!(
            rows.iter().find(|(k, _)| *k == "submitted"),
            Some(&("submitted", 2))
        );
        reset();
        assert_eq!(snapshot(), ServeCounters::default());
    }

    #[test]
    fn shard_gauges_track_depth_and_peak() {
        reset_shards();
        set_shard_depth(1, 4);
        set_shard_depth(1, 2);
        set_shard_depth(3, 7);
        assert_eq!(shard_depth(1), (2, 4));
        assert_eq!(shard_depth(3), (7, 7));
        assert_eq!(shard_depth(0), (0, 0));
        assert_eq!(shard_rows(), vec![(1, 2, 4), (3, 7, 7)]);
        // Out-of-range shards fold into the last gauge instead of
        // panicking.
        set_shard_depth(MAX_SHARDS + 5, 1);
        assert_eq!(shard_depth(MAX_SHARDS - 1).1, 1);
        reset_shards();
        assert!(shard_rows().is_empty());
    }
}
