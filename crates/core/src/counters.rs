//! The engine's one counter registry.
//!
//! Every lifetime count an operator reads off a running daemon lives here:
//! the pool's served/error/shed tallies, the transport's slow-client
//! disconnects, the sessions' memo hits and misses and the calibrator's
//! updates, swaps, rollbacks and checkpoints, plus the one
//! [`LatencyHistogram`] of completed requests. [`Counter`] names each count
//! once, with its wire key; [`Counters`] stores them and is reached through
//! [`crate::Engine::counters`], so every layer that holds the engine bumps
//! the same cells, and the `{"stats": true}` reply and the daemon's shutdown
//! line read the same numbers.

use crate::serve_pool::{LatencyHistogram, LatencySummary};
use crate::sync::unpoisoned;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One lifetime counter of an [`crate::Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Successfully answered requests.
    Served,
    /// Error responses, excluding overload and deadline sheds: pool-side
    /// failures and front-end rejections (malformed or oversized lines).
    Errors,
    /// Requests shed with [`crate::Error::Overloaded`].
    Shed,
    /// Panics caught by the pool's batch unwind guard. A batch panic
    /// followed by its single-item retry's panic counts twice.
    PanicsContained,
    /// Requests shed with [`crate::Error::DeadlineExceeded`] because they
    /// expired while queued.
    DeadlineShed,
    /// Pool workers respawned after their serving loop died.
    WorkersRespawned,
    /// Connections condemned because the client stopped reading.
    SlowClientDisconnects,
    /// Input sequences answered from a session's prediction memo.
    MemoHits,
    /// Input sequences that ran the encoder forward and decode.
    MemoMisses,
    /// DPO gradient steps applied by the online calibrator.
    Updates,
    /// Calibrated models hot-swapped into the registry.
    HotSwaps,
    /// Guardrail demotions of the calibrated variant.
    CalibrationsRolledBack,
    /// Calibration checkpoints written.
    Checkpoints,
    /// Calibration checkpoint writes that failed.
    CheckpointErrors,
}

impl Counter {
    /// Every counter, in wire order.
    pub const ALL: [Counter; 14] = [
        Counter::Served,
        Counter::Errors,
        Counter::Shed,
        Counter::PanicsContained,
        Counter::DeadlineShed,
        Counter::WorkersRespawned,
        Counter::SlowClientDisconnects,
        Counter::MemoHits,
        Counter::MemoMisses,
        Counter::Updates,
        Counter::HotSwaps,
        Counter::CalibrationsRolledBack,
        Counter::Checkpoints,
        Counter::CheckpointErrors,
    ];

    /// The counter's key in the `{"stats": true}` reply.
    pub fn key(self) -> &'static str {
        match self {
            Counter::Served => "served",
            Counter::Errors => "errors",
            Counter::Shed => "shed",
            Counter::PanicsContained => "panics_contained",
            Counter::DeadlineShed => "deadline_shed",
            Counter::WorkersRespawned => "workers_respawned",
            Counter::SlowClientDisconnects => "slow_client_disconnects",
            Counter::MemoHits => "memo_hits",
            Counter::MemoMisses => "memo_misses",
            Counter::Updates => "updates",
            Counter::HotSwaps => "hot_swaps",
            Counter::CalibrationsRolledBack => "calibrations_rolled_back",
            Counter::Checkpoints => "checkpoints",
            Counter::CheckpointErrors => "checkpoint_errors",
        }
    }

    /// True for the online calibrator's counters, which the stats reply
    /// nests under `calibration`.
    pub fn is_calibration(self) -> bool {
        self as usize >= Counter::Updates as usize
    }
}

/// Storage for every [`Counter`] plus the latency histogram of completed
/// requests (served, errored or deadline-shed). Counts are relaxed atomics:
/// each one is exact, and every site bumps its count before it sends the
/// reply the count belongs to.
#[derive(Debug, Default)]
pub struct Counters {
    values: [AtomicU64; Counter::ALL.len()],
    latency: Mutex<LatencyHistogram>,
}

impl Counters {
    /// Adds `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.values[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize].load(Ordering::Relaxed)
    }

    /// Records one completed request's latency (monotonic clock).
    pub fn record_latency(&self, latency: Duration) {
        unpoisoned(self.latency.lock()).record(latency);
    }

    /// Latency percentiles over every completed request, or `None` before
    /// the first completion.
    pub fn latency(&self) -> Option<LatencySummary> {
        unpoisoned(self.latency.lock()).summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_counter_is_listed_once_in_discriminant_order_with_a_distinct_key() {
        let mut keys = std::collections::BTreeSet::new();
        for (i, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(*counter as usize, i, "{counter:?}");
            assert!(
                keys.insert(counter.key()),
                "duplicate key {}",
                counter.key()
            );
        }
        let calibration: Vec<&str> = Counter::ALL
            .iter()
            .filter(|c| c.is_calibration())
            .map(|c| c.key())
            .collect();
        assert_eq!(
            calibration,
            [
                "updates",
                "hot_swaps",
                "calibrations_rolled_back",
                "checkpoints",
                "checkpoint_errors"
            ]
        );
    }

    #[test]
    fn counters_add_and_record_latency() {
        let counters = Counters::default();
        assert_eq!(counters.get(Counter::Served), 0);
        assert_eq!(counters.latency(), None);
        counters.add(Counter::Served, 2);
        counters.add(Counter::MemoHits, 5);
        counters.add(Counter::Served, 1);
        assert_eq!(counters.get(Counter::Served), 3);
        assert_eq!(counters.get(Counter::MemoHits), 5);
        assert_eq!(counters.get(Counter::Errors), 0);
        counters.record_latency(Duration::from_micros(100));
        let latency = counters.latency().expect("recorded");
        assert_eq!((latency.count, latency.max_micros), (1, 100));
    }
}
