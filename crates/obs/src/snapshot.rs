//! Serializable, mergeable snapshots of a [`MetricsRegistry`].
//!
//! [`MetricsRegistry`]: crate::MetricsRegistry

use serde::Serialize;

use crate::metrics::{LogHistogram, WindowedRate};

/// A frozen [`LogHistogram`]: per-bucket counts plus exact moments.
///
/// Bucket edges are implicit — [`LogHistogram::bucket_edge`] maps index
/// to exclusive upper edge; they are fixed for the `busarb-trace/1`
/// schema so exports need not repeat them.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Exact sum of recorded samples.
    pub sum: f64,
    /// Smallest recorded sample (`null` in JSON when empty).
    pub min: f64,
    /// Largest recorded sample (`null` in JSON when empty).
    pub max: f64,
    /// Per-bucket counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Freezes a live histogram.
    #[must_use]
    pub fn of(h: &LogHistogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets: h.buckets().to_vec(),
        }
    }

    /// Exact mean of the recorded samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (into, from) in self.buckets.iter_mut().zip(&other.buckets) {
            *into += from;
        }
    }
}

/// A frozen [`WindowedRate`].
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RateSnapshot {
    /// Window length in simulated time units.
    pub window: f64,
    /// Completed windows.
    pub windows: u64,
    /// Occurrences inside completed windows.
    pub count: u64,
    /// Occurrences in the busiest single window (possibly the final,
    /// partial one).
    pub peak: u64,
}

impl RateSnapshot {
    /// Freezes a live rate tracker.
    #[must_use]
    pub fn of(r: &WindowedRate) -> Self {
        RateSnapshot {
            window: r.window(),
            windows: r.closed_windows(),
            count: r.closed_count(),
            peak: r.peak(),
        }
    }

    /// Mean rate over completed windows, per simulated time unit.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.count as f64 / (self.windows as f64 * self.window)
        }
    }

    /// Peak rate (busiest window), per simulated time unit.
    #[must_use]
    pub fn peak_rate(&self) -> f64 {
        self.peak as f64 / self.window
    }

    /// Folds another rate into this one (windows and counts add across
    /// runs; the peak is the max). Panics if the window lengths differ,
    /// since rates over different windows are not comparable.
    fn merge(&mut self, other: &RateSnapshot) {
        assert!(
            (self.window - other.window).abs() < f64::EPSILON,
            "cannot merge rates with different windows ({} vs {})",
            self.window,
            other.window
        );
        self.windows += other.windows;
        self.count += other.count;
        self.peak = self.peak.max(other.peak);
    }
}

/// A frozen [`MetricsRegistry`](crate::MetricsRegistry), ready for JSON
/// export or deterministic cross-run aggregation.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Agents in the scenario (the max across merged runs).
    pub agents: u32,
    /// Simulated time of the last observed event (summed across merged
    /// runs: total simulated time covered).
    pub sim_time: f64,
    /// Simulation events processed.
    pub events: u64,
    /// Bus requests issued.
    pub requests: u64,
    /// Grants (arbitration winners elected).
    pub grants: u64,
    /// Line arbitrations, including wraparounds and release cycles.
    pub arbitrations: u64,
    /// Transfers started.
    pub transfers_started: u64,
    /// Transfers completed.
    pub completions: u64,
    /// Completions per agent, indexed by `AgentId::index()`.
    pub completions_per_agent: Vec<u64>,
    /// MESI read misses per agent (closed-loop workloads; all zeros
    /// otherwise), indexed by `AgentId::index()`.
    pub read_misses: Vec<u64>,
    /// MESI write misses per agent, indexed by `AgentId::index()`.
    pub write_misses: Vec<u64>,
    /// MESI S→M upgrades per agent, indexed by `AgentId::index()`.
    pub upgrades: Vec<u64>,
    /// Cached copies invalidated per agent (victim-attributed), indexed
    /// by `AgentId::index()`.
    pub invalidations: Vec<u64>,
    /// Largest number of simultaneously pending requests observed.
    pub pending_peak: u32,
    /// Waiting-time distribution (whole run, warm-up included).
    pub wait: HistogramSnapshot,
    /// Pending-queue-depth distribution, gauged at each request arrival.
    pub queue_depth: HistogramSnapshot,
    /// Simulation events per simulated time unit.
    pub event_rate: RateSnapshot,
    /// Grants per simulated time unit.
    pub grant_rate: RateSnapshot,
}

impl MetricsSnapshot {
    /// An empty snapshot (the identity element of [`merge`]) for `agents`
    /// agents.
    ///
    /// [`merge`]: MetricsSnapshot::merge
    #[must_use]
    pub fn empty(agents: u32) -> Self {
        crate::MetricsRegistry::new(agents).snapshot()
    }

    /// Folds another snapshot into this one: counters and histogram
    /// buckets add, peaks take the max, per-agent tallies add
    /// elementwise (padding to the longer agent roster).
    ///
    /// Merging is commutative up to field semantics, but callers that
    /// need *deterministic* aggregates across a parallel sweep should
    /// fold snapshots in a canonical order (e.g. sorted by cell tag),
    /// since floating-point sums are order-sensitive.
    ///
    /// # Panics
    ///
    /// Panics if the rate windows differ (snapshots from the same build
    /// always share them).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.agents = self.agents.max(other.agents);
        self.sim_time += other.sim_time;
        self.events += other.events;
        self.requests += other.requests;
        self.grants += other.grants;
        self.arbitrations += other.arbitrations;
        self.transfers_started += other.transfers_started;
        self.completions += other.completions;
        fn add_per_agent(into: &mut Vec<u64>, from: &[u64]) {
            if into.len() < from.len() {
                into.resize(from.len(), 0);
            }
            for (into, from) in into.iter_mut().zip(from) {
                *into += from;
            }
        }
        add_per_agent(
            &mut self.completions_per_agent,
            &other.completions_per_agent,
        );
        add_per_agent(&mut self.read_misses, &other.read_misses);
        add_per_agent(&mut self.write_misses, &other.write_misses);
        add_per_agent(&mut self.upgrades, &other.upgrades);
        add_per_agent(&mut self.invalidations, &other.invalidations);
        self.pending_peak = self.pending_peak.max(other.pending_peak);
        self.wait.merge(&other.wait);
        self.queue_depth.merge(&other.queue_depth);
        self.event_rate.merge(&other.event_rate);
        self.grant_rate.merge(&other.grant_rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HISTOGRAM_BUCKETS;
    use busarb_types::{AgentId, CoherenceOp, Time};

    fn sample(agents: u32, base: f64) -> MetricsSnapshot {
        let mut m = crate::MetricsRegistry::new(agents);
        m.on_event(Time::from(base));
        m.on_request(1);
        m.on_grant(Time::from(base), 2);
        m.on_transfer_start();
        m.on_completion(AgentId::new(1).unwrap(), base);
        m.on_coherence(AgentId::new(1).unwrap(), CoherenceOp::WriteMiss);
        if agents >= 2 {
            m.on_invalidation(AgentId::new(2).unwrap());
        }
        m.snapshot()
    }

    #[test]
    fn merge_sums_counters_and_maxes_peaks() {
        let mut a = sample(2, 1.0);
        let b = sample(4, 3.0);
        a.merge(&b);
        assert_eq!(a.agents, 4);
        assert_eq!(a.events, 2);
        assert_eq!(a.requests, 2);
        assert_eq!(a.grants, 2);
        assert_eq!(a.arbitrations, 4);
        assert_eq!(a.completions, 2);
        assert_eq!(a.completions_per_agent, vec![2, 0, 0, 0]);
        assert_eq!(a.write_misses, vec![2, 0, 0, 0]);
        assert_eq!(a.invalidations, vec![0, 2, 0, 0]);
        assert_eq!(a.read_misses, vec![0, 0, 0, 0]);
        assert_eq!(a.upgrades, vec![0, 0, 0, 0]);
        assert_eq!(a.wait.count, 2);
        assert_eq!(a.wait.sum, 4.0);
        assert_eq!(a.wait.min, 1.0);
        assert_eq!(a.wait.max, 3.0);
        assert_eq!(a.sim_time, 4.0);
        assert_eq!(a.wait.mean(), 2.0);
    }

    #[test]
    fn empty_is_the_merge_identity() {
        let s = sample(3, 2.0);
        let mut e = MetricsSnapshot::empty(3);
        e.merge(&s);
        assert_eq!(e, s);
    }

    #[test]
    fn histogram_buckets_have_fixed_length() {
        let s = sample(1, 1.0);
        assert_eq!(s.wait.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(s.queue_depth.buckets.len(), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let s = sample(2, 1.5);
        let json = serde_json::to_string(&s).expect("shim serializer is total");
        let v = serde_json::from_str(&json).expect("round-trip parses");
        assert_eq!(v.get("agents").and_then(serde::Value::as_u64), Some(2));
        assert_eq!(
            v.get("wait")
                .and_then(|w| w.get("count"))
                .and_then(serde::Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("completions_per_agent")
                .and_then(serde::Value::as_array)
                .map(<[serde::Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn rate_merge_rejects_mismatched_windows() {
        let mut a = RateSnapshot {
            window: 10.0,
            windows: 1,
            count: 5,
            peak: 5,
        };
        let b = RateSnapshot {
            window: 10.0,
            windows: 3,
            count: 5,
            peak: 4,
        };
        a.merge(&b);
        assert_eq!(a.windows, 4);
        assert_eq!(a.count, 10);
        assert_eq!(a.peak, 5);
        assert_eq!(a.mean_rate(), 0.25);
        assert_eq!(a.peak_rate(), 0.5);
        let c = RateSnapshot {
            window: 20.0,
            windows: 1,
            count: 1,
            peak: 1,
        };
        let outcome = std::panic::catch_unwind(move || {
            let mut a = a;
            a.merge(&c);
        });
        assert!(outcome.is_err());
    }
}
