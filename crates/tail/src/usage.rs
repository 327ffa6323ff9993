//! Bus-usage classification: splitting simulated time into busy /
//! backpressure / free / idle.
//!
//! This is the bus-arbitration analogue of a CPU-profiler's cycle
//! accounting. Every interval between consecutive trace events lands in
//! exactly one of four classes:
//!
//! * **busy** — a transfer occupied the bus (useful work);
//! * **backpressure** — no transfer, but an arbitration was still
//!   resolving (protocol overhead: the paper's `2L/B`-style arbitration
//!   cost shows up here);
//! * **free** — no transfer and no arbitration in flight, yet at least
//!   one request was pending (bandwidth lost to protocol rules, e.g.
//!   transaction-aligned grant timing);
//! * **idle** — nothing pending (no demand; not the protocol's fault).
//!
//! The classes are disjoint and sum to the trace's time span, so their
//! fractions read directly as a utilization breakdown. Alongside the
//! time split the analyzer histograms per-transaction delays (the `wait`
//! carried by completion records) and burst lengths (consecutive
//! completions with no idle gap), both on the log-bucketed resolution
//! shared with the live metrics registry.

use busarb_obs::{HistogramSnapshot, LogHistogram};
use busarb_types::{TraceEvent, TraceKind};
use serde::Serialize;

/// Frozen results of [`BusUsage`]: the four-way time split plus delay
/// and burst-length distributions.
#[derive(Clone, Debug, Serialize)]
pub struct UsageReport {
    /// Simulated time spanned by the trace (first event is implicitly at
    /// the time origin).
    pub span: f64,
    /// Time a transfer occupied the bus.
    pub busy: f64,
    /// Transfer-free time spent resolving arbitration.
    pub backpressure: f64,
    /// Time the bus sat unused while requests were pending.
    pub free: f64,
    /// Time with no demand at all.
    pub idle: f64,
    /// Completed transfers.
    pub transfers: u64,
    /// Bursts (maximal runs of completions without an idle gap).
    pub bursts: u64,
    /// Per-transaction delay distribution (completion `wait` values, in
    /// transfer times).
    pub delay: HistogramSnapshot,
    /// Burst-length distribution (completions per burst).
    pub burst_len: HistogramSnapshot,
}

impl UsageReport {
    /// An all-zero report: the identity element of [`merge`].
    ///
    /// [`merge`]: UsageReport::merge
    #[must_use]
    pub fn empty() -> Self {
        UsageReport {
            span: 0.0,
            busy: 0.0,
            backpressure: 0.0,
            free: 0.0,
            idle: 0.0,
            transfers: 0,
            bursts: 0,
            delay: HistogramSnapshot::of(&LogHistogram::new()),
            burst_len: HistogramSnapshot::of(&LogHistogram::new()),
        }
    }

    /// Fraction of the span classified busy (0 on an empty span).
    #[must_use]
    pub fn busy_fraction(&self) -> f64 {
        if self.span > 0.0 {
            self.busy / self.span
        } else {
            0.0
        }
    }

    /// Folds another stream's usage into this one (times and counts add,
    /// histograms merge bucketwise). Used by serve-mode aggregation;
    /// fold in tag-sorted stream order for deterministic float sums.
    pub fn merge(&mut self, other: &UsageReport) {
        self.span += other.span;
        self.busy += other.busy;
        self.backpressure += other.backpressure;
        self.free += other.free;
        self.idle += other.idle;
        self.transfers += other.transfers;
        self.bursts += other.bursts;
        self.delay.merge(&other.delay);
        self.burst_len.merge(&other.burst_len);
    }
}

/// Streaming bus-usage analyzer. Fixed-size state: feed any number of
/// events through [`BusUsage::push`] without memory growth.
#[derive(Clone, Debug)]
pub struct BusUsage {
    last_at: f64,
    transfer_active: bool,
    /// Time at which the most recent arbitration settles.
    arb_until: f64,
    /// Requests asserted and not yet granted bus mastership.
    pending: u32,
    busy: f64,
    backpressure: f64,
    free: f64,
    idle: f64,
    transfers: u64,
    bursts: u64,
    burst_len: u64,
    delay: LogHistogram,
    burst_hist: LogHistogram,
}

impl Default for BusUsage {
    fn default() -> Self {
        BusUsage::new()
    }
}

impl BusUsage {
    /// Creates an analyzer with the time origin at 0.
    #[must_use]
    pub fn new() -> Self {
        BusUsage {
            last_at: 0.0,
            transfer_active: false,
            arb_until: f64::NEG_INFINITY,
            pending: 0,
            busy: 0.0,
            backpressure: 0.0,
            free: 0.0,
            idle: 0.0,
            transfers: 0,
            bursts: 0,
            burst_len: 0,
            delay: LogHistogram::new(),
            burst_hist: LogHistogram::new(),
        }
    }

    /// Classifies the interval since the previous event, then folds the
    /// event into the bus state. Allocation-free.
    pub fn push(&mut self, event: &TraceEvent) {
        let at = event.at.as_f64();
        self.account(at);
        match event.kind {
            TraceKind::Request { .. } => self.pending += 1,
            TraceKind::ArbitrationStart { completes, .. } => {
                let completes = completes.as_f64();
                if completes > self.arb_until {
                    self.arb_until = completes;
                }
            }
            TraceKind::TransferStart { .. } => {
                self.pending = self.pending.saturating_sub(1);
                self.transfer_active = true;
            }
            TraceKind::TransferEnd { wait, .. } => {
                self.transfer_active = false;
                self.transfers += 1;
                self.burst_len += 1;
                self.delay.record(wait);
            }
            // Coherence events annotate the completion that precedes
            // them at the same timestamp; they do not change bus state.
            TraceKind::Coherence { .. } => {}
        }
    }

    /// Splits `[self.last_at, at)` across the four classes.
    fn account(&mut self, at: f64) {
        let mut from = self.last_at;
        if at <= from {
            return;
        }
        self.last_at = at;
        if self.transfer_active {
            self.busy += at - from;
            return;
        }
        // An unresolved arbitration may end inside the interval: charge
        // the prefix to backpressure and re-classify the remainder.
        if from < self.arb_until {
            let until = if at < self.arb_until {
                at
            } else {
                self.arb_until
            };
            self.backpressure += until - from;
            from = until;
            if from >= at {
                return;
            }
        }
        if self.pending > 0 {
            self.free += at - from;
        } else {
            self.idle += at - from;
            self.close_burst();
        }
    }

    /// Ends the current burst (if any) and records its length.
    fn close_burst(&mut self) {
        if self.burst_len > 0 {
            self.bursts += 1;
            self.burst_hist.record(self.burst_len as f64);
            self.burst_len = 0;
        }
    }

    /// Freezes the analyzer into a [`UsageReport`], closing any burst
    /// still open at end-of-trace.
    #[must_use]
    pub fn finish(mut self) -> UsageReport {
        self.close_burst();
        UsageReport {
            span: self.last_at,
            busy: self.busy,
            backpressure: self.backpressure,
            free: self.free,
            idle: self.idle,
            transfers: self.transfers,
            bursts: self.bursts,
            delay: HistogramSnapshot::of(&self.delay),
            burst_len: HistogramSnapshot::of(&self.burst_hist),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busarb_types::{AgentId, Time};

    fn ev(at: f64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: Time::from(at),
            kind,
        }
    }

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    #[test]
    fn classifies_all_four_interval_kinds() {
        let mut u = BusUsage::new();
        // 0..1: idle (no demand). Request at 1.
        u.push(&ev(1.0, TraceKind::Request { agent: id(1) }));
        // 1..1.5: free (pending, no arbitration recorded yet). Arb wins
        // at 1.5, settling at 2.0.
        u.push(&ev(
            1.5,
            TraceKind::ArbitrationStart {
                winner: id(1),
                completes: Time::from(2.0),
            },
        ));
        // 1.5..2.0: backpressure; 2.0..2.5: free (granted, bus idle).
        u.push(&ev(2.5, TraceKind::TransferStart { agent: id(1) }));
        // 2.5..3.5: busy.
        u.push(&ev(
            3.5,
            TraceKind::TransferEnd {
                agent: id(1),
                wait: 2.5,
            },
        ));
        let r = u.finish();
        assert_eq!(r.span, 3.5);
        assert_eq!(r.idle, 1.0);
        assert_eq!(r.free, 1.0);
        assert_eq!(r.backpressure, 0.5);
        assert_eq!(r.busy, 1.0);
        assert_eq!(r.transfers, 1);
        assert_eq!(r.bursts, 1);
        assert_eq!(r.delay.count, 1);
        assert_eq!(r.delay.sum, 2.5);
        assert!((r.busy_fraction() - 1.0 / 3.5).abs() < 1e-12);
    }

    #[test]
    fn idle_gap_splits_bursts() {
        let mut u = BusUsage::new();
        for (start, end) in [(0.0, 1.0), (1.0, 2.0), (5.0, 6.0)] {
            u.push(&ev(start, TraceKind::Request { agent: id(1) }));
            u.push(&ev(start, TraceKind::TransferStart { agent: id(1) }));
            u.push(&ev(
                end,
                TraceKind::TransferEnd {
                    agent: id(1),
                    wait: end - start,
                },
            ));
        }
        let r = u.finish();
        // Transfers at 0-1, 1-2 form one burst; the idle gap 2..5 closes
        // it; the last transfer is its own burst.
        assert_eq!(r.bursts, 2);
        assert_eq!(r.burst_len.count, 2);
        assert_eq!(r.burst_len.min, 1.0);
        assert_eq!(r.burst_len.max, 2.0);
        assert_eq!(r.idle, 3.0);
        assert_eq!(r.busy, 3.0);
    }

    #[test]
    fn merge_adds_components() {
        let mut u = BusUsage::new();
        u.push(&ev(1.0, TraceKind::Request { agent: id(1) }));
        let mut a = u.clone().finish();
        let b = u.finish();
        a.merge(&b);
        assert_eq!(a.span, 2.0);
        assert_eq!(a.idle, 2.0);
        let empty = UsageReport::empty();
        let mut c = a.clone();
        c.merge(&empty);
        assert_eq!(c.span, a.span);
        assert_eq!(c.transfers, a.transfers);
    }
}
