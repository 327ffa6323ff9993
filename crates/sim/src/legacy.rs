//! The legacy per-agent event loop, kept as the equivalence oracle for
//! the struct-of-arrays runner in [`crate::system`].
//!
//! This is the pre-plane implementation preserved intact: per-agent
//! `VecDeque` request queues, a boxed-slice of per-agent structs, and the
//! reference `BinaryHeap` event queue ([`HeapEventQueue`]) instead of the
//! slot calendar. It shares **no** hot-path data structures with the
//! plane-based runner — different queue discipline implementation,
//! different agent bookkeeping — so agreement between the two paths is
//! meaningful evidence, not a tautology. [`Simulation::run_legacy`]
//! (`crate::Simulation::run_legacy`) exposes it; the
//! `soa_equiv` property test drives both paths across every protocol and
//! start rule and requires bit-for-bit identical `RunReport`s.
//!
//! Keep this module boring: when the simulator's *semantics* change, both
//! runners must change in lock-step, but performance work belongs in
//! `system.rs` only.

use std::collections::VecDeque;

use busarb_core::{Arbiter, Grant};
use busarb_mem::CoherenceSystem;
use busarb_obs::{open_file_sink, MetricsRegistry, TraceHeader, TraceSink, TRACE_SCHEMA};
use busarb_stats::{BatchMeans, BatchTally, Cdf, Summary};
use busarb_types::{AgentId, Priority, Time, TraceEvent};
use busarb_workload::DrawEngine;

use crate::config::{ArbitrationStartRule, SystemConfig};
use crate::event::{Event, HeapEventQueue};
use crate::report::RunReport;
use crate::trace::{Trace, TraceKind};

/// Per-agent runtime state (the array-of-structs layout the plane runner
/// replaced).
#[derive(Clone, Debug)]
struct AgentState {
    /// Arrival time and class of outstanding requests, oldest first.
    outstanding: VecDeque<(Time, Priority)>,
    /// With multiple outstanding requests: a request generation that found
    /// the agent at its limit and is waiting for a completion.
    blocked_issue: bool,
}

/// The live state of one legacy-path run, generic over the draw engine
/// exactly like the plane runner (engine semantics are part of the
/// lock-step contract).
pub(crate) struct Runner<'c, E: DrawEngine> {
    config: &'c SystemConfig,
    arbiter: Box<dyn Arbiter>,
    draws: E,
    queue: HeapEventQueue,
    agents: Vec<AgentState>,
    /// Private MESI caches for closed-loop scenarios (lock-step with the
    /// plane runner's field of the same name).
    mem: Option<CoherenceSystem>,

    /// Agent currently transferring, if any.
    transferring: Option<AgentId>,
    /// Winner chosen by an arbitration still settling on the lines.
    arb_in_flight: Option<Grant>,
    /// Winner of a completed arbitration, waiting for the bus.
    next_master: Option<Grant>,

    bm: BatchMeans,
    tally: BatchTally,
    cdf: Option<Cdf>,
    warmup_remaining: usize,
    warmup_end: Time,
    last_counted: Time,
    events: u64,
    grants: u64,
    arbitrations: u64,
    trace: Trace,
    observing: bool,
    export: Option<Box<dyn TraceSink>>,
    metrics: MetricsRegistry,
    per_agent_wait: Vec<Summary>,
    ordinary_wait: Summary,
    urgent_wait: Summary,
}

impl<'c, E: DrawEngine> Runner<'c, E> {
    pub(crate) fn new(config: &'c SystemConfig, arbiter: Box<dyn Arbiter>) -> Self {
        let n = config.scenario.agents();
        assert_eq!(
            arbiter.agents(),
            n,
            "arbiter sized for {} agents but the scenario has {n}",
            arbiter.agents()
        );
        let bm = BatchMeans::new(config.batches).expect("validated batch config");
        let tally =
            BatchTally::new(n as usize, config.batches.batches).expect("validated batch config");
        let export = config.trace_export.as_ref().map(|ex| {
            let header = TraceHeader {
                schema: TRACE_SCHEMA.to_string(),
                protocol: arbiter.name().to_string(),
                agents: n,
                seed: config.seed,
                warmup_samples: config.warmup_samples as u64,
                batches: config.batches.batches as u64,
                samples_per_batch: config.batches.samples_per_batch as u64,
                confidence: config.batches.confidence,
            };
            match open_file_sink(&ex.path, ex.format, &header) {
                Ok(sink) => sink,
                Err(e) => panic!("cannot open trace export {}: {e}", ex.path.display()),
            }
        });
        Runner {
            config,
            arbiter,
            draws: E::for_scenario(config.seed, &config.scenario),
            queue: HeapEventQueue::new(),
            agents: vec![
                AgentState {
                    outstanding: VecDeque::new(),
                    blocked_issue: false,
                };
                n as usize
            ],
            mem: config
                .scenario
                .coherence()
                .map(|c| CoherenceSystem::new(n, *c)),
            transferring: None,
            arb_in_flight: None,
            next_master: None,
            bm,
            tally,
            cdf: config.collect_cdf.then(Cdf::new),
            warmup_remaining: config.warmup_samples,
            warmup_end: Time::ZERO,
            last_counted: Time::ZERO,
            events: 0,
            grants: 0,
            arbitrations: 0,
            trace: if config.trace_limit > 0 {
                Trace::with_limit(config.trace_limit)
            } else {
                Trace::disabled()
            },
            observing: config.trace_limit > 0 || export.is_some(),
            export,
            metrics: MetricsRegistry::new(n),
            per_agent_wait: vec![Summary::new(); n as usize],
            ordinary_wait: Summary::new(),
            urgent_wait: Summary::new(),
        }
    }

    fn think_time(&mut self, agent: AgentId) -> Time {
        self.draws.think_time(agent)
    }

    fn emit(&mut self, at: Time, kind: TraceKind) {
        self.trace.record(at, kind);
        if let Some(sink) = &mut self.export {
            let event = TraceEvent { at, kind };
            if let Err(e) = sink.record(&event) {
                panic!("trace export failed: {e}");
            }
        }
    }

    pub(crate) fn run(mut self) -> RunReport {
        for agent in AgentId::all(self.config.scenario.agents()) {
            let mut first = match &mut self.mem {
                Some(mem) => {
                    let draws = &mut self.draws;
                    mem.next_miss(agent, |a| draws.uniform(a))
                }
                None => self.think_time(agent),
            };
            if self.config.initial_stagger {
                first = first * self.draws.uniform(agent);
            }
            self.queue.schedule(first, Event::RequestArrival(agent));
        }

        let needed = self.config.warmup_samples + self.config.batches.total_samples();
        let max_events = 200 * needed as u64 + 10_000_000;
        while let Some((t, event)) = self.queue.pop() {
            self.events += 1;
            self.metrics.on_event(t);
            match event {
                Event::RequestArrival(agent) => self.on_generation(t, agent),
                Event::ArbitrationComplete => self.on_arbitration_complete(t),
                Event::TransactionEnd => self.on_transaction_end(t),
            }
            if self.bm.is_complete() {
                break;
            }
            assert!(
                self.events < max_events,
                "event budget exceeded: protocol appears deadlocked"
            );
        }
        self.finish()
    }

    fn on_generation(&mut self, t: Time, agent: AgentId) {
        let limit = self.config.max_outstanding as usize;
        let state = &mut self.agents[agent.index()];
        if state.outstanding.len() >= limit {
            state.blocked_issue = true;
            return;
        }
        self.issue(t, agent);
        if self.config.max_outstanding > 1 {
            let next = self.think_time(agent);
            self.queue.schedule(t + next, Event::RequestArrival(agent));
        }
    }

    fn issue(&mut self, t: Time, agent: AgentId) {
        let priority = if self.config.urgent_fraction > 0.0
            && self.draws.uniform(agent) < self.config.urgent_fraction
        {
            Priority::Urgent
        } else {
            Priority::Ordinary
        };
        self.agents[agent.index()]
            .outstanding
            .push_back((t, priority));
        self.arbiter.on_request(t, agent, priority);
        self.metrics.on_request(self.arbiter.pending() as u32);
        if self.observing {
            self.emit(t, TraceKind::Request { agent });
        }
        self.try_start_arbitration(t, false);
    }

    fn try_start_arbitration(&mut self, t: Time, at_transaction_boundary: bool) {
        if self.arb_in_flight.is_some() || self.next_master.is_some() {
            return;
        }
        if self.arbiter.pending() == 0 {
            return;
        }
        if self.config.start_rule == ArbitrationStartRule::TransactionAligned
            && !at_transaction_boundary
            && self.transferring.is_some()
        {
            return;
        }
        let grant = self
            .arbiter
            .arbitrate(t)
            .expect("pending requests imply a grant");
        self.grants += 1;
        self.arbitrations += u64::from(grant.arbitrations);
        self.metrics.on_grant(t, grant.arbitrations);
        let per_arbitration = match self.config.overhead_model {
            Some(model) => model.overhead(self.arbiter.layout().map(|l| l.width())),
            None => self.config.arbitration_overhead,
        };
        let overhead = per_arbitration * f64::from(grant.arbitrations);
        if self.observing {
            self.emit(
                t,
                TraceKind::ArbitrationStart {
                    winner: grant.agent,
                    completes: t + overhead,
                },
            );
        }
        self.arb_in_flight = Some(grant);
        self.queue
            .schedule(t + overhead, Event::ArbitrationComplete);
    }

    fn on_arbitration_complete(&mut self, t: Time) {
        let grant = self
            .arb_in_flight
            .take()
            .expect("completion implies an in-flight arbitration");
        self.next_master = Some(grant);
        if self.transferring.is_none() {
            self.start_transfer(t);
        }
    }

    fn start_transfer(&mut self, t: Time) {
        let grant = self.next_master.take().expect("a master is ready");
        self.transferring = Some(grant.agent);
        self.metrics.on_transfer_start();
        if self.observing {
            self.emit(t, TraceKind::TransferStart { agent: grant.agent });
        }
        self.queue
            .schedule(t + Time::TRANSACTION, Event::TransactionEnd);
        self.try_start_arbitration(t, true);
    }

    fn on_transaction_end(&mut self, t: Time) {
        let agent = self
            .transferring
            .take()
            .expect("a transfer was in progress");
        let state = &mut self.agents[agent.index()];
        let (arrived, priority) = state
            .outstanding
            .pop_front()
            .expect("the master had an outstanding request");
        let wait = (t - arrived).as_f64();
        self.metrics.on_completion(agent, wait);
        if self.observing {
            self.emit(t, TraceKind::TransferEnd { agent, wait });
        }
        self.record(t, agent, priority, wait);

        if self.mem.is_some() {
            self.complete_coherence(t, agent);
        } else if self.config.max_outstanding == 1 {
            let next = self.think_time(agent);
            self.queue.schedule(t + next, Event::RequestArrival(agent));
        } else if self.agents[agent.index()].blocked_issue {
            self.agents[agent.index()].blocked_issue = false;
            self.issue(t, agent);
            let next = self.think_time(agent);
            self.queue.schedule(t + next, Event::RequestArrival(agent));
        }

        if self.next_master.is_some() {
            self.start_transfer(t);
        } else {
            self.try_start_arbitration(t, true);
        }
    }

    /// Closed-loop epilogue (lock-step with the plane runner's method of
    /// the same name): commit the MESI transition, attribute coherence
    /// counters, and schedule the next miss.
    fn complete_coherence(&mut self, t: Time, agent: AgentId) {
        let done = {
            let mem = self.mem.as_mut().expect("checked by the caller");
            let metrics = &mut self.metrics;
            mem.complete(agent, |victim| metrics.on_invalidation(victim))
        };
        self.metrics.on_coherence(agent, done.op);
        if self.observing {
            self.emit(
                t,
                TraceKind::Coherence {
                    agent,
                    op: done.op,
                    invalidated: done.invalidated,
                },
            );
        }
        let gap = {
            let mem = self.mem.as_mut().expect("checked by the caller");
            let draws = &mut self.draws;
            mem.next_miss(agent, |a| draws.uniform(a))
        };
        self.queue.schedule(t + gap, Event::RequestArrival(agent));
    }

    fn record(&mut self, t: Time, agent: AgentId, priority: Priority, wait: f64) {
        if self.warmup_remaining > 0 {
            self.warmup_remaining -= 1;
            if self.warmup_remaining == 0 {
                self.warmup_end = t;
            }
            return;
        }
        if self.bm.is_complete() {
            return;
        }
        self.bm.record(wait);
        self.tally.record(agent.index());
        self.per_agent_wait[agent.index()].record(wait);
        match priority {
            Priority::Urgent => self.urgent_wait.record(wait),
            Priority::Ordinary => self.ordinary_wait.record(wait),
        }
        if let Some(cdf) = &mut self.cdf {
            cdf.record(wait);
        }
        self.last_counted = t;
        let spb = self.config.batches.samples_per_batch;
        if self.bm.samples_recorded().is_multiple_of(spb) {
            self.tally.close_batch();
        }
    }

    fn finish(mut self) -> RunReport {
        if let Some(mut sink) = self.export.take() {
            if let Err(e) = sink.finish() {
                panic!("trace export failed: {e}");
            }
        }
        let mean_wait = self
            .bm
            .estimate()
            .expect("run loop exits only when batches are complete");
        let measured_time = self.last_counted - self.warmup_end;
        let utilization = if measured_time > Time::ZERO {
            self.bm.samples_recorded() as f64 / measured_time.as_f64()
        } else {
            0.0
        };
        RunReport {
            protocol: self.arbiter.name().to_string(),
            mean_wait,
            wait_summary: *self.bm.overall(),
            wait_batch_means: self.bm.batch_means(),
            per_agent_wait: self.per_agent_wait,
            ordinary_wait: self.ordinary_wait,
            urgent_wait: self.urgent_wait,
            tally: self.tally,
            utilization,
            cdf: self.cdf,
            events: self.events,
            grants: self.grants,
            arbitrations: self.arbitrations,
            end_time: self.last_counted,
            measured_time,
            trace: self.trace,
            metrics: self.metrics.snapshot(),
        }
    }
}
