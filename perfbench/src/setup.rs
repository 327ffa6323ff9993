//! A cell's set-up: what the program does for one cell before its first
//! simulated event, rebuilt from the crates' public parts.
//!
//! The simulator's `Runner::new` is private, so the benchmark cannot call
//! it. [`setup_secs`] times the same steps in the same order: the cell's
//! scenario and configuration, `Simulation::new`, the arbiter as the
//! program dispatches it, and [`CellState`], a field-for-field copy of
//! the state `Runner::new` allocates. A change to `Runner::new` itself
//! does not move these figures until [`CellState`] is changed with it.

use std::time::Instant;

use busarb_core::{
    AdaptiveArbiter, Arbiter, AssuredAccess, BatchingRule, CentralFcfs, CentralRoundRobin,
    CounterStrategy, DistributedFcfs, DistributedRoundRobin, FixedPriority, HybridRrFcfs,
    ProtocolKind, RotatingPriority, TicketFcfs,
};
use busarb_mem::CoherenceSystem;
use busarb_obs::MetricsRegistry;
use busarb_sim::{CalendarQueue, Simulation, SystemConfig, Trace};
use busarb_stats::{BatchMeans, BatchTally, Cdf, Summary};
use busarb_types::{AgentMask, Time};
use busarb_workload::{DrawEngine, ReferenceEngine};

use crate::util::secs;

/// How the program hands a cell's arbiter to the event loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dispatch {
    /// `Simulation::run_kind`: the concrete protocol type.
    Concrete,
    /// `Simulation::run` with a `Box<dyn Arbiter>`.
    Boxed,
}

/// Something done with an arbiter of one concrete protocol type.
pub(crate) trait WithArbiter {
    /// The result.
    type Out;
    /// Does it; `make` builds a fresh arbiter each call.
    fn call<A: Arbiter>(self, make: impl Fn() -> A) -> Self::Out;
}

/// Calls `w` with a constructor of the concrete type
/// `Simulation::run_kind` builds for `kind` at `n` agents.
///
/// # Panics
///
/// The constructor panics on an agent count the protocol rejects.
pub(crate) fn with_concrete<W: WithArbiter>(kind: ProtocolKind, n: u32, w: W) -> W::Out {
    let expect = "benchmark sizes are valid";
    match kind {
        ProtocolKind::FixedPriority => w.call(|| FixedPriority::new(n).expect(expect)),
        ProtocolKind::AssuredAccessIdleBatch => {
            w.call(|| AssuredAccess::new(n, BatchingRule::IdleBatch).expect(expect))
        }
        ProtocolKind::AssuredAccessFairnessRelease => {
            w.call(|| AssuredAccess::new(n, BatchingRule::FairnessRelease).expect(expect))
        }
        ProtocolKind::AssuredAccessClosedBatch => {
            w.call(|| AssuredAccess::new(n, BatchingRule::ClosedBatch).expect(expect))
        }
        ProtocolKind::RoundRobin => w.call(|| DistributedRoundRobin::new(n).expect(expect)),
        ProtocolKind::Fcfs1 => {
            w.call(|| DistributedFcfs::new(n, CounterStrategy::PerLostArbitration).expect(expect))
        }
        ProtocolKind::Fcfs2 => {
            w.call(|| DistributedFcfs::new(n, CounterStrategy::PerArrival).expect(expect))
        }
        ProtocolKind::CentralRoundRobin => w.call(|| CentralRoundRobin::new(n).expect(expect)),
        ProtocolKind::CentralFcfs => w.call(|| CentralFcfs::new(n).expect(expect)),
        ProtocolKind::Hybrid => w.call(|| HybridRrFcfs::new(n).expect(expect)),
        ProtocolKind::Adaptive => w.call(|| AdaptiveArbiter::new(n).expect(expect)),
        ProtocolKind::RotatingRr => w.call(|| RotatingPriority::new(n).expect(expect)),
        ProtocolKind::TicketFcfs => w.call(|| TicketFcfs::new(n).expect(expect)),
        _ => w.call(|| kind.build(n).expect(expect)),
    }
}

/// The state `Runner::new` builds for one cell, field for field: the
/// arbiter, the reference draw engine, the calendar, the agent planes,
/// the MESI caches, batch means and tally, the CDF, the bounded trace,
/// the metrics registry and the wait summaries. The export sink is left
/// out; no timed cell exports.
#[allow(dead_code)] // built to be dropped: its allocations are the cost
struct CellState<A: Arbiter, const W: usize> {
    arbiter: A,
    draws: ReferenceEngine,
    queue: CalendarQueue<W>,
    arrived: Box<[Time]>,
    urgent: Box<[u64]>,
    head: Box<[u32]>,
    len: Box<[u32]>,
    blocked: AgentMask<W>,
    mem: Option<CoherenceSystem>,
    bm: BatchMeans,
    tally: BatchTally,
    cdf: Option<Cdf>,
    trace: Trace,
    metrics: MetricsRegistry,
    per_agent_wait: Vec<Summary>,
    ordinary_wait: Summary,
    urgent_wait: Summary,
}

impl<A: Arbiter, const W: usize> CellState<A, W> {
    fn new(config: &SystemConfig, arbiter: A) -> Self {
        let n = config.scenario.agents();
        let slots = n as usize * config.max_outstanding as usize;
        CellState {
            arbiter,
            draws: ReferenceEngine::for_scenario(config.seed, &config.scenario),
            queue: CalendarQueue::new(),
            arrived: vec![Time::ZERO; slots].into_boxed_slice(),
            urgent: vec![0u64; slots.div_ceil(64).max(1)].into_boxed_slice(),
            head: vec![0u32; n as usize].into_boxed_slice(),
            len: vec![0u32; n as usize].into_boxed_slice(),
            blocked: AgentMask::new(),
            mem: config
                .scenario
                .coherence()
                .map(|c| CoherenceSystem::new(n, *c)),
            bm: BatchMeans::new(config.batches).expect("validated batch config"),
            tally: BatchTally::new(n as usize, config.batches.batches)
                .expect("validated batch config"),
            cdf: config.collect_cdf.then(Cdf::new),
            trace: if config.trace_limit > 0 {
                Trace::with_limit(config.trace_limit)
            } else {
                Trace::disabled()
            },
            metrics: MetricsRegistry::new(n),
            per_agent_wait: vec![Summary::new(); n as usize],
            ordinary_wait: Summary::new(),
            urgent_wait: Summary::new(),
        }
    }
}

/// Builds the arbiter and the cell state, stops the clock, then drops
/// them.
struct Build<'a> {
    start: Instant,
    config: &'a SystemConfig,
}

impl WithArbiter for Build<'_> {
    type Out = f64;

    fn call<A: Arbiter>(self, make: impl Fn() -> A) -> f64 {
        // The calendar width, as `Simulation::run_mono` picks it.
        if self.config.scenario.agents() <= 64 {
            let state = CellState::<A, 1>::new(self.config, make());
            let t = secs(self.start);
            drop(state);
            t
        } else {
            let state = CellState::<A, 2>::new(self.config, make());
            let t = secs(self.start);
            drop(state);
            t
        }
    }
}

/// Host seconds to set one cell up as the program does before its first
/// event: `config()` (scenario and configuration), `Simulation::new`, the
/// arbiter as `dispatch` builds it, and the runner's state. What was
/// built is dropped after the clock stops.
///
/// # Panics
///
/// Panics on a configuration `Simulation::new` or the arbiter rejects.
pub fn setup_secs(
    kind: ProtocolKind,
    dispatch: Dispatch,
    config: impl FnOnce() -> SystemConfig,
) -> f64 {
    let start = Instant::now();
    let sim = Simulation::new(config()).expect("benchmark configs are valid");
    let n = sim.config().scenario.agents();
    let build = Build {
        start,
        config: sim.config(),
    };
    match dispatch {
        Dispatch::Boxed => build.call(|| kind.build(n).expect("benchmark sizes are valid")),
        Dispatch::Concrete => with_concrete(kind, n, build),
    }
}
