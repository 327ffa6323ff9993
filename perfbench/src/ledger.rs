//! The per-layer cost ledger.
//!
//! One cell is run with the in-memory trace on. A shadow of the
//! simulator's event loop, assembled from the crates' public parts (the
//! calendar, the arbiter, the draw engine, the MESI caches), then walks
//! that cell again and records, per layer, the exact sequence of calls
//! the loop made. The trace and the cell's report are its oracle: every
//! popped arrival must match a traced request at the same instant, every
//! arbitration the traced winner, every coherence completion the traced
//! op, and the pop count must equal `RunReport.events`.
//!
//! Each layer's call sequence is then replayed alone, timed as one
//! batch, so no clock read sits between two calls. Every host
//! nanosecond of an event lands in exactly one row — the run's pre-event
//! set-up, calendar, core, workload draws, stats recording, metrics
//! registry, MESI caches — and
//! what the full loop spends beyond the rows' sum is reported as the
//! residual (event dispatch, agent planes, control flow, and whatever
//! the rows lose by running out of the loop's cache context).

use std::time::Instant;

use busarb_core::{Arbiter, ProtocolKind};
use busarb_experiments::protocol_slug;
use busarb_mem::CoherenceSystem;
use busarb_obs::{
    BinarySink, JsonlSink, MetricsRegistry, TraceHeader, TraceReader, TraceSink, TRACE_SCHEMA,
};
use busarb_sim::{ArbitrationStartRule, CalendarQueue, Event, RunReport, Simulation, SystemConfig};
use busarb_stats::{BatchMeans, BatchTally, Cdf, Summary};
use busarb_types::{AgentId, CoherenceOp, Priority, Time, TraceEvent, TraceKind};
use busarb_workload::{DrawEngine, DrawEngineKind, ReferenceEngine, Scenario};

use crate::setup::{setup_secs, with_concrete, Dispatch, WithArbiter};
use crate::util::median;

/// One cell of a workload's ledger roster.
#[derive(Clone, Debug)]
pub struct LedgerCell {
    /// Protocol run in the cell.
    pub kind: ProtocolKind,
    /// The cell's full configuration (reference engine, greedy start,
    /// one outstanding request, no urgent traffic).
    pub config: SystemConfig,
}

#[derive(Clone, Copy, Debug)]
enum CalOp {
    Arrival(Time, AgentId),
    Schedule(Time, Event),
    Pop,
}

#[derive(Clone, Copy, Debug)]
enum CoreOp {
    Request(Time, AgentId),
    Arbitrate(Time, AgentId),
}

#[derive(Clone, Copy, Debug)]
enum RegOp {
    Event(Time),
    Request(u32),
    Grant(Time, u32),
    TransferStart,
    Completion(AgentId, f64),
    Coherence(AgentId, CoherenceOp),
    Invalidation(AgentId),
}

#[derive(Clone, Copy, Debug)]
enum DrawOp {
    Think(AgentId),
    Uniform(AgentId),
}

#[derive(Clone, Copy, Debug)]
enum MemOp {
    NextMiss(AgentId),
    Complete(AgentId),
}

/// Everything the shadow loop saw of one cell, per layer.
#[derive(Debug)]
struct Recording {
    cell: LedgerCell,
    report: RunReport,
    trace: Vec<TraceEvent>,
    cal: Vec<CalOp>,
    core: Vec<CoreOp>,
    reg: Vec<RegOp>,
    draws: Vec<DrawOp>,
    samples: Vec<(usize, f64)>,
    mem: Vec<MemOp>,
    mem_uniforms: Vec<f64>,
    refs: u64,
    misses: u64,
    invalidations: u64,
}

/// Runs `cell` with its trace on and records every layer's calls.
///
/// # Errors
///
/// Describes the first place the shadow loop disagrees with the trace or
/// the report — the ledger of such a cell would not describe the run.
fn record(cell: &LedgerCell) -> Result<Recording, String> {
    let config = &cell.config;
    if config.max_outstanding != 1
        || config.urgent_fraction != 0.0
        || config.start_rule != ArbitrationStartRule::Greedy
        || config.draw_engine != DrawEngineKind::Reference
        || config.overhead_model.is_some()
    {
        return Err("ledger cells use the default timing rules and the reference engine".into());
    }
    let budget = 8 * (config.warmup_samples + config.batches.total_samples()) + 1024;
    let traced = config.clone().with_trace(budget);
    let report = Simulation::new(traced)
        .map_err(|e| e.to_string())?
        .run_kind(cell.kind)
        .map_err(|e| e.to_string())?;
    if report.trace.dropped() > 0 {
        return Err("trace buffer overflowed".into());
    }
    let trace = report.trace.events().to_vec();
    walk(cell, report, trace)
}

/// Walks the shadow loop over a recorded run and checks it against the
/// trace and the report.
fn walk(cell: &LedgerCell, report: RunReport, trace: Vec<TraceEvent>) -> Result<Recording, String> {
    let mut shadow = Shadow::new(cell, &trace)?;
    shadow.run()?;
    let consumed = shadow.i;
    let Shadow {
        cal,
        core,
        reg,
        draws,
        samples,
        mem,
        mem_uniforms,
        refs,
        misses,
        invalidations,
        events,
        ..
    } = shadow;
    if events != report.events {
        return Err(format!(
            "shadow loop popped {events} events, the run {}",
            report.events
        ));
    }
    if consumed != trace.len() {
        return Err(format!(
            "shadow loop consumed {consumed} of {} trace events",
            trace.len()
        ));
    }
    let rec = Recording {
        cell: cell.clone(),
        report,
        trace,
        cal,
        core,
        reg,
        draws,
        samples,
        mem,
        mem_uniforms,
        refs,
        misses,
        invalidations,
    };
    let fresh = MetricsRegistry::new(cell.config.scenario.agents());
    if replay_registry(fresh, &rec.reg).snapshot() != rec.report.metrics {
        return Err("registry replay differs from the run's metrics snapshot".into());
    }
    Ok(rec)
}

/// The shadow event loop. Mirrors the simulator's runner call for call.
struct Shadow<'a> {
    config: &'a SystemConfig,
    trace: &'a [TraceEvent],
    i: usize,
    arbiter: Box<dyn Arbiter>,
    engine: ReferenceEngine,
    queue: CalendarQueue<2>,
    mem_sys: Option<CoherenceSystem>,
    arrived: Vec<Time>,
    transferring: Option<AgentId>,
    arb_in_flight: Option<AgentId>,
    next_master: Option<AgentId>,
    warmup_left: usize,
    events: u64,
    cal: Vec<CalOp>,
    core: Vec<CoreOp>,
    reg: Vec<RegOp>,
    draws: Vec<DrawOp>,
    samples: Vec<(usize, f64)>,
    mem: Vec<MemOp>,
    mem_uniforms: Vec<f64>,
    refs: u64,
    misses: u64,
    invalidations: u64,
}

impl<'a> Shadow<'a> {
    fn new(cell: &'a LedgerCell, trace: &'a [TraceEvent]) -> Result<Self, String> {
        let config = &cell.config;
        let n = config.scenario.agents();
        Ok(Shadow {
            config,
            trace,
            i: 0,
            arbiter: cell.kind.build(n).map_err(|e| e.to_string())?,
            engine: ReferenceEngine::for_scenario(config.seed, &config.scenario),
            queue: CalendarQueue::new(),
            mem_sys: config
                .scenario
                .coherence()
                .map(|c| CoherenceSystem::new(n, *c)),
            arrived: vec![Time::ZERO; n as usize],
            transferring: None,
            arb_in_flight: None,
            next_master: None,
            warmup_left: config.warmup_samples,
            events: 0,
            cal: Vec::new(),
            core: Vec::new(),
            reg: Vec::new(),
            draws: Vec::new(),
            samples: Vec::new(),
            mem: Vec::new(),
            mem_uniforms: Vec::new(),
            refs: 0,
            misses: 0,
            invalidations: 0,
        })
    }

    fn next_trace(&mut self, what: &str, at: Time) -> Result<TraceKind, String> {
        let Some(ev) = self.trace.get(self.i) else {
            return Err(format!("trace ended where the shadow expected {what}"));
        };
        if ev.at != at {
            return Err(format!(
                "{what} at {} but traced at {}",
                at.as_f64(),
                ev.at.as_f64()
            ));
        }
        self.i += 1;
        Ok(ev.kind)
    }

    /// The agent's time to its next request: a think-time draw, or the
    /// closed loop's run of cache hits up to the next miss.
    fn gap(&mut self, agent: AgentId) -> Time {
        if let Some(mem) = &mut self.mem_sys {
            self.mem.push(MemOp::NextMiss(agent));
            let (engine, draws, uniforms) =
                (&mut self.engine, &mut self.draws, &mut self.mem_uniforms);
            let gap = mem.next_miss(agent, |a| {
                draws.push(DrawOp::Uniform(a));
                let u = engine.uniform(a);
                uniforms.push(u);
                u
            });
            self.misses += 1;
            let reference = mem.config().reference_time;
            self.refs += (gap.as_f64() / reference).round() as u64;
            gap
        } else {
            self.draws.push(DrawOp::Think(agent));
            self.engine.think_time(agent)
        }
    }

    fn run(&mut self) -> Result<(), String> {
        let n = self.config.scenario.agents();
        for agent in AgentId::all(n) {
            let mut first = self.gap(agent);
            if self.config.initial_stagger {
                self.draws.push(DrawOp::Uniform(agent));
                first = first * self.engine.uniform(agent);
            }
            self.queue.schedule_arrival(first, agent);
            self.cal.push(CalOp::Arrival(first, agent));
        }
        let total = self.config.batches.total_samples();
        while let Some((t, event)) = self.queue.pop() {
            self.cal.push(CalOp::Pop);
            self.reg.push(RegOp::Event(t));
            self.events += 1;
            match event {
                Event::RequestArrival(agent) => self.on_arrival(t, agent)?,
                Event::ArbitrationComplete => {
                    self.next_master = self.arb_in_flight.take();
                    if self.transferring.is_none() {
                        self.start_transfer(t)?;
                    }
                }
                Event::TransactionEnd => self.on_transaction_end(t)?,
            }
            if self.samples.len() == total {
                return Ok(());
            }
        }
        Err("calendar drained before the batches filled".into())
    }

    fn on_arrival(&mut self, t: Time, agent: AgentId) -> Result<(), String> {
        match self.next_trace("a request", t)? {
            TraceKind::Request { agent: a } if a == agent => {}
            other => return Err(format!("popped agent {agent}'s arrival, traced {other:?}")),
        }
        self.arrived[agent.index()] = t;
        self.arbiter.on_request(t, agent, Priority::Ordinary);
        self.core.push(CoreOp::Request(t, agent));
        self.reg.push(RegOp::Request(self.arbiter.pending() as u32));
        self.try_start(t)
    }

    fn try_start(&mut self, t: Time) -> Result<(), String> {
        if self.arb_in_flight.is_some() || self.next_master.is_some() {
            return Ok(());
        }
        if self.arbiter.pending() == 0 {
            return Ok(());
        }
        let grant = self
            .arbiter
            .arbitrate(t)
            .ok_or("pending requests but no grant")?;
        let completes = match self.next_trace("an arbitration", t)? {
            TraceKind::ArbitrationStart { winner, completes } if winner == grant.agent => completes,
            other => return Err(format!("shadow granted {}, traced {other:?}", grant.agent)),
        };
        self.core.push(CoreOp::Arbitrate(t, grant.agent));
        self.reg.push(RegOp::Grant(t, grant.arbitrations));
        self.queue.schedule(completes, Event::ArbitrationComplete);
        self.cal
            .push(CalOp::Schedule(completes, Event::ArbitrationComplete));
        self.arb_in_flight = Some(grant.agent);
        Ok(())
    }

    fn start_transfer(&mut self, t: Time) -> Result<(), String> {
        let agent = self.next_master.take().ok_or("transfer without a winner")?;
        match self.next_trace("a transfer start", t)? {
            TraceKind::TransferStart { agent: a } if a == agent => {}
            other => return Err(format!("shadow started {agent}, traced {other:?}")),
        }
        self.transferring = Some(agent);
        self.reg.push(RegOp::TransferStart);
        let end = t + Time::TRANSACTION;
        self.queue.schedule(end, Event::TransactionEnd);
        self.cal.push(CalOp::Schedule(end, Event::TransactionEnd));
        self.try_start(t)
    }

    fn on_transaction_end(&mut self, t: Time) -> Result<(), String> {
        let agent = self
            .transferring
            .take()
            .ok_or("transaction end without a master")?;
        let wait = (t - self.arrived[agent.index()]).as_f64();
        match self.next_trace("a transfer end", t)? {
            TraceKind::TransferEnd { agent: a, wait: w } if a == agent && w == wait => {}
            other => {
                return Err(format!(
                    "shadow ended {agent} (wait {wait}), traced {other:?}"
                ))
            }
        }
        self.reg.push(RegOp::Completion(agent, wait));
        if self.warmup_left > 0 {
            self.warmup_left -= 1;
        } else {
            self.samples.push((agent.index(), wait));
        }
        if let Some(mem) = &mut self.mem_sys {
            self.mem.push(MemOp::Complete(agent));
            let reg = &mut self.reg;
            let done = mem.complete(agent, |victim| reg.push(RegOp::Invalidation(victim)));
            self.invalidations += u64::from(done.invalidated);
            self.reg.push(RegOp::Coherence(agent, done.op));
            match self.next_trace("a coherence completion", t)? {
                TraceKind::Coherence {
                    agent: a,
                    op,
                    invalidated,
                } if a == agent && op == done.op && invalidated == done.invalidated => {}
                other => return Err(format!("shadow completed {:?}, traced {other:?}", done.op)),
            }
        }
        let next = t + self.gap(agent);
        self.queue.schedule_arrival(next, agent);
        self.cal.push(CalOp::Arrival(next, agent));
        if self.next_master.is_some() {
            self.start_transfer(t)
        } else {
            self.try_start(t)
        }
    }
}

/// Median nanoseconds of `body` over `reps` runs, each on fresh state
/// from `setup` (not timed). `body`'s result goes through `black_box` so
/// the work is kept.
fn time_with<S, T>(reps: usize, mut setup: impl FnMut() -> S, mut body: impl FnMut(S) -> T) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let state = setup();
        let start = Instant::now();
        std::hint::black_box(body(state));
        samples.push(start.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// Median nanoseconds of `f` over `reps` runs.
fn time_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    time_with(reps, || (), |()| f())
}

fn replay_calendar(ops: &[CalOp]) -> u64 {
    let mut queue = CalendarQueue::<1>::new();
    let mut check = 0u64;
    for op in ops {
        match *op {
            CalOp::Arrival(t, agent) => queue.schedule_arrival(t, agent),
            CalOp::Schedule(t, event) => queue.schedule(t, event),
            CalOp::Pop => {
                if let Some((t, _)) = queue.pop() {
                    check = check.wrapping_add(t.as_f64().to_bits());
                }
            }
        }
    }
    check
}

fn replay_core<A: Arbiter>(mut arbiter: A, ops: &[CoreOp]) -> u64 {
    let mut check = 0u64;
    for op in ops {
        match *op {
            CoreOp::Request(t, agent) => {
                arbiter.on_request(t, agent, Priority::Ordinary);
                check += arbiter.pending() as u64;
            }
            CoreOp::Arbitrate(t, _) => {
                if let Some(grant) = arbiter.arbitrate(t) {
                    check = check
                        .wrapping_mul(31)
                        .wrapping_add(u64::from(grant.agent.get()));
                }
            }
        }
    }
    check
}

/// Checks that a fresh arbiter replaying the calls grants the run's winners.
fn core_winners(kind: ProtocolKind, n: u32, ops: &[CoreOp]) -> Result<(), String> {
    let mut arbiter = kind.build(n).map_err(|e| e.to_string())?;
    for op in ops {
        match *op {
            CoreOp::Request(t, agent) => arbiter.on_request(t, agent, Priority::Ordinary),
            CoreOp::Arbitrate(t, winner) => {
                let got = arbiter.arbitrate(t).map(|g| g.agent);
                if got != Some(winner) {
                    return Err(format!("{kind} replay granted {got:?}, the run {winner}"));
                }
            }
        }
    }
    Ok(())
}

/// Times the core replay on the concrete protocol type, as
/// `Simulation::run_kind` dispatches it.
fn time_core(kind: ProtocolKind, n: u32, ops: &[CoreOp], reps: usize) -> Result<f64, String> {
    struct Replay<'a> {
        ops: &'a [CoreOp],
        reps: usize,
    }
    impl WithArbiter for Replay<'_> {
        type Out = f64;
        fn call<A: Arbiter>(self, make: impl Fn() -> A) -> f64 {
            time_with(self.reps, make, |arbiter| replay_core(arbiter, self.ops))
        }
    }
    kind.build(n).map_err(|e| e.to_string())?;
    Ok(with_concrete(kind, n, Replay { ops, reps }))
}

/// Applies the recorded registry calls, in order, to `reg`.
fn replay_registry(mut reg: MetricsRegistry, ops: &[RegOp]) -> MetricsRegistry {
    for op in ops {
        match *op {
            RegOp::Event(t) => reg.on_event(t),
            RegOp::Request(pending) => reg.on_request(pending),
            RegOp::Grant(t, arbitrations) => reg.on_grant(t, arbitrations),
            RegOp::TransferStart => reg.on_transfer_start(),
            RegOp::Completion(agent, wait) => reg.on_completion(agent, wait),
            RegOp::Coherence(agent, op) => reg.on_coherence(agent, op),
            RegOp::Invalidation(victim) => reg.on_invalidation(victim),
        }
    }
    reg
}

fn time_draws(rec: &Recording, reps: usize) -> f64 {
    let config = &rec.cell.config;
    time_with(
        reps,
        || ReferenceEngine::for_scenario(config.seed, &config.scenario),
        |mut engine| {
            let mut sum = 0.0;
            for op in &rec.draws {
                sum += match *op {
                    DrawOp::Think(agent) => engine.think_time(agent).as_f64(),
                    DrawOp::Uniform(agent) => engine.uniform(agent),
                };
            }
            sum
        },
    )
}

/// Per-sample recording: batch means, the per-agent tally and the wait
/// summaries the runner keeps beside them.
fn time_batch_means(rec: &Recording, reps: usize) -> f64 {
    let config = &rec.cell.config;
    let n = config.scenario.agents() as usize;
    let per_batch = config.batches.samples_per_batch;
    let setup = || {
        let bm = BatchMeans::new(config.batches).expect("validated batch config");
        let tally = BatchTally::new(n, config.batches.batches).expect("validated batch config");
        (bm, tally, vec![Summary::new(); n], Summary::new())
    };
    time_with(
        reps,
        setup,
        |(mut bm, mut tally, mut per_agent, mut ordinary)| {
            let mut countdown = per_batch;
            for &(agent, wait) in &rec.samples {
                bm.record(wait);
                tally.record(agent);
                per_agent[agent].record(wait);
                ordinary.record(wait);
                countdown -= 1;
                if countdown == 0 {
                    tally.close_batch();
                    countdown = per_batch;
                }
            }
            (bm, tally, per_agent, ordinary)
        },
    )
}

fn time_cdf(rec: &Recording, reps: usize) -> f64 {
    time_with(reps, Cdf::new, |mut cdf| {
        for &(_, wait) in &rec.samples {
            cdf.record(wait);
        }
        cdf
    })
}

/// Times the MESI calls with the recorded uniforms fed back, so draw
/// time stays in the workload row. Returns (next_miss ns, complete ns).
fn time_mem(rec: &Recording, reps: usize) -> (f64, f64) {
    let Some(cfg) = rec.cell.config.scenario.coherence() else {
        return (0.0, 0.0);
    };
    let n = rec.cell.config.scenario.agents();
    // Each call depends on the state the other leaves, so they are timed
    // one by one; the clock pair's own cost is measured and taken off.
    let clock = time_ns(1000, || ());
    let (mut nm, mut cp) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let mut mem = CoherenceSystem::new(n, *cfg);
        let mut uniforms = rec.mem_uniforms.iter().copied();
        let (mut t_nm, mut t_cp) = (0.0, 0.0);
        for op in &rec.mem {
            let start = Instant::now();
            match *op {
                MemOp::NextMiss(agent) => {
                    std::hint::black_box(mem.next_miss(agent, |_| uniforms.next().unwrap_or(0.5)));
                    t_nm += start.elapsed().as_nanos() as f64 - clock;
                }
                MemOp::Complete(agent) => {
                    std::hint::black_box(mem.complete(agent, |v| {
                        std::hint::black_box(v);
                    }));
                    t_cp += start.elapsed().as_nanos() as f64 - clock;
                }
            }
        }
        nm.push(t_nm.max(0.0));
        cp.push(t_cp.max(0.0));
    }
    (median(&nm), median(&cp))
}

fn time_runner(cell: &LedgerCell, reps: usize) -> f64 {
    time_ns(reps, || {
        Simulation::new(cell.config.clone())
            .expect("validated by record")
            .run_kind(cell.kind)
            .expect("validated by record")
            .events
    })
}

/// The header the simulator writes at the top of a cell's trace export.
pub(crate) fn trace_header(protocol: &str, config: &SystemConfig) -> TraceHeader {
    TraceHeader {
        schema: TRACE_SCHEMA.to_string(),
        protocol: protocol.to_string(),
        agents: config.scenario.agents(),
        seed: config.seed,
        warmup_samples: config.warmup_samples as u64,
        batches: config.batches.batches as u64,
        samples_per_batch: config.batches.samples_per_batch as u64,
        confidence: config.batches.confidence,
    }
}

fn header_for(rec: &Recording) -> TraceHeader {
    trace_header(&rec.report.protocol, &rec.cell.config)
}

/// A sink of one framing writing into `out`, boxed as the runner holds it.
fn sink<'a>(out: &'a mut Vec<u8>, header: &TraceHeader, binary: bool) -> Box<dyn TraceSink + 'a> {
    if binary {
        Box::new(BinarySink::new(out, header).expect("in-memory sink"))
    } else {
        Box::new(JsonlSink::new(out, header).expect("in-memory sink"))
    }
}

/// Writes the recorded trace through one framing into memory, timed.
/// Returns (ns for the records, the bytes, the header's share of them).
fn time_export(rec: &Recording, binary: bool, reps: usize) -> (f64, Vec<u8>, usize) {
    let header = header_for(rec);
    let write = |out: &mut Vec<u8>| {
        let mut s = sink(out, &header, binary);
        for ev in &rec.trace {
            s.record(ev).expect("in-memory sink");
        }
        s.finish().expect("in-memory sink");
    };
    let mut header_only = Vec::new();
    drop(sink(&mut header_only, &header, binary));
    let mut bytes = Vec::new();
    write(&mut bytes);
    let ns = time_with(
        reps,
        || Vec::with_capacity(bytes.len()),
        |mut out| {
            write(&mut out);
            out
        },
    );
    (ns, bytes, header_only.len())
}

/// Decodes an in-memory export, timed; checks it yields the trace back.
fn time_stream(rec: &Recording, bytes: &[u8], reps: usize) -> Result<f64, String> {
    let mut reader = TraceReader::new(bytes).map_err(|e| e.to_string())?;
    let mut decoded = Vec::with_capacity(rec.trace.len());
    while let Some(ev) = reader.next_event().map_err(|e| e.to_string())? {
        decoded.push(ev);
    }
    if decoded != rec.trace {
        return Err("decoded export differs from the recorded trace".into());
    }
    Ok(time_ns(reps, || {
        let mut reader = TraceReader::new(bytes).expect("decoded above");
        let mut count = 0u64;
        while let Ok(Some(ev)) = reader.next_event() {
            count += 1;
            std::hint::black_box(ev);
        }
        count
    }))
}

fn time_tail(rec: &Recording, reps: usize) -> Result<f64, String> {
    let header = header_for(rec);
    busarb_tail::Pipeline::new(&header).map_err(|e| e.to_string())?;
    Ok(time_ns(reps, || {
        let mut pipeline = busarb_tail::Pipeline::new(&header).expect("validated above");
        for ev in &rec.trace {
            pipeline.push(ev).expect("events of the recorded run");
        }
        pipeline.events()
    }))
}

/// ns per draw of each reference-engine family, from `DRAWS` draws in
/// isolation: exponential (CV 1), Erlang-4 (CV 0.5) and a raw uniform.
fn draw_unit_costs(reps: usize) -> [f64; 3] {
    const DRAWS: u32 = 100_000;
    let think = |cv: f64| {
        let scenario = Scenario::equal_load(30, 2.0, cv).expect("valid scenario");
        time_ns(reps, || {
            let mut engine = ReferenceEngine::for_scenario(7, &scenario);
            let mut sum = 0.0;
            for i in 0..DRAWS {
                let agent = AgentId::new(i % 30 + 1).expect("valid identity");
                sum += engine.think_time(agent).as_f64();
            }
            sum
        }) / f64::from(DRAWS)
    };
    let scenario = Scenario::equal_load(30, 2.0, 1.0).expect("valid scenario");
    let uniform = time_ns(reps, || {
        let mut engine = ReferenceEngine::for_scenario(7, &scenario);
        let mut sum = 0.0;
        for i in 0..DRAWS {
            sum += engine.uniform(AgentId::new(i % 30 + 1).expect("valid identity"));
        }
        sum
    }) / f64::from(DRAWS);
    [think(1.0), think(0.5), uniform]
}

/// Sums of layer time (ns) and work counts over a roster.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Cells measured.
    pub cells: usize,
    /// Simulated events (calendar pops) over the roster.
    pub events: u64,
    /// The full event loop.
    pub runner_ns: f64,
    /// Building the cell's pre-event state.
    pub setup_ns: f64,
    /// Calendar schedule + pop replay.
    pub calendar_ns: f64,
    /// Calendar operations (schedules + pops).
    pub calendar_ops: u64,
    /// Arbiter `on_request` + `arbitrate` replay, all protocols.
    pub core_ns: f64,
    /// Grants over the roster.
    pub grants: u64,
    /// Arbitrations over the roster (a grant may take several).
    pub arbitrations: u64,
    /// Per protocol slug: (core ns, grants).
    pub core_by_slug: Vec<(&'static str, f64, u64)>,
    /// Draw-engine replay.
    pub draws_ns: f64,
    /// Draws replayed.
    pub draws: u64,
    /// Batch means + tally + summaries replay.
    pub batch_means_ns: f64,
    /// Measured samples.
    pub samples: u64,
    /// CDF recording replay (cells that collect a CDF).
    pub cdf_ns: f64,
    /// Samples recorded into CDFs.
    pub cdf_samples: u64,
    /// Metrics-registry replay.
    pub registry_ns: f64,
    /// MESI `next_miss` calls, summed ns.
    pub mem_next_ns: f64,
    /// MESI `complete` calls, summed ns.
    pub mem_complete_ns: f64,
    /// `next_miss` calls (one per miss).
    pub misses: u64,
    /// `complete` calls.
    pub mem_completions: u64,
    /// References executed (hits and misses).
    pub refs: u64,
    /// Remote copies invalidated.
    pub invalidations: u64,
    /// Trace records of cells whose framings were measured.
    pub trace_records: u64,
    /// Per framing (btrc, jsonl): write ns, record bytes, read ns.
    pub framings: [(f64, u64, f64); 2],
    /// Analysis pipeline ns over the trace records.
    pub tail_ns: f64,
    /// ns per draw: exponential, Erlang-4, uniform.
    pub draw_unit: [f64; 3],
}

impl Ledger {
    /// ns per event of each row, and the residual, in ledger order.
    #[must_use]
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        let per = |ns: f64| ns / self.events.max(1) as f64;
        let rows = vec![
            ("setup", per(self.setup_ns)),
            ("calendar", per(self.calendar_ns)),
            ("core", per(self.core_ns)),
            ("workload", per(self.draws_ns)),
            ("stats", per(self.batch_means_ns + self.cdf_ns)),
            ("obs", per(self.registry_ns)),
            ("mem", per(self.mem_next_ns + self.mem_complete_ns)),
        ];
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        let mut out = rows;
        out.push(("residual", per(self.runner_ns) - sum));
        out
    }
}

/// Records every roster cell and replays each layer `reps` times.
/// `framings` also measures trace export, decode and analysis.
///
/// # Errors
///
/// Fails when a cell's shadow replay disagrees with its run.
pub fn measure(roster: &[LedgerCell], framings: bool, reps: usize) -> Result<Ledger, String> {
    let mut l = Ledger {
        draw_unit: draw_unit_costs(reps),
        ..Ledger::default()
    };
    for cell in roster {
        let rec = record(cell)?;
        let n = cell.config.scenario.agents();
        core_winners(cell.kind, n, &rec.core)?;
        l.cells += 1;
        l.events += rec.report.events;
        l.runner_ns += time_runner(cell, reps);
        let setups: Vec<f64> = (0..reps)
            .map(|_| setup_secs(cell.kind, Dispatch::Concrete, || cell.config.clone()) * 1e9)
            .collect();
        l.setup_ns += median(&setups);
        l.calendar_ns += time_ns(reps, || replay_calendar(&rec.cal));
        l.calendar_ops += rec.cal.len() as u64;
        let core = time_core(cell.kind, n, &rec.core, reps)?;
        l.core_ns += core;
        l.grants += rec.report.grants;
        l.arbitrations += rec.report.arbitrations;
        let slug = protocol_slug(cell.kind);
        match l.core_by_slug.iter_mut().find(|e| e.0 == slug) {
            Some(e) => {
                e.1 += core;
                e.2 += rec.report.grants;
            }
            None => l.core_by_slug.push((slug, core, rec.report.grants)),
        }
        l.draws_ns += time_draws(&rec, reps);
        l.draws += rec.draws.len() as u64;
        l.batch_means_ns += time_batch_means(&rec, reps);
        l.samples += rec.samples.len() as u64;
        if cell.config.collect_cdf {
            l.cdf_ns += time_cdf(&rec, reps);
            l.cdf_samples += rec.samples.len() as u64;
        }
        l.registry_ns += time_with(
            reps,
            || MetricsRegistry::new(n),
            |reg| replay_registry(reg, &rec.reg),
        );
        let (next, complete) = time_mem(&rec, reps);
        l.mem_next_ns += next;
        l.mem_complete_ns += complete;
        l.misses += rec.misses;
        l.mem_completions += rec
            .mem
            .iter()
            .filter(|op| matches!(op, MemOp::Complete(_)))
            .count() as u64;
        l.refs += rec.refs;
        l.invalidations += rec.invalidations;
        if framings {
            l.trace_records += rec.trace.len() as u64;
            for (i, binary) in [true, false].into_iter().enumerate() {
                let (write, bytes, header) = time_export(&rec, binary, reps);
                let read = time_stream(&rec, &bytes, reps)?;
                l.framings[i].0 += write;
                l.framings[i].1 += (bytes.len() - header) as u64;
                l.framings[i].2 += read;
            }
            l.tail_ns += time_tail(&rec, reps)?;
        }
    }
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use busarb_stats::BatchMeansConfig;

    fn cell(kind: ProtocolKind, scenario: Scenario) -> LedgerCell {
        let config = SystemConfig::new(scenario)
            .with_batches(BatchMeansConfig::quick(50))
            .with_warmup(50)
            .with_seed(11)
            .with_cdf();
        LedgerCell { kind, config }
    }

    fn traced(cell: &LedgerCell) -> (RunReport, Vec<TraceEvent>) {
        let report = Simulation::new(cell.config.clone().with_trace(1 << 20))
            .unwrap()
            .run_kind(cell.kind)
            .unwrap();
        let trace = report.trace.events().to_vec();
        (report, trace)
    }

    #[test]
    fn shadow_replays_every_protocol_and_the_closed_loop() {
        for &kind in ProtocolKind::all() {
            let c = cell(kind, Scenario::equal_load(8, 2.0, 1.0).unwrap());
            let rec = record(&c).unwrap_or_else(|e| panic!("{kind}: {e}"));
            core_winners(kind, 8, &rec.core).unwrap();
            assert_eq!(rec.samples.len(), 500);
        }
        let mesi =
            Scenario::closed_loop(8, busarb_workload::CoherenceConfig::default_mix()).unwrap();
        let rec = record(&cell(ProtocolKind::Fcfs1, mesi)).unwrap();
        assert!(rec.misses > 0 && !rec.mem_uniforms.is_empty());
    }

    #[test]
    fn shadow_rejects_a_run_it_does_not_reproduce() {
        let c = cell(
            ProtocolKind::RoundRobin,
            Scenario::equal_load(8, 2.0, 1.0).unwrap(),
        );
        let (report, mut trace) = traced(&c);
        let at = trace
            .iter()
            .position(|e| matches!(e.kind, TraceKind::ArbitrationStart { .. }))
            .unwrap();
        if let TraceKind::ArbitrationStart { winner, completes } = trace[at].kind {
            let other = AgentId::new(winner.get() % 8 + 1).unwrap();
            trace[at].kind = TraceKind::ArbitrationStart {
                winner: other,
                completes,
            };
        }
        let err = walk(&c, report.clone(), trace).unwrap_err();
        assert!(err.contains("granted"), "{err}");
        let (_, mut trace) = traced(&c);
        trace.pop();
        assert!(walk(&c, report, trace).is_err());
    }

    #[test]
    fn ledger_rows_and_residual_sum_to_the_full_loop() {
        let roster = [cell(
            ProtocolKind::Fcfs2,
            Scenario::equal_load(8, 2.0, 1.0).unwrap(),
        )];
        let l = measure(&roster, true, 2).unwrap();
        let total: f64 = l.rows().iter().map(|r| r.1).sum();
        assert!((total - l.runner_ns / l.events as f64).abs() < 1e-6);
        assert!(l.trace_records > 0 && l.framings[0].1 > 0 && l.tail_ns > 0.0);
    }
}
