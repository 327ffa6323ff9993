//! Closed-loop MESI coherence workloads.
//!
//! Every workload in `busarb-workload` proper is *open-loop*: interrequest
//! times are drawn from a stochastic process that never observes
//! arbitration latency. This crate closes the loop the way a shared-bus
//! multiprocessor with private caches does (the setting of "Comparison of
//! the Performance of Two Service Disciplines for a Shared Bus
//! Multiprocessor with Private Caches", arXiv 1004.3560): each agent is a
//! private MESI cache executing a synthetic reference stream, and a bus
//! request exists *only because* a reference missed. While the miss is
//! waiting for its bus grant the agent is stalled — it executes no further
//! references — so arbitration latency directly shapes the subsequent
//! request process.
//!
//! The model has three parts:
//!
//! * **Reference stream** — a per-agent synthetic locality model: each
//!   reference picks the private or the shared region
//!   ([`CoherenceConfig::shared_fraction`]), a line within it, and a
//!   read/write direction ([`CoherenceConfig::write_fraction`]); lines
//!   already cached may be silently evicted first
//!   ([`CoherenceConfig::eviction_rate`]), modeling capacity misses.
//!   Every random choice is a plain uniform variate supplied by the
//!   caller, so both `busarb-workload` draw engines (reference and fast)
//!   drive the stream through their existing `uniform` seam and all
//!   determinism guarantees carry over unchanged.
//! * **MESI cache** — per-agent line states over a private working set
//!   plus one globally shared region. Hits (including the silent
//!   Exclusive→Modified write promotion) cost
//!   [`CoherenceConfig::reference_time`] each and never touch the bus.
//! * **Feedback path** — [`CoherenceSystem::next_miss`] executes
//!   references until one needs the bus and returns the compute time
//!   consumed; the simulator schedules the bus request that far in the
//!   future and stalls the agent. When the grant's transfer completes,
//!   [`CoherenceSystem::complete`] applies the MESI transition (fill,
//!   ownership claim, invalidations/downgrades of other holders) and
//!   classifies the transaction as a read miss, write miss, or upgrade
//!   ([`CoherenceOp`]).
//!
//! Both methods are allocation-free and panic-free after construction:
//! they sit on the simulator's hot event path (pinned by `cargo xtask
//! lint` and the crate's counting-allocator test).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use busarb_types::CoherenceOp;
use busarb_types::{AgentId, Error, Time};

/// Upper bound on consecutive hits executed per [`next_miss`] call.
///
/// With any plausible configuration the hit run ends orders of magnitude
/// sooner; the cap exists so a pathological configuration (eviction rate
/// zero, shared fraction zero, every line already Modified) cannot spin
/// the generator forever. When the cap is reached the referenced line is
/// treated as capacity-evicted, forcing a miss — still deterministic,
/// still bounded.
///
/// [`next_miss`]: CoherenceSystem::next_miss
pub const MAX_HIT_RUN: u32 = 4096;

/// One line's MESI coherence state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MesiState {
    /// Not cached (or invalidated by another agent's write).
    Invalid,
    /// Cached read-only; other caches may also hold the line.
    Shared,
    /// Cached clean with no other copies; writable without bus traffic.
    Exclusive,
    /// Cached dirty with no other copies (sole owner).
    Modified,
}

impl MesiState {
    fn to_u8(self) -> u8 {
        match self {
            MesiState::Invalid => 0,
            MesiState::Shared => 1,
            MesiState::Exclusive => 2,
            MesiState::Modified => 3,
        }
    }

    fn from_u8(raw: u8) -> MesiState {
        match raw {
            1 => MesiState::Shared,
            2 => MesiState::Exclusive,
            3 => MesiState::Modified,
            _ => MesiState::Invalid,
        }
    }
}

/// A cache line address in the two-region synthetic locality model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Line {
    /// A line in the agent's private working set (never shared, so
    /// private lines generate misses but no invalidation traffic).
    Private(u32),
    /// A line in the global shared region (the coherence battleground).
    Shared(u32),
}

/// Parameters of the synthetic reference stream and cache geometry.
///
/// All fields are validated once by [`CoherenceConfig::new`]; the model
/// itself then runs without panic branches.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CoherenceConfig {
    /// Private working-set size per agent, in cache lines (>= 1).
    pub private_lines: u32,
    /// Size of the global shared region, in cache lines (0 disables
    /// sharing entirely).
    pub shared_lines: u32,
    /// Probability a reference targets the shared region (in [0, 1]).
    pub shared_fraction: f64,
    /// Probability a reference is a write (in [0, 1]).
    pub write_fraction: f64,
    /// Probability a cached line was capacity-evicted since its last
    /// access (in [0, 1]); evictions are silent (write-backs are folded
    /// into the fixed bus transaction time, as in the paper's model).
    pub eviction_rate: f64,
    /// Compute time consumed per executed reference, in bus transaction
    /// units (positive and finite). The gap between a grant completing
    /// and the agent's next request is `hits_until_next_miss + 1` times
    /// this value.
    pub reference_time: f64,
}

impl CoherenceConfig {
    /// Validates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidScenario`] when a field is outside its
    /// documented range.
    pub fn new(
        private_lines: u32,
        shared_lines: u32,
        shared_fraction: f64,
        write_fraction: f64,
        eviction_rate: f64,
        reference_time: f64,
    ) -> Result<Self, Error> {
        let fraction = |name: &str, v: f64| -> Result<(), Error> {
            if !(0.0..=1.0).contains(&v) {
                return Err(Error::InvalidScenario {
                    reason: format!("{name} {v} outside [0, 1]"),
                });
            }
            Ok(())
        };
        if private_lines == 0 {
            return Err(Error::InvalidScenario {
                reason: "private working set needs at least one line".to_string(),
            });
        }
        fraction("shared fraction", shared_fraction)?;
        fraction("write fraction", write_fraction)?;
        fraction("eviction rate", eviction_rate)?;
        if !reference_time.is_finite() || reference_time <= 0.0 {
            return Err(Error::InvalidScenario {
                reason: format!("reference time {reference_time} must be positive and finite"),
            });
        }
        Ok(CoherenceConfig {
            private_lines,
            shared_lines,
            shared_fraction,
            write_fraction,
            eviction_rate,
            reference_time,
        })
    }

    /// The default workload used by the `coherence` experiment: a
    /// moderately contended mix (30% shared references over a small
    /// shared region, 30% writes, mild capacity pressure) that keeps
    /// every agent's cache warm while producing steady invalidation
    /// traffic.
    #[must_use]
    pub fn default_mix() -> Self {
        CoherenceConfig::new(64, 16, 0.3, 0.3, 0.05, 0.25)
            .expect("the default mix is statically valid")
    }
}

/// A pending bus request: the reference that missed, frozen until its
/// grant's transfer completes.
#[derive(Clone, Copy, Debug, Default)]
struct Pending {
    active: bool,
    shared: bool,
    line: u32,
    write: bool,
}

/// The outcome of one completed coherence transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Completion {
    /// How the transaction classified against the granted agent's cache.
    pub op: CoherenceOp,
    /// How many other caches lost their copy of the line.
    pub invalidated: u32,
}

/// All agents' private MESI caches plus the shared-region directory.
///
/// Construction ([`CoherenceSystem::new`]) performs the only
/// allocations; [`next_miss`] and [`complete`] — the two methods on the
/// simulator's hot path — are allocation-free and panic-free.
///
/// [`next_miss`]: CoherenceSystem::next_miss
/// [`complete`]: CoherenceSystem::complete
#[derive(Clone, Debug)]
pub struct CoherenceSystem {
    agents: u32,
    config: CoherenceConfig,
    /// Private-region states: `agents * private_lines` entries, agent-major.
    private: Vec<u8>,
    /// Shared-region states: `shared_lines * agents` entries, line-major
    /// so the invalidation scan over one line's copies is contiguous.
    shared: Vec<u8>,
    /// One frozen miss per agent (at most one outstanding request each).
    pending: Vec<Pending>,
}

impl CoherenceSystem {
    /// Builds the cold caches for `agents` agents. Every line starts
    /// Invalid, so the run begins with a compulsory-miss burst exactly
    /// like a real machine's warm-up.
    #[must_use]
    pub fn new(agents: u32, config: CoherenceConfig) -> Self {
        CoherenceSystem {
            agents,
            config,
            private: vec![0; (agents as usize) * (config.private_lines as usize)],
            shared: vec![0; (config.shared_lines as usize) * (agents as usize)],
            pending: vec![Pending::default(); agents as usize],
        }
    }

    /// The validated configuration this system runs.
    #[must_use]
    pub fn config(&self) -> &CoherenceConfig {
        &self.config
    }

    fn slot(&self, agent: AgentId, shared: bool, line: u32) -> usize {
        if shared {
            (line as usize) * (self.agents as usize) + agent.index()
        } else {
            agent.index() * (self.config.private_lines as usize) + line as usize
        }
    }

    /// The MESI state of one line in `agent`'s cache (observability and
    /// test hook; the hot path reads states through internal slots).
    #[must_use]
    pub fn state(&self, agent: AgentId, line: Line) -> MesiState {
        let (shared, idx) = match line {
            Line::Private(l) => (false, l),
            Line::Shared(l) => (true, l),
        };
        MesiState::from_u8(self.storage(shared)[self.slot(agent, shared, idx)])
    }

    fn storage(&self, shared: bool) -> &[u8] {
        if shared {
            &self.shared
        } else {
            &self.private
        }
    }

    /// Checks the MESI single-owner invariant over every shared line:
    /// a Modified or Exclusive copy excludes *all* other valid copies.
    /// Private lines are per-agent by construction and cannot conflict.
    #[must_use]
    pub fn invariants_hold(&self) -> bool {
        let n = self.agents as usize;
        for line in 0..self.config.shared_lines as usize {
            let copies = &self.shared[line * n..(line + 1) * n];
            let owners = copies.iter().filter(|&&s| s >= 2).count();
            let valid = copies.iter().filter(|&&s| s != 0).count();
            if owners > 1 || (owners == 1 && valid > 1) {
                return false;
            }
        }
        true
    }

    /// Executes `agent`'s reference stream until a reference needs the
    /// bus, and returns the compute time consumed (the delay between the
    /// agent becoming runnable and its bus-request assertion). The
    /// missing reference is frozen as the agent's pending request until
    /// [`complete`](CoherenceSystem::complete) resolves it.
    ///
    /// `draw` supplies uniform variates on `[0, 1)` on behalf of the
    /// agent — the simulator passes its `DrawEngine::uniform` seam, so
    /// reference/fast engine determinism carries over verbatim.
    pub fn next_miss(&mut self, agent: AgentId, mut draw: impl FnMut(AgentId) -> f64) -> Time {
        let cfg = self.config;
        let mut refs = 0u32;
        loop {
            refs += 1;
            let shared = cfg.shared_lines > 0 && draw(agent) < cfg.shared_fraction;
            let lines = if shared {
                cfg.shared_lines
            } else {
                cfg.private_lines
            };
            // `u < 1.0`, so the product floors below `lines`; the min is
            // belt-and-braces against u == 1.0 - eps rounding up.
            let line = ((draw(agent) * f64::from(lines)) as u32).min(lines - 1);
            let write = draw(agent) < cfg.write_fraction;
            let slot = self.slot(agent, shared, line);
            let mut state = MesiState::from_u8(self.storage(shared)[slot]);
            if state != MesiState::Invalid && draw(agent) < cfg.eviction_rate {
                // Silent capacity eviction between accesses.
                state = MesiState::Invalid;
                self.storage_mut(shared)[slot] = 0;
            }
            let needs_bus = state == MesiState::Invalid
                || (write && state == MesiState::Shared)
                || refs >= MAX_HIT_RUN;
            if needs_bus {
                if refs >= MAX_HIT_RUN && state != MesiState::Invalid {
                    // Forced capacity miss: bounds the hit run.
                    self.storage_mut(shared)[slot] = 0;
                }
                self.pending[agent.index()] = Pending {
                    active: true,
                    shared,
                    line,
                    write,
                };
                return Time::saturating(f64::from(refs) * cfg.reference_time);
            }
            // Hit. A write hit on an Exclusive line promotes silently.
            if write && state == MesiState::Exclusive {
                self.storage_mut(shared)[slot] = MesiState::Modified.to_u8();
            }
        }
    }

    fn storage_mut(&mut self, shared: bool) -> &mut [u8] {
        if shared {
            &mut self.shared
        } else {
            &mut self.private
        }
    }

    /// Resolves `agent`'s pending miss: the bus transfer completed, so
    /// the MESI transition is applied *now*, against the current state
    /// (another agent's write may have invalidated this agent's copy
    /// while the request waited, degrading an intended upgrade into a
    /// full write miss). Other holders of a shared line are invalidated
    /// (writes) or downgraded to Shared (reads); `on_invalidate` fires
    /// once per cache that lost its copy, so the caller can attribute
    /// per-victim counters without this crate depending on the
    /// observability layer.
    pub fn complete(
        &mut self,
        agent: AgentId,
        mut on_invalidate: impl FnMut(AgentId),
    ) -> Completion {
        let idx = agent.index();
        let p = self.pending[idx];
        debug_assert!(p.active, "complete() without a pending miss");
        self.pending[idx] = Pending::default();
        let slot = self.slot(agent, p.shared, p.line);
        let state = MesiState::from_u8(self.storage(p.shared)[slot]);
        let mut invalidated = 0u32;
        let op;
        if p.write {
            if p.shared {
                let n = self.agents as usize;
                let base = (p.line as usize) * n;
                for other in 0..n {
                    if other == idx {
                        continue;
                    }
                    let copy = &mut self.shared[base + other];
                    if *copy != 0 {
                        *copy = 0;
                        invalidated += 1;
                        on_invalidate(AgentId::from_index_saturating(other));
                    }
                }
            }
            // A pending write finds its line Invalid (full write miss)
            // or still Shared (upgrade); Exclusive/Modified writes are
            // hits and never reach the bus.
            op = if state == MesiState::Shared {
                CoherenceOp::Upgrade
            } else {
                debug_assert_eq!(
                    state,
                    MesiState::Invalid,
                    "write reached the bus from {state:?}"
                );
                CoherenceOp::WriteMiss
            };
            self.storage_mut(p.shared)[slot] = MesiState::Modified.to_u8();
        } else {
            debug_assert_eq!(
                state,
                MesiState::Invalid,
                "read reached the bus from {state:?}"
            );
            let mut others_hold = false;
            if p.shared {
                let n = self.agents as usize;
                let base = (p.line as usize) * n;
                for other in 0..n {
                    if other == idx {
                        continue;
                    }
                    let copy = &mut self.shared[base + other];
                    if *copy != 0 {
                        // Modified/Exclusive owners are snooped down to
                        // Shared (the dirty copy is flushed as part of
                        // the fixed-time transaction).
                        *copy = MesiState::Shared.to_u8();
                        others_hold = true;
                    }
                }
            }
            self.storage_mut(p.shared)[slot] = if others_hold {
                MesiState::Shared.to_u8()
            } else {
                MesiState::Exclusive.to_u8()
            };
            op = CoherenceOp::ReadMiss;
        }
        Completion { op, invalidated }
    }
}

/// Index-to-identity helper mirroring `AgentId::index`, saturating the
/// (unreachable) overflow instead of carrying a panic branch onto the
/// invalidation scan. `index < agents <= 128`, so the cast is exact.
trait FromIndex {
    fn from_index_saturating(index: usize) -> AgentId;
}

impl FromIndex for AgentId {
    fn from_index_saturating(index: usize) -> AgentId {
        let raw = u32::try_from(index + 1).unwrap_or(u32::MAX);
        AgentId::new(raw).unwrap_or(AgentId::MIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    fn cfg() -> CoherenceConfig {
        CoherenceConfig::default_mix()
    }

    #[test]
    fn config_rejects_out_of_range_parameters() {
        assert!(CoherenceConfig::new(0, 4, 0.5, 0.5, 0.1, 0.25).is_err());
        assert!(CoherenceConfig::new(8, 4, -0.1, 0.5, 0.1, 0.25).is_err());
        assert!(CoherenceConfig::new(8, 4, 0.5, 1.5, 0.1, 0.25).is_err());
        assert!(CoherenceConfig::new(8, 4, 0.5, 0.5, f64::NAN, 0.25).is_err());
        assert!(CoherenceConfig::new(8, 4, 0.5, 0.5, 0.1, 0.0).is_err());
        assert!(CoherenceConfig::new(8, 4, 0.5, 0.5, 0.1, f64::INFINITY).is_err());
        assert!(CoherenceConfig::new(8, 0, 0.0, 0.5, 0.1, 0.25).is_ok());
    }

    #[test]
    fn cold_cache_first_reference_is_a_compulsory_miss() {
        let mut sys = CoherenceSystem::new(2, cfg());
        let gap = sys.next_miss(id(1), |_| 0.0);
        // One reference executed: shared region (draw 0 < 0.3), line 0,
        // write (draw 0 < 0.3), Invalid -> miss immediately.
        assert_eq!(gap.as_f64(), cfg().reference_time);
        let done = sys.complete(id(1), |_| {});
        assert_eq!(done.op, CoherenceOp::WriteMiss);
        assert_eq!(done.invalidated, 0);
        assert_eq!(sys.state(id(1), Line::Shared(0)), MesiState::Modified);
    }

    /// Feeds `next_miss` a fixed per-reference draw triple
    /// (region, line, write); eviction is off in these tests so the
    /// fourth draw never happens.
    fn feed(seq: [f64; 3]) -> impl FnMut(AgentId) -> f64 {
        let mut i = 0;
        move |_| {
            let v = seq[i % 3];
            i += 1;
            v
        }
    }

    #[test]
    fn write_miss_invalidates_every_other_holder() {
        let c = CoherenceConfig::new(4, 2, 1.0, 0.5, 0.0, 1.0).unwrap();
        let mut m = CoherenceSystem::new(3, c);
        let read = [0.0, 0.0, 0.9]; // write draw 0.9 >= 0.5 -> read
        let write = [0.0, 0.0, 0.0]; // write draw 0.0 < 0.5 -> write
                                     // Agents 2 and 3 read shared line 0: first Exclusive, then both
                                     // downgrade to Shared.
        m.next_miss(id(2), feed(read));
        m.complete(id(2), |_| {});
        assert_eq!(m.state(id(2), Line::Shared(0)), MesiState::Exclusive);
        m.next_miss(id(3), feed(read));
        let done = m.complete(id(3), |_| {});
        assert_eq!(done.op, CoherenceOp::ReadMiss);
        assert_eq!(m.state(id(2), Line::Shared(0)), MesiState::Shared);
        assert_eq!(m.state(id(3), Line::Shared(0)), MesiState::Shared);
        // Agent 1 writes the line: a full write miss that invalidates
        // both sharers, attributed per victim through the callback.
        m.next_miss(id(1), feed(write));
        let mut victims = Vec::new();
        let done = m.complete(id(1), |v| victims.push(v.get()));
        assert_eq!(done.op, CoherenceOp::WriteMiss);
        assert_eq!(done.invalidated, 2);
        assert_eq!(victims, vec![2, 3]);
        assert_eq!(m.state(id(1), Line::Shared(0)), MesiState::Modified);
        assert_eq!(m.state(id(2), Line::Shared(0)), MesiState::Invalid);
        assert_eq!(m.state(id(3), Line::Shared(0)), MesiState::Invalid);
        assert!(m.invariants_hold());
    }

    #[test]
    fn shared_write_reaches_the_bus_as_an_upgrade() {
        let c = CoherenceConfig::new(4, 2, 1.0, 0.5, 0.0, 1.0).unwrap();
        let mut m = CoherenceSystem::new(2, c);
        // Both agents read shared line 0 -> both Shared.
        m.next_miss(id(1), feed([0.0, 0.0, 0.9]));
        m.complete(id(1), |_| {});
        m.next_miss(id(2), feed([0.0, 0.0, 0.9]));
        m.complete(id(2), |_| {});
        // Agent 1 writes it while still holding it Shared: BusUpgr.
        m.next_miss(id(1), feed([0.0, 0.0, 0.0]));
        let done = m.complete(id(1), |_| {});
        assert_eq!(done.op, CoherenceOp::Upgrade);
        assert_eq!(done.invalidated, 1);
        assert_eq!(m.state(id(1), Line::Shared(0)), MesiState::Modified);
        assert!(m.invariants_hold());
    }

    #[test]
    fn racing_writer_degrades_a_pending_upgrade_to_a_write_miss() {
        let c = CoherenceConfig::new(4, 2, 1.0, 0.5, 0.0, 1.0).unwrap();
        let mut m = CoherenceSystem::new(2, c);
        m.next_miss(id(1), feed([0.0, 0.0, 0.9]));
        m.complete(id(1), |_| {});
        m.next_miss(id(2), feed([0.0, 0.0, 0.9]));
        m.complete(id(2), |_| {});
        // Both agents now intend to write line 0; both misses are
        // pending (generated as upgrades, since both still hold Shared).
        m.next_miss(id(1), feed([0.0, 0.0, 0.0]));
        m.next_miss(id(2), feed([0.0, 0.0, 0.0]));
        // Agent 2 is granted first: its upgrade invalidates agent 1.
        assert_eq!(m.complete(id(2), |_| {}).op, CoherenceOp::Upgrade);
        // Agent 1's request resolves against its *current* (Invalid)
        // state: the intended upgrade degrades to a full write miss.
        let done = m.complete(id(1), |_| {});
        assert_eq!(done.op, CoherenceOp::WriteMiss);
        assert_eq!(done.invalidated, 1);
        assert_eq!(m.state(id(2), Line::Shared(0)), MesiState::Invalid);
        assert!(m.invariants_hold());
    }

    #[test]
    fn hit_run_is_bounded_by_the_cap() {
        // Shared fraction 0, write fraction 0, eviction 0: after the
        // compulsory miss on private line 0, every further reference to
        // it hits forever — the cap must force a miss.
        let c = CoherenceConfig::new(1, 0, 0.0, 0.0, 0.0, 1.0).unwrap();
        let mut sys = CoherenceSystem::new(1, c);
        sys.next_miss(id(1), |_| 0.0);
        sys.complete(id(1), |_| {});
        let gap = sys.next_miss(id(1), |_| 0.0);
        assert_eq!(gap.as_f64(), f64::from(MAX_HIT_RUN));
        let done = sys.complete(id(1), |_| {});
        assert_eq!(done.op, CoherenceOp::ReadMiss);
    }
}
