//! The bounded model checker.
//!
//! Breadth-first search over every reachable arbitration state. One *step*
//! of the transition system injects a batch of requests from some subset
//! of the currently idle agents (all within the same sensing window) and
//! then runs zero or one arbitrations; pure no-op steps (empty batch, no
//! arbitration) are skipped. States are deduplicated on the concatenated
//! normalized fingerprints of every model in the group plus the checker's
//! own invariant bookkeeping, so the search is exhaustive over *behaviors*
//! rather than schedules. BFS order makes the first counterexample found
//! minimal in the number of steps.

use std::collections::{HashSet, VecDeque};

use busarb_types::fingerprint::{push_ranks, push_set};
use busarb_types::{AgentId, AgentSet, Time};

use crate::model::VerifyTarget;
use crate::spec::{Fifo, Spec};

/// A successfully applied action: the advanced model group, the updated
/// invariant bookkeeping, and the grants produced this step.
type Applied = (Vec<Box<dyn VerifyTarget>>, Book, u64);

/// An invariant breach before trace reconstruction: the invariant's name
/// and the human-readable detail.
type Breach = (&'static str, String);

/// Search limits.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Maximum schedule length (steps) explored.
    pub depth: usize,
    /// Hard cap on distinct states, as an out-of-memory guard. Hitting it
    /// marks the report as truncated (the search is no longer exhaustive).
    pub max_states: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            depth: 6,
            max_states: 4_000_000,
        }
    }
}

/// Outcome of checking one protocol at one system size.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Protocol slug.
    pub protocol: String,
    /// System size.
    pub agents: u32,
    /// Depth explored.
    pub depth: usize,
    /// Distinct reachable states visited.
    pub states: usize,
    /// Transitions taken (edges explored, including those reaching an
    /// already-visited state).
    pub transitions: u64,
    /// Grants observed across all transitions.
    pub grants: u64,
    /// True when the state cap stopped the search early.
    pub truncated: bool,
    /// The first (minimal) invariant violation, if any.
    pub violation: Option<Violation>,
}

/// A failed invariant plus the minimal schedule reproducing it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// Human-readable description of the failure.
    pub detail: String,
    /// The schedule, step by step, ending at the violating transition.
    pub trace: Vec<TraceStep>,
}

/// One step of a counterexample schedule.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// Step index (also the injection time).
    pub step: usize,
    /// Identities injected this step (one same-window batch).
    pub injected: Vec<u32>,
    /// Request-line state after injection: bit `i` set means identity
    /// `i + 1` is asserting its bus-request line.
    pub request_lines: u128,
    /// Whether an arbitration ran this step.
    pub arbitrated: bool,
    /// Per-model winner of that arbitration (`None` = model reported no
    /// grant). On an equivalence violation these disagree.
    pub outcomes: Vec<(String, Option<u32>)>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation of {}: {}", self.invariant, self.detail)?;
        writeln!(f, "minimal counterexample ({} steps):", self.trace.len())?;
        for s in &self.trace {
            write!(f, "  step {}: inject {{", s.step)?;
            for (i, a) in s.injected.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, "}} req-lines {:#b}", s.request_lines)?;
            if s.arbitrated {
                write!(f, " arbitrate ->")?;
                for (label, w) in &s.outcomes {
                    match w {
                        Some(w) => write!(f, " {label}: {w};")?,
                        None => write!(f, " {label}: none;")?,
                    }
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Checker-side bookkeeping carried alongside the models. Everything here
/// that can influence a *future* invariant check is folded into the state
/// signature, so deduplication never merges states with different
/// obligations.
#[derive(Clone)]
struct Book {
    outstanding: AgentSet,
    /// Arrival step of each agent's outstanding request (stale once
    /// served; only consulted while outstanding).
    arrival: Vec<u64>,
    /// Grants to other agents since this agent's arrival.
    bypasses: Vec<u64>,
    /// Arbitrations lost since this agent's arrival (the FCFS-1 counter
    /// reference).
    losses: Vec<u64>,
}

impl Book {
    fn new(n: u32) -> Book {
        Book {
            outstanding: AgentSet::new(),
            arrival: vec![0; n as usize],
            bypasses: vec![0; n as usize],
            losses: vec![0; n as usize],
        }
    }
}

struct ArenaEntry {
    parent: usize,
    mask: u128,
    arbitrate: bool,
}

struct State {
    models: Vec<Box<dyn VerifyTarget>>,
    book: Book,
    step: usize,
    node: usize,
}

/// Checks one lockstep model group against `spec`, exploring every
/// request-arrival pattern up to `cfg.depth` steps.
pub fn check_group(
    protocol: &str,
    n: u32,
    group: Vec<Box<dyn VerifyTarget>>,
    spec: &Spec,
    cfg: &CheckConfig,
) -> CheckReport {
    let pristine: Vec<Box<dyn VerifyTarget>> = group.iter().map(|m| m.clone_box()).collect();
    let book0 = Book::new(n);
    let mut report = CheckReport {
        protocol: protocol.to_string(),
        agents: n,
        depth: cfg.depth,
        states: 1,
        transitions: 0,
        grants: 0,
        truncated: false,
        violation: None,
    };

    let mut visited: HashSet<Vec<u64>> = HashSet::new();
    visited.insert(state_signature(&group, &book0, spec));
    let mut arena = vec![ArenaEntry {
        parent: usize::MAX,
        mask: 0,
        arbitrate: false,
    }];
    let mut queue = VecDeque::new();
    queue.push_back(State {
        models: group,
        book: book0,
        step: 0,
        node: 0,
    });

    let full: u128 = if n == 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    };
    while let Some(st) = queue.pop_front() {
        if st.step >= cfg.depth {
            continue;
        }
        let idle = full & !st.book.outstanding.bits();
        let mut sub = idle;
        loop {
            for arbitrate in [false, true] {
                if sub == 0 && !arbitrate {
                    continue; // pure no-op step
                }
                report.transitions += 1;
                let models = st.models.clone();
                let book = st.book.clone();
                match apply(models, book, st.step, sub, arbitrate, spec, n) {
                    Err((invariant, detail)) => {
                        report.violation = Some(Violation {
                            invariant,
                            detail,
                            trace: rebuild_trace(&pristine, &arena, st.node, sub, arbitrate, n),
                        });
                        return report;
                    }
                    Ok((models, book, granted)) => {
                        report.grants += granted;
                        let sig = state_signature(&models, &book, spec);
                        if visited.insert(sig) {
                            if report.states >= cfg.max_states {
                                report.truncated = true;
                            } else {
                                arena.push(ArenaEntry {
                                    parent: st.node,
                                    mask: sub,
                                    arbitrate,
                                });
                                report.states += 1;
                                queue.push_back(State {
                                    models,
                                    book,
                                    step: st.step + 1,
                                    node: arena.len() - 1,
                                });
                            }
                        }
                    }
                }
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & idle;
        }
    }
    report
}

fn batch_of(mask: u128, n: u32) -> Vec<AgentId> {
    AgentId::all(n)
        .filter(|a| mask & (1 << (a.get() - 1)) != 0)
        .collect()
}

/// Applies one transition, checking every invariant along the way.
#[allow(clippy::too_many_lines)]
fn apply(
    mut models: Vec<Box<dyn VerifyTarget>>,
    mut book: Book,
    step: usize,
    mask: u128,
    arbitrate: bool,
    spec: &Spec,
    n: u32,
) -> Result<Applied, Breach> {
    let now = Time::from(step as f64);
    let batch = batch_of(mask, n);
    for m in &mut models {
        m.inject(now, &batch);
    }
    for &a in &batch {
        book.outstanding.insert(a);
        book.arrival[a.index()] = step as u64;
        book.bypasses[a.index()] = 0;
        book.losses[a.index()] = 0;
    }
    let mut granted = 0;
    if arbitrate {
        let pre_registers: Vec<Option<u32>> = models.iter().map(|m| m.last_winner()).collect();
        let outcomes: Vec<Option<crate::model::ModelGrant>> =
            models.iter_mut().map(|m| m.arbitrate(now)).collect();

        // Cross-level equivalence: every member of the group must report
        // the same winner (or all report no grant).
        let reference = outcomes[0].map(|g| g.winner);
        for (i, o) in outcomes.iter().enumerate().skip(1) {
            if o.map(|g| g.winner) != reference {
                return Err((
                    "abstract/signal equivalence",
                    format!(
                        "{} granted {:?} but {} granted {:?}",
                        models[0].label(),
                        reference.map(AgentId::get),
                        models[i].label(),
                        o.map(|g| g.winner.get()),
                    ),
                ));
            }
        }

        match outcomes[0] {
            None => {
                // Work conservation: an arbitration with pending requests
                // always produces a grant.
                if !book.outstanding.is_empty() {
                    return Err((
                        "work conservation",
                        format!(
                            "no grant produced with {} request(s) pending",
                            book.outstanding.len()
                        ),
                    ));
                }
            }
            Some(grant) => {
                granted = 1;
                let winner = grant.winner;

                // Grant safety: the winner was an actual competitor.
                if !book.outstanding.contains(winner) {
                    return Err((
                        "grant safety",
                        format!("winner {winner} has no outstanding request"),
                    ));
                }

                check_fifo(spec, &book, winner)?;
                if spec.fcfs1_counters {
                    check_fcfs1_order(&book, winner)?;
                }
                if spec.rr3_recovery {
                    check_rr3_recovery(&models, &pre_registers, &outcomes, &book, winner)?;
                }
                check_empty_arbitration_stats(&models)?;

                // Update bookkeeping and enforce the bypass bound.
                book.outstanding.remove(winner);
                for a in book.outstanding {
                    book.bypasses[a.index()] += 1;
                    book.losses[a.index()] += 1;
                    if let Some(bound) = spec.bypass_bound {
                        if book.bypasses[a.index()] > bound {
                            return Err((
                                "bounded bypass",
                                format!(
                                    "agent {a} (arrived step {}) bypassed {} times, bound {bound}",
                                    book.arrival[a.index()],
                                    book.bypasses[a.index()],
                                ),
                            ));
                        }
                    }
                }
                if spec.fcfs1_counters {
                    check_fcfs1_counters(&models, &book, n)?;
                }
            }
        }
    }
    Ok((models, book, granted))
}

/// The FIFO disciplines: the winner must come from the earliest-arrival
/// cohort, with the tie rule the protocol's hardware implements.
fn check_fifo(spec: &Spec, book: &Book, winner: AgentId) -> Result<(), (&'static str, String)> {
    if spec.fifo == Fifo::None {
        return Ok(());
    }
    let oldest = book
        .outstanding
        .iter()
        .map(|a| book.arrival[a.index()])
        .min()
        .expect("winner is outstanding");
    let cohort = || {
        book.outstanding
            .iter()
            .filter(|a| book.arrival[a.index()] == oldest)
    };
    let expected = match spec.fifo {
        Fifo::EarliestBatchDescId => cohort().max_by_key(|a| a.get()),
        Fifo::EarliestBatchAscId => cohort().min_by_key(|a| a.get()),
        Fifo::EarliestBatchOnly => {
            if cohort().any(|a| a == winner) {
                Some(winner)
            } else {
                cohort().next()
            }
        }
        Fifo::None => unreachable!(),
    };
    if expected != Some(winner) {
        return Err((
            "FIFO order",
            format!(
                "winner {} but the earliest cohort (arrived step {oldest}) requires {:?}",
                winner.get(),
                expected.map(AgentId::get),
            ),
        ));
    }
    Ok(())
}

/// FCFS-1 grant order: the winner maximizes `(lost arbitrations, id)`.
fn check_fcfs1_order(book: &Book, winner: AgentId) -> Result<(), (&'static str, String)> {
    let best = book
        .outstanding
        .iter()
        .max_by_key(|a| (book.losses[a.index()], a.get()))
        .expect("winner is outstanding");
    if best != winner {
        return Err((
            "fcfs-1 coarse-counter order",
            format!(
                "winner {} but (counter, id) maximum is {} with {} loss(es)",
                winner.get(),
                best.get(),
                book.losses[best.index()],
            ),
        ));
    }
    Ok(())
}

/// FCFS-1 counter semantics: after the losers increment, every counter
/// equals the arbitrations lost since arrival and stays below `n` — the
/// default width never wraps at one outstanding request per agent.
fn check_fcfs1_counters(
    models: &[Box<dyn VerifyTarget>],
    book: &Book,
    n: u32,
) -> Result<(), (&'static str, String)> {
    for m in models {
        for a in book.outstanding {
            let Some(counter) = m.counter_of(a) else {
                continue;
            };
            let losses = book.losses[a.index()];
            if counter != losses {
                return Err((
                    "fcfs-1 counter reset/increment",
                    format!(
                        "{}: agent {} counter {counter} but lost {losses} arbitration(s) \
                         since arrival",
                        m.label(),
                        a.get(),
                    ),
                ));
            }
            if counter >= u64::from(n) {
                return Err((
                    "fcfs-1 counter wrap",
                    format!(
                        "{}: agent {} counter {counter} reached the wrap range at system \
                         size {n}",
                        m.label(),
                        a.get(),
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// RR-3 recovery: the extra (empty) arbitration happens exactly when no
/// requester sits below the winner register, and the register always ends
/// at the broadcast winner.
fn check_rr3_recovery(
    models: &[Box<dyn VerifyTarget>],
    pre_registers: &[Option<u32>],
    outcomes: &[Option<crate::model::ModelGrant>],
    book: &Book,
    winner: AgentId,
) -> Result<(), (&'static str, String)> {
    for (i, m) in models.iter().enumerate() {
        if !m.label().contains("rr-3") {
            continue;
        }
        let register = pre_registers[i].expect("rr-3 models expose the winner register");
        let wrap = !book.outstanding.iter().any(|a| a.get() < register);
        let expected = 1 + u32::from(wrap);
        let got = outcomes[i]
            .expect("equivalence already checked")
            .arbitrations;
        if got != expected {
            return Err((
                "rr-3 empty-arbitration recovery",
                format!(
                    "{}: register {register}, requesters {:?}: expected {expected} \
                     arbitration(s), got {got}",
                    m.label(),
                    book.outstanding
                        .iter()
                        .map(AgentId::get)
                        .collect::<Vec<_>>(),
                ),
            ));
        }
        if m.last_winner() != Some(winner.get()) {
            return Err((
                "rr-3 empty-arbitration recovery",
                format!(
                    "{}: register holds {:?} after a grant to {}",
                    m.label(),
                    m.last_winner(),
                    winner.get(),
                ),
            ));
        }
    }
    Ok(())
}

/// RR-3 wraparound statistics must agree across levels.
fn check_empty_arbitration_stats(
    models: &[Box<dyn VerifyTarget>],
) -> Result<(), (&'static str, String)> {
    let mut reference: Option<(&'static str, u64)> = None;
    for m in models {
        let Some(count) = m.empty_arbitrations() else {
            continue;
        };
        match reference {
            None => reference = Some((m.label(), count)),
            Some((label, expected)) if expected != count => {
                return Err((
                    "empty-arbitration statistics",
                    format!(
                        "{label} counted {expected} wraparound(s) but {} counted {count}",
                        m.label()
                    ),
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// The node identity: every model's normalized fingerprint plus the
/// bookkeeping that feeds future invariant checks.
fn state_signature(models: &[Box<dyn VerifyTarget>], book: &Book, spec: &Spec) -> Vec<u64> {
    let mut sig = Vec::new();
    for m in models {
        m.signature(&mut sig);
        sig.push(u64::MAX); // separator between members
    }
    push_set(&mut sig, book.outstanding);
    if spec.fifo != Fifo::None || spec.fcfs1_counters {
        let arrivals: Vec<u64> = book
            .outstanding
            .iter()
            .map(|a| book.arrival[a.index()])
            .collect();
        push_ranks(&mut sig, &arrivals);
    }
    if spec.bypass_bound.is_some() {
        sig.extend(book.outstanding.iter().map(|a| book.bypasses[a.index()]));
    }
    if spec.fcfs1_counters {
        sig.extend(book.outstanding.iter().map(|a| book.losses[a.index()]));
    }
    sig
}

/// Replays the action chain recorded in the arena to render the trace.
fn rebuild_trace(
    pristine: &[Box<dyn VerifyTarget>],
    arena: &[ArenaEntry],
    node: usize,
    final_mask: u128,
    final_arbitrate: bool,
    n: u32,
) -> Vec<TraceStep> {
    let mut actions = vec![(final_mask, final_arbitrate)];
    let mut cur = node;
    while cur != 0 {
        let e = &arena[cur];
        actions.push((e.mask, e.arbitrate));
        cur = e.parent;
    }
    actions.reverse();

    let mut models: Vec<Box<dyn VerifyTarget>> = pristine.iter().map(|m| m.clone_box()).collect();
    let mut outstanding = AgentSet::new();
    let mut trace = Vec::with_capacity(actions.len());
    for (step, (mask, arbitrate)) in actions.into_iter().enumerate() {
        let now = Time::from(step as f64);
        let batch = batch_of(mask, n);
        for m in &mut models {
            m.inject(now, &batch);
        }
        for &a in &batch {
            outstanding.insert(a);
        }
        let request_lines = outstanding.bits();
        let mut outcomes = Vec::new();
        if arbitrate {
            for m in &mut models {
                let won = m.arbitrate(now).map(|g| g.winner);
                outcomes.push((m.label().to_string(), won.map(AgentId::get)));
            }
            // Track the group's consensus removal so later batches stay
            // legal; on the final (violating) step this no longer matters.
            if let Some((_, Some(w))) = outcomes.first() {
                if let Ok(w) = AgentId::new(*w) {
                    outstanding.remove(w);
                }
            }
        }
        trace.push(TraceStep {
            step,
            injected: batch.iter().map(|a| a.get()).collect(),
            request_lines,
            arbitrated: arbitrate,
            outcomes,
        });
    }
    trace
}
