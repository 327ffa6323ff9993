//! Per-protocol invariant specifications.
//!
//! The bounds mirror the catalogue proved in the paper and pinned by the
//! randomized liveness suite (`tests/liveness.rs`); here they are checked
//! *exhaustively* over every reachable state instead of sampled.

use busarb_core::ProtocolKind;

/// FIFO discipline an FCFS-family protocol must obey, expressed against
/// the checker's own arrival bookkeeping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fifo {
    /// No ordering guarantee beyond the bypass bound.
    None,
    /// The winner must come from the earliest-arrival cohort; within the
    /// cohort the highest identity wins (FCFS-2, central FCFS: same-window
    /// ties fall back to static-identity maximum).
    EarliestBatchDescId,
    /// The winner must come from the earliest-arrival cohort; within the
    /// cohort the lowest identity wins (ticket FCFS: tickets are drawn in
    /// injection order, which is ascending identity).
    EarliestBatchAscId,
    /// The winner must come from the earliest-arrival cohort, in any order
    /// (hybrid: FCFS across windows, round robin within one).
    EarliestBatchOnly,
}

/// The invariants checked for one protocol.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Maximum number of grants to other agents while one request waits
    /// (`None` = the protocol is allowed to starve, e.g. fixed priority).
    pub bypass_bound: Option<u64>,
    /// FIFO discipline, if any.
    pub fifo: Fifo,
    /// Check the FCFS-1 coarse-counter semantics: the counter equals the
    /// number of arbitrations lost since arrival, never wraps at one
    /// outstanding request per agent, and the winner maximizes
    /// `(counter, identity)`.
    pub fcfs1_counters: bool,
    /// Check the RR-3 empty-arbitration recovery: the wraparound happens
    /// exactly when no requester is below the winner register, and the
    /// register always ends at the broadcast winner.
    pub rr3_recovery: bool,
}

impl Spec {
    /// The invariant set for `kind` at `n` agents.
    #[must_use]
    pub fn for_kind(kind: ProtocolKind, n: u32) -> Spec {
        let scan = Some(u64::from(n - 1));
        match kind {
            ProtocolKind::FixedPriority => Spec {
                bypass_bound: None,
                fifo: Fifo::None,
                fcfs1_counters: false,
                rr3_recovery: false,
            },
            ProtocolKind::AssuredAccessIdleBatch
            | ProtocolKind::AssuredAccessFairnessRelease
            | ProtocolKind::AssuredAccessClosedBatch => Spec {
                // The victim may just miss one batch, then waits out one
                // full batch of everyone else.
                bypass_bound: Some(2 * u64::from(n - 1)),
                fifo: Fifo::None,
                fcfs1_counters: false,
                rr3_recovery: false,
            },
            ProtocolKind::RoundRobin => Spec {
                bypass_bound: scan,
                fifo: Fifo::None,
                fcfs1_counters: false,
                rr3_recovery: true,
            },
            ProtocolKind::Fcfs1 => Spec {
                bypass_bound: scan,
                fifo: Fifo::None,
                fcfs1_counters: true,
                rr3_recovery: false,
            },
            ProtocolKind::Fcfs2 | ProtocolKind::CentralFcfs => Spec {
                bypass_bound: scan,
                fifo: Fifo::EarliestBatchDescId,
                fcfs1_counters: false,
                rr3_recovery: false,
            },
            ProtocolKind::TicketFcfs => Spec {
                bypass_bound: scan,
                fifo: Fifo::EarliestBatchAscId,
                fcfs1_counters: false,
                rr3_recovery: false,
            },
            ProtocolKind::Hybrid => Spec {
                bypass_bound: scan,
                fifo: Fifo::EarliestBatchOnly,
                fcfs1_counters: false,
                rr3_recovery: false,
            },
            ProtocolKind::CentralRoundRobin | ProtocolKind::Adaptive | ProtocolKind::RotatingRr => {
                Spec {
                    bypass_bound: scan,
                    fifo: Fifo::None,
                    fcfs1_counters: false,
                    rr3_recovery: false,
                }
            }
            // `ProtocolKind` is non-exhaustive; a kind added without an
            // invariant set here must fail loudly.
            other => unimplemented!("no invariant spec for {other}"),
        }
    }
}
