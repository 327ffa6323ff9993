//! Allocation regression: steady-state protocol arbitration must not
//! touch the heap.
//!
//! The plane-based arbiters keep all mutable state in fixed-size bit
//! masks and per-agent slot arrays allocated at construction, so
//! `on_request`, `arbitrate`, and the `verify_signature` fingerprint
//! (which writes into a caller-reused buffer via an in-place selection
//! scan) perform zero allocations once warm. The central-queue FCFS
//! arbiter reaches the same steady state after its `VecDeque` grows to
//! the saturated depth. This test pins both with a counting global
//! allocator; `cargo xtask lint` pins the same property structurally by
//! scanning the hot function bodies for allocating constructs.
//!
//! All checks live in ONE `#[test]` function: the test harness runs tests
//! on separate threads, and a concurrently running test would perturb the
//! process-wide allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use busarb_core::{
    AdaptiveArbiter, Arbiter, CentralFcfs, CentralRoundRobin, CounterStrategy, DistributedFcfs,
    HybridRrFcfs, TicketFcfs,
};
use busarb_types::{AgentId, Priority, Time};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Minimum allocation count of `f` over a few repetitions. The counter is
/// process-wide, so a test-harness thread allocating concurrently can leak
/// a spurious count into one window; a genuine steady-state allocation in
/// `f` shows up in **every** window, so the minimum isolates it.
fn steady_allocations_in(mut f: impl FnMut()) -> usize {
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            f();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("non-empty repetition count")
}

/// Saturates `arbiter` (every agent requesting, each winner immediately
/// re-requesting at a strictly later time), warms it through `4 * n`
/// grants so every internal buffer — the central queue's ring, the
/// signature scratch — reaches its steady capacity, then counts
/// allocations across a grant loop that also fingerprints the full state
/// after every grant.
fn steady_state_allocations<A: Arbiter>(
    arbiter: &mut A,
    n: u32,
    sig: impl Fn(&A, &mut Vec<u64>),
) -> usize {
    let mut clock = 0.0f64;
    let mut signature = Vec::new();
    for a in 1..=n {
        clock += 1.0;
        arbiter.on_request(
            Time::from(clock),
            AgentId::new(a).expect("valid id"),
            Priority::Ordinary,
        );
    }
    for _ in 0..4 * n {
        clock += 1.0;
        let grant = arbiter
            .arbitrate(Time::from(clock))
            .expect("saturated arbiter grants");
        clock += 1.0;
        arbiter.on_request(Time::from(clock), grant.agent, Priority::Ordinary);
        signature.clear();
        sig(arbiter, &mut signature);
    }
    steady_allocations_in(|| {
        for _ in 0..256 {
            clock += 1.0;
            let grant = arbiter
                .arbitrate(Time::from(clock))
                .expect("saturated arbiter grants");
            clock += 1.0;
            arbiter.on_request(Time::from(clock), grant.agent, Priority::Ordinary);
            signature.clear();
            sig(arbiter, &mut signature);
        }
    })
}

#[test]
fn steady_state_arbitration_and_signatures_do_not_allocate() {
    let n = 32;

    let mut fcfs1 =
        DistributedFcfs::new(n, CounterStrategy::PerLostArbitration).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut fcfs1, n, DistributedFcfs::verify_signature),
        0,
        "fcfs-1: steady-state arbitration allocated"
    );

    let mut fcfs2 = DistributedFcfs::new(n, CounterStrategy::PerArrival).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut fcfs2, n, DistributedFcfs::verify_signature),
        0,
        "fcfs-2: steady-state arbitration allocated"
    );

    let mut hybrid = HybridRrFcfs::new(n).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut hybrid, n, HybridRrFcfs::verify_signature),
        0,
        "hybrid: steady-state arbitration allocated"
    );

    let mut adaptive = AdaptiveArbiter::new(n).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut adaptive, n, AdaptiveArbiter::verify_signature),
        0,
        "adaptive: steady-state arbitration allocated"
    );

    let mut central_rr = CentralRoundRobin::new(n).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut central_rr, n, CentralRoundRobin::verify_signature),
        0,
        "central-rr: steady-state arbitration allocated"
    );

    let mut central_fcfs = CentralFcfs::new(n).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut central_fcfs, n, CentralFcfs::verify_signature),
        0,
        "central-fcfs: steady-state arbitration allocated"
    );

    let mut ticket = TicketFcfs::new(n).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut ticket, n, TicketFcfs::verify_signature),
        0,
        "ticket-fcfs: steady-state arbitration allocated"
    );
}
