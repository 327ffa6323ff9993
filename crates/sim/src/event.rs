//! The event queue.
//!
//! The simulator's future-event population is structurally tiny and
//! bounded: at most **one** pending [`Event::RequestArrival`] per agent
//! (an agent's next arrival is scheduled only when its previous one has
//! been consumed), at most one [`Event::ArbitrationComplete`] (arbitration
//! is exclusive on the lines), and at most one [`Event::TransactionEnd`]
//! (the bus carries one transaction at a time). [`CalendarQueue`] exploits
//! that bound with a **fixed-slot calendar** — one slot per agent plus two
//! singleton slots — popping by indexed minimum instead of maintaining a
//! general-purpose heap.
//!
//! The calendar is stored as struct-of-arrays planes, monomorphized over
//! the occupancy width `W` (in 64-slot words, so `CalendarQueue<1>` covers
//! 64 agents and `CalendarQueue<2>` the full 128-agent ceiling): an
//! occupancy word per 64 slots, a packed `u128` **ordering-key plane**
//! (monotone time key in the high half, insertion sequence in the low
//! half), and a verbatim [`Time`] plane for returning exact timestamps.
//!
//! On top of the slot planes sits a **two-level group-min index**: each
//! 64-slot word is divided into 8 groups of 8 slots, and per group the
//! calendar maintains the minimum packed key plus its within-group
//! position. The earliest-arrival scan then compares exactly `8 * W`
//! group minimums — constant work, independent of how many arrivals are
//! pending — instead of walking every occupied slot (the flat scan cost
//! ~0.64 ns/event/agent and dominated the event loop at high agent
//! counts). Scheduling compare-updates one group min; popping rescans
//! only the popped slot's 8-slot group (or nothing, when the group
//! empties). The self-rearming request cycle — every agent's steady
//! state — additionally uses the fused [`CalendarQueue::schedule_arrival`]
//! fast path, which skips the event-kind dispatch and re-validation of
//! the general [`CalendarQueue::schedule`] entry point when re-arming a
//! slot the simulator just vacated.
//!
//! The tests below keep the pre-calendar `BinaryHeap` queue as a
//! reference and require the calendar to pop the identical sequence for
//! arbitrary interleaved schedule/pop traces.

use busarb_types::{AgentId, Time};

/// A simulation event.
///
/// At equal timestamps events are processed in the order: arbitration
/// completion, transaction end, request arrival (then by insertion order).
/// The arrival-last rule means a request arriving exactly at a transaction
/// boundary has *missed* the arbitration starting at that boundary, which
/// is the conservative hardware interpretation (its request-line assertion
/// propagates after the arbitration-start strobe).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Event {
    /// An in-flight arbitration settles; its winner becomes the next
    /// master.
    ArbitrationComplete,
    /// The current bus transaction finishes.
    TransactionEnd,
    /// An agent finishes its think time and asserts the bus-request line.
    RequestArrival(AgentId),
}

/// Monotone order-preserving map from a finite timestamp to a `u64` key:
/// `a < b ⇔ key(a) < key(b)` and `a == b ⇔ key(a) == key(b)`.
///
/// The IEEE-754 bit pattern of a non-negative float already orders like
/// its value; setting the top bit lifts it above every negative value,
/// whose bits are complemented to reverse their order. Adding `+0.0`
/// first collapses `-0.0` onto `+0.0` (an exponential sample can be
/// `-0.0` when the uniform draw is exactly zero) so the two compare
/// *equal*, exactly as `Time`'s total order treats them. Every finite
/// input maps strictly below `u64::MAX`, which is therefore free to mean
/// "empty slot".
#[inline]
fn time_key(t: Time) -> u64 {
    let bits = (t.as_f64() + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// An occupied singleton slot: the verbatim timestamp, the insertion
/// sequence number, and the precomputed monotone time key.
type Single = Option<(Time, u64, u64)>;

/// Which calendar slot holds the earliest event (internal scan result).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pick {
    Empty,
    Completion,
    End,
    Arrival(usize),
}

/// A deterministic future-event list, stored as fixed struct-of-arrays
/// calendar planes over `W * 64` agent slots.
///
/// Events pop in timestamp order; ties resolve by event kind (see
/// [`Event`]) and then by insertion order, so identically seeded runs
/// replay identically.
///
/// Because each slot holds at most one event, scheduling a second
/// `ArbitrationComplete`, a second `TransactionEnd`, or a second arrival
/// for the same agent before the first has popped is a bug in the caller
/// and panics.
///
/// # Examples
///
/// ```
/// use busarb_sim::{Event, EventQueue};
/// use busarb_types::{AgentId, Time};
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let mut q = EventQueue::new();
/// q.schedule(Time::from(2.0), Event::TransactionEnd);
/// q.schedule(Time::from(1.0), Event::RequestArrival(AgentId::new(1)?));
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(t, Time::from(1.0));
/// assert!(matches!(e, Event::RequestArrival(_)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CalendarQueue<const W: usize> {
    /// Singleton slot for the in-flight arbitration's completion.
    completion: Single,
    /// Singleton slot for the current transaction's end.
    end: Single,
    /// Packed ordering keys, one per agent slot (indexed by
    /// `AgentId::index()`, in 64-slot words): monotone time key in the
    /// high 64 bits, insertion sequence in the low 64, so one `u128`
    /// compare realizes the full `(time, seq)` arrival order. Empty slots
    /// hold `u128::MAX`, which no occupied slot can reach.
    keys: [[u128; 64]; W],
    /// Verbatim timestamps, parallel to `keys` — popped events return the
    /// exact `Time` that was scheduled (the key plane normalizes `-0.0`
    /// and is not inverted back).
    times: [[Time; 64]; W],
    /// Occupancy bitmask over the agent slots: bit `idx % 64` of word
    /// `idx / 64` is set iff slot `idx` is occupied. Consulted by the
    /// double-schedule guards and the group rescan's "group now empty"
    /// fast-out; the minimum scan itself reads only the group index.
    occupied: [u64; W],
    /// Group-min index, level 1: the smallest packed key among each
    /// group of 8 consecutive slots (`u128::MAX` when the group is
    /// empty). The pop scan reads exactly these `8 * W` values.
    gkey: [[u128; 8]; W],
    /// Group-min index, level 2: which of the group's 8 slots holds
    /// `gkey` (stale, and never read, while the group is empty).
    gidx: [[u8; 8]; W],
    next_seq: u64,
}

/// The default-width calendar: two occupancy words, covering the
/// workspace-wide 128-agent ceiling.
pub type EventQueue = CalendarQueue<2>;

impl<const W: usize> CalendarQueue<W> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        CalendarQueue {
            completion: None,
            end: None,
            keys: [[u128::MAX; 64]; W],
            times: [[Time::ZERO; 64]; W],
            occupied: [0; W],
            gkey: [[u128::MAX; 8]; W],
            gidx: [[0; 8]; W],
            next_seq: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if the event's calendar slot is already occupied (two
    /// pending arrivals for one agent, or a second pending singleton
    /// event) — the simulator never does this; see the type docs — or if
    /// an arrival's agent identity exceeds the `W * 64` slots this width
    /// covers.
    pub fn schedule(&mut self, at: Time, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = time_key(at);
        match event {
            Event::ArbitrationComplete => {
                assert!(
                    self.completion.is_none(),
                    "calendar slot for {event:?} already occupied"
                );
                self.completion = Some((at, seq, key));
            }
            Event::TransactionEnd => {
                assert!(
                    self.end.is_none(),
                    "calendar slot for {event:?} already occupied"
                );
                self.end = Some((at, seq, key));
            }
            Event::RequestArrival(agent) => {
                let idx = agent.index();
                assert!(
                    idx < 64 * W,
                    "agent {} exceeds the {} slots of this calendar width",
                    agent.get(),
                    64 * W
                );
                let (w, bit) = (idx / 64, 1u64 << (idx % 64));
                assert!(
                    self.occupied[w] & bit == 0,
                    "calendar slot for {event:?} already occupied"
                );
                self.insert_arrival(at, idx, seq, key);
            }
        }
    }

    /// Fused fast path for the self-rearming request cycle: schedules
    /// `RequestArrival(agent)`, skipping the event-kind dispatch and the
    /// release-mode occupancy re-validation of [`CalendarQueue::schedule`].
    /// The simulator calls this for every think-time re-arm — the slot
    /// was vacated when the agent's previous arrival popped, so the
    /// invariant is upheld by construction (and still checked in debug
    /// builds).
    #[inline]
    pub fn schedule_arrival(&mut self, at: Time, agent: AgentId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = agent.index();
        debug_assert!(
            idx < 64 * W,
            "agent {} exceeds the {} slots of this calendar width",
            agent.get(),
            64 * W
        );
        debug_assert!(
            self.occupied[idx / 64] & (1u64 << (idx % 64)) == 0,
            "calendar slot for RequestArrival({agent:?}) already occupied"
        );
        self.insert_arrival(at, idx, seq, time_key(at));
    }

    /// Writes an arrival into its slot and compare-updates the group-min
    /// index (both schedule entry points funnel here after validation).
    #[inline]
    fn insert_arrival(&mut self, at: Time, idx: usize, seq: u64, key: u64) {
        let (w, i) = (idx / 64, idx % 64);
        let packed = (u128::from(key) << 64) | u128::from(seq);
        self.occupied[w] |= 1u64 << i;
        self.keys[w][i] = packed;
        self.times[w][i] = at;
        let g = i / 8;
        if packed < self.gkey[w][g] {
            self.gkey[w][g] = packed;
            self.gidx[w][g] = (i % 8) as u8;
        }
    }

    /// Locates the earliest pending event: fold the two singleton slots by
    /// `(time key, rank)` — completion outranks end at equal times — then
    /// running-minimum the `8 * W` group minimums of the arrival index
    /// (constant work regardless of how many arrivals are pending). An
    /// arrival preempts the best singleton only when its time key is
    /// *strictly* smaller (arrivals carry the highest tie-break rank).
    fn pick(&self) -> Pick {
        let mut single_key = u64::MAX;
        let mut single = Pick::Empty;
        if let Some((_, _, key)) = self.completion {
            single_key = key;
            single = Pick::Completion;
        }
        if let Some((_, _, key)) = self.end {
            if key < single_key {
                single_key = key;
                single = Pick::End;
            }
        }
        let mut best_key = u128::MAX;
        let mut best_idx = 0usize;
        for w in 0..W {
            for g in 0..8 {
                let key = self.gkey[w][g];
                if key < best_key {
                    best_key = key;
                    best_idx = w * 64 + g * 8 + self.gidx[w][g] as usize;
                }
            }
        }
        // `single_key == u64::MAX` ⇔ no singleton pending, and an empty
        // arrival index folds to `best_key == u128::MAX`, whose high half
        // is `u64::MAX` — never strictly below `single_key` — so this one
        // comparison resolves every combination of pending kinds.
        if ((best_key >> 64) as u64) < single_key {
            Pick::Arrival(best_idx)
        } else {
            single
        }
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        match self.pick() {
            Pick::Empty => None,
            // `pick` only names a slot it saw occupied, so the takes
            // below always succeed; `?` keeps the hot pop panic-free.
            Pick::Completion => {
                let (t, _, _) = self.completion.take()?;
                Some((t, Event::ArbitrationComplete))
            }
            Pick::End => {
                let (t, _, _) = self.end.take()?;
                Some((t, Event::TransactionEnd))
            }
            Pick::Arrival(idx) => {
                // `idx + 1 >= 1`, so the identity always constructs;
                // built before any slot bookkeeping so a (debug-only)
                // failure cannot leave the planes half-updated.
                let agent = AgentId::new(idx as u32 + 1).ok()?;
                let (w, i) = (idx / 64, idx % 64);
                self.occupied[w] &= !(1u64 << i);
                self.keys[w][i] = u128::MAX;
                // Restore the popped slot's group minimum: empty groups
                // reset in O(1); otherwise rescan the group's 8 key
                // slots (empty ones hold `u128::MAX` and lose every
                // comparison, so no occupancy masking is needed).
                let g = i / 8;
                let base = g * 8;
                if (self.occupied[w] >> base) & 0xFF == 0 {
                    self.gkey[w][g] = u128::MAX;
                } else {
                    let mut bk = u128::MAX;
                    let mut bi = 0u8;
                    for j in 0..8 {
                        let key = self.keys[w][base + j];
                        if key < bk {
                            bk = key;
                            bi = j as u8;
                        }
                    }
                    self.gkey[w][g] = bk;
                    self.gidx[w][g] = bi;
                }
                Some((self.times[w][i], Event::RequestArrival(agent)))
            }
        }
    }
}

impl<const W: usize> Default for CalendarQueue<W> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// Tie-break rank at equal timestamps (lower runs first), which the
    /// calendar encodes positionally in `CalendarQueue::pick`.
    fn rank(event: Event) -> u8 {
        match event {
            Event::ArbitrationComplete => 0,
            Event::TransactionEnd => 1,
            Event::RequestArrival(_) => 2,
        }
    }

    /// A scheduled event in the reference heap.
    #[derive(Clone, Copy, Debug)]
    struct Scheduled {
        at: Time,
        rank: u8,
        seq: u64,
        event: Event,
    }

    impl PartialEq for Scheduled {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }

    impl Eq for Scheduled {}

    impl Ord for Scheduled {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; reverse so the earliest event pops
            // first.
            (other.at, other.rank, other.seq).cmp(&(self.at, self.rank, self.seq))
        }
    }

    impl PartialOrd for Scheduled {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The pre-calendar `BinaryHeap` event queue: the reference the
    /// calendar's pop order is checked against. Unlike the calendar it
    /// accepts any number of pending events of each kind.
    #[derive(Default)]
    struct HeapEventQueue {
        heap: BinaryHeap<Scheduled>,
        next_seq: u64,
    }

    impl HeapEventQueue {
        fn schedule(&mut self, at: Time, event: Event) {
            self.heap.push(Scheduled {
                at,
                rank: rank(event),
                seq: self.next_seq,
                event,
            });
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(Time, Event)> {
            self.heap.pop().map(|s| (s.at, s.event))
        }
    }

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    #[test]
    fn time_key_is_monotone_and_collapses_signed_zero() {
        let samples = [
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.5,
            f64::MAX,
        ];
        for pair in samples.windows(2) {
            let (a, b) = (Time::from(pair[0]), Time::from(pair[1]));
            assert!(time_key(a) < time_key(b), "{a:?} vs {b:?}");
        }
        assert_eq!(time_key(Time::from(-0.0)), time_key(Time::from(0.0)));
        for s in samples {
            assert!(time_key(Time::from(s)) < u64::MAX);
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from(3.0), Event::TransactionEnd);
        q.schedule(Time::from(1.0), Event::RequestArrival(id(1)));
        q.schedule(Time::from(2.0), Event::ArbitrationComplete);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_f64())
            .collect();
        assert_eq!(times, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn tie_break_by_event_kind() {
        let mut q = EventQueue::new();
        let t = Time::from(5.0);
        q.schedule(t, Event::RequestArrival(id(1)));
        q.schedule(t, Event::TransactionEnd);
        q.schedule(t, Event::ArbitrationComplete);
        assert_eq!(q.pop().unwrap().1, Event::ArbitrationComplete);
        assert_eq!(q.pop().unwrap().1, Event::TransactionEnd);
        assert_eq!(q.pop().unwrap().1, Event::RequestArrival(id(1)));
    }

    #[test]
    fn tie_break_by_insertion_order_within_kind() {
        let mut q = EventQueue::new();
        let t = Time::from(1.0);
        q.schedule(t, Event::RequestArrival(id(2)));
        q.schedule(t, Event::RequestArrival(id(1)));
        assert_eq!(q.pop().unwrap().1, Event::RequestArrival(id(2)));
        assert_eq!(q.pop().unwrap().1, Event::RequestArrival(id(1)));
    }

    #[test]
    fn slot_frees_on_pop_and_can_be_rescheduled() {
        let mut q = EventQueue::new();
        q.schedule(Time::from(1.0), Event::TransactionEnd);
        assert_eq!(q.pop().unwrap().1, Event::TransactionEnd);
        q.schedule(Time::from(2.0), Event::TransactionEnd);
        assert_eq!(q.pop().unwrap().0, Time::from(2.0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn schedule_arrival_fast_path_orders_like_schedule() {
        let mut fused = EventQueue::new();
        let mut general = EventQueue::new();
        for (agent, at) in [(3u32, 2.0), (1, 2.0), (7, 0.5), (5, 9.0)] {
            fused.schedule_arrival(Time::from(at), id(agent));
            general.schedule(Time::from(at), Event::RequestArrival(id(agent)));
        }
        fused.schedule(Time::from(2.0), Event::ArbitrationComplete);
        general.schedule(Time::from(2.0), Event::ArbitrationComplete);
        loop {
            let (a, b) = (fused.pop(), general.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn group_min_survives_pops_within_a_crowded_group() {
        // Agents 1..=8 share slot group 0; popping the minimum must
        // re-find the next-smallest key inside the same group each time.
        let mut q: CalendarQueue<1> = CalendarQueue::new();
        for agent in 1..=8u32 {
            q.schedule_arrival(Time::from(f64::from(9 - agent)), id(agent));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::RequestArrival(a) => a.get(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, [8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn narrow_width_covers_agent_64_and_spans_words_at_two() {
        let mut narrow: CalendarQueue<1> = CalendarQueue::new();
        narrow.schedule(Time::from(1.0), Event::RequestArrival(id(64)));
        assert_eq!(narrow.pop().unwrap().1, Event::RequestArrival(id(64)));

        let mut wide: CalendarQueue<2> = CalendarQueue::new();
        wide.schedule(Time::from(2.0), Event::RequestArrival(id(65)));
        wide.schedule(Time::from(1.0), Event::RequestArrival(id(128)));
        assert_eq!(wide.pop().unwrap().1, Event::RequestArrival(id(128)));
        assert_eq!(wide.pop().unwrap().1, Event::RequestArrival(id(65)));
    }

    #[test]
    #[should_panic(expected = "exceeds the 64 slots")]
    fn narrow_width_rejects_agents_beyond_its_slots() {
        let mut q: CalendarQueue<1> = CalendarQueue::new();
        q.schedule(Time::from(1.0), Event::RequestArrival(id(65)));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_scheduling_a_slot_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from(1.0), Event::RequestArrival(id(3)));
        q.schedule(Time::from(2.0), Event::RequestArrival(id(3)));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_scheduling_a_singleton_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from(1.0), Event::TransactionEnd);
        q.schedule(Time::from(2.0), Event::TransactionEnd);
    }

    /// Shadow occupancy for generating valid calendar traces.
    #[derive(Default)]
    struct Occupancy {
        completion: bool,
        end: bool,
        arrivals: [bool; 8],
    }

    impl Occupancy {
        fn slot(&mut self, event: Event) -> &mut bool {
            match event {
                Event::ArbitrationComplete => &mut self.completion,
                Event::TransactionEnd => &mut self.end,
                Event::RequestArrival(a) => &mut self.arrivals[a.index()],
            }
        }
    }

    /// Drives one interleaved schedule/pop trace against the reference
    /// heap at an arbitrary calendar width.
    fn check_against_heap<const W: usize>(ops: &[(bool, u8, u32, u32)]) {
        let mut calendar: CalendarQueue<W> = CalendarQueue::new();
        let mut heap = HeapEventQueue::default();
        let mut busy = Occupancy::default();
        for &(is_pop, kind, agent, half_ticks) in ops {
            if is_pop {
                let got = calendar.pop();
                prop_assert_eq!(got, heap.pop());
                if let Some((_, event)) = got {
                    *busy.slot(event) = false;
                }
            } else {
                let event = match kind {
                    0 => Event::ArbitrationComplete,
                    1 => Event::TransactionEnd,
                    _ => Event::RequestArrival(id(agent)),
                };
                // Respect the calendar's one-event-per-slot invariant
                // (which the simulator upholds by construction).
                let slot = busy.slot(event);
                if *slot {
                    continue;
                }
                *slot = true;
                let at = Time::from(f64::from(half_ticks) * 0.5);
                // Arrivals alternate between the general entry point and
                // the fused fast path, which must order identically.
                match event {
                    Event::RequestArrival(a) if half_ticks % 2 == 0 => {
                        calendar.schedule_arrival(at, a);
                    }
                    _ => calendar.schedule(at, event),
                }
                heap.schedule(at, event);
            }
        }
        // Drain: the full remaining pop sequences must also agree.
        loop {
            let (a, b) = (calendar.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The calendar pops the identical `(Time, Event)` sequence the
        /// reference heap pops, through to `None`, for arbitrary
        /// interleaved schedule/pop traces — including equal-timestamp
        /// ties (times are quantized to halves so collisions are common)
        /// — at both monomorphized widths.
        #[test]
        fn calendar_matches_reference_heap(
            ops in prop::collection::vec(
                (any::<bool>(), 0u8..3, 1u32..=8, 0u32..12),
                0..120,
            ),
        ) {
            check_against_heap::<1>(&ops);
            check_against_heap::<2>(&ops);
        }
    }
}
