//! Bounded-memory guarantee: analyzing a trace 16× longer must not use
//! more heap, in either framing.
//!
//! The acceptance criterion for `busarb analyze` is that peak memory is
//! *independent of trace length* — the analyzers hold O(agents +
//! buckets) state and the readers buffer one record or line. Rather
//! than spot-checking RSS (noisy, allocator-dependent), this test swaps
//! in a global allocator that tracks live bytes and their high-water
//! mark, synthesizes BTRC and JSONL streams of two very different
//! lengths on the fly (no file, no materialized event list — the
//! generator itself is O(1)), and asserts the peak for the long stream
//! does not exceed the short stream's peak plus slack. It also pins the
//! hot loop: once warm, reading events from either framing and pushing
//! them into the pipeline performs zero steady-state allocations — in
//! particular a canonical JSONL line is decoded without building a JSON
//! tree.
//!
//! Everything runs in ONE `#[test]`: the harness runs tests on separate
//! threads and the allocator counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use busarb_obs::{TraceFormat, TraceHeader, TraceReader, TRACE_SCHEMA};
use busarb_tail::synth::SyntheticTrace;
use busarb_tail::{analyze, Pipeline};

struct TrackingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            on_alloc(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

fn header(agents: u32) -> TraceHeader {
    TraceHeader {
        schema: TRACE_SCHEMA.to_string(),
        protocol: "rr".to_string(),
        agents,
        seed: 3,
        warmup_samples: 100,
        batches: 4,
        samples_per_batch: 50,
        confidence: 0.9,
    }
}

/// Peak live heap while analyzing a synthetic stream of `n` transactions.
fn peak_during_analysis(format: TraceFormat, n: u64) -> (usize, u64) {
    let h = header(8);
    let stream = SyntheticTrace::new(format, &h, n);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let base = LIVE.load(Ordering::Relaxed);
    let mut reader = TraceReader::new(stream).expect("synthetic stream is valid");
    let report = analyze("synthetic", &mut reader).expect("synthetic stream analyzes");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    (peak, report.events)
}

#[test]
fn peak_memory_is_independent_of_trace_length_and_hot_path_is_steady() {
    // --- Peak-vs-length: 16× more events, same peak (plus slack). ---
    for format in [TraceFormat::Binary, TraceFormat::Jsonl] {
        let (short_peak, short_events) = peak_during_analysis(format, 8_192);
        let (long_peak, long_events) = peak_during_analysis(format, 16 * 8_192);
        assert_eq!(short_events, 4 * 8_192);
        assert_eq!(long_events, 4 * 16 * 8_192);
        // The pipeline state is identical in both runs; the only
        // variable heap is transient allocator noise. 64 KiB of slack is
        // far below the ~1.6 MiB the long trace's event list would need
        // if anything materialized it.
        assert!(
            long_peak <= short_peak + (64 << 10),
            "{format}: peak grew with trace length: short {short_peak} vs long {long_peak}"
        );
    }

    // --- Steady state: a warm reader + pipeline, per framing. ---
    for format in [TraceFormat::Binary, TraceFormat::Jsonl] {
        let stream = SyntheticTrace::new(format, &header(8), 1 << 20);
        let mut reader = TraceReader::new(stream).expect("synthetic stream is valid");
        let mut pipeline = Pipeline::new(reader.header()).expect("valid header");
        let mut read_and_push = |events: u32| {
            for _ in 0..events {
                let event = reader
                    .next_event()
                    .expect("synthetic events decode")
                    .expect("the stream is long enough");
                pipeline.push(&event).expect("in-roster event");
            }
        };
        // Warm-up absorbs lazy one-time allocations, and grows the line
        // buffer for the lines that straddle a refill of the reader's
        // buffer. The minimum over a few windows tolerates harness
        // threads allocating concurrently; a real per-event allocation
        // would hit every window.
        read_and_push(20_000);
        let steady = (0..3)
            .map(|_| {
                let before = ALLOCS.load(Ordering::Relaxed);
                read_and_push(20_000);
                ALLOCS.load(Ordering::Relaxed) - before
            })
            .min()
            .expect("non-empty windows");
        assert_eq!(
            steady, 0,
            "{format}: reading + pushing allocated in steady state"
        );
    }
}
