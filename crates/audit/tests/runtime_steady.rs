//! The runtime hot-path allocation budget: after a warmup stretch has
//! grown every capacity (worker batch queues, session table, watcher
//! channels, latency histogram), a measured stretch of auto-release
//! acquisitions must stay under a small fixed allocation budget per
//! acquisition.
//!
//! Unlike the simulator's gate this is a *bound*, not zero: the vendored
//! `crossbeam-channel` is a std-mpsc wrapper that heap-allocates one
//! node per `send`, and one acquisition crosses at least two channels
//! (client → worker, worker → watcher; with one worker, messages and
//! timers stay in the worker's own delay heap).
//! The budget asserts the batched dispatch path adds nothing beyond
//! those constitutive sends — no per-event buffers, no per-batch Vec
//! churn beyond the reused queue, no stats boxing. A regression that
//! allocates per message or per event lands well above the ceiling and
//! fails reproducibly.
//!
//! `harness = false` for the same reason as `steady_state`: libtest's
//! own thread machinery allocates while the measured window runs.

use std::time::{Duration, Instant};

use oc_algo::{Config, OpenCubeNode};
use oc_audit::CountingAlloc;
use oc_runtime::{Runtime, RuntimeConfig};
use oc_sim::SimDuration;
use oc_topology::NodeId;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Generous ceiling on heap allocations per steady-state acquisition.
/// The constitutive cost is ~4 channel sends (acquire command, watcher
/// completion, and slack for worker-to-worker crossings); 16 leaves room
/// for allocator-internal noise while still catching any per-event or
/// per-message buffer introduced into the dispatch loop.
const MAX_ALLOCS_PER_ACQUISITION: u64 = 16;

fn acquire_burst(rt: &Runtime<OpenCubeNode>, count: u64) {
    let watcher = rt.watcher();
    for _ in 0..count {
        let _ = rt.acquire_watched(0, NodeId::new(1), &watcher, true);
        assert!(
            watcher.recv_timeout(Duration::from_secs(30)).is_some(),
            "steady-state acquisition wedged"
        );
    }
}

fn main() {
    let protocol = Config::new(4, SimDuration::from_ticks(16), SimDuration::from_ticks(25))
        .with_contention_slack(SimDuration::from_ticks(50_000));
    let rt = Runtime::start(
        RuntimeConfig {
            workers: 1,
            tick: Duration::from_micros(20),
            max_network_delay: Duration::from_micros(200),
            cs_duration: Duration::from_micros(500),
            seed: 42,
            ..RuntimeConfig::default()
        },
        OpenCubeNode::build_all(protocol),
    );

    // Warmup: session slots, histogram buckets, batch queues, watcher
    // channel — every capacity the measured stretch will reuse.
    acquire_burst(&rt, 2_000);

    let before = ALLOC.snapshot();
    let measured = 10_000u64;
    acquire_burst(&rt, measured);
    let after = ALLOC.snapshot();

    let allocs = after.0 - before.0;
    let per_acq = allocs / measured;
    assert!(
        per_acq <= MAX_ALLOCS_PER_ACQUISITION,
        "runtime hot path allocates too much: {allocs} allocations / {measured} acquisitions \
         = {per_acq}/acq (budget {MAX_ALLOCS_PER_ACQUISITION}/acq, bytes {} -> {})",
        before.1,
        after.1
    );

    assert!(rt.await_settled(Duration::from_secs(30)), "runtime did not settle");
    let t0 = Instant::now();
    let report = rt.shutdown();
    assert!(report.is_clean(), "oracle violations: {:?}", report.safety.violations());
    assert_eq!(report.requests_completed, 12_000);
    println!(
        "runtime steady-state audit: {per_acq} allocs/acquisition across {measured} \
         (budget {MAX_ALLOCS_PER_ACQUISITION}) — ok (shutdown {:?})",
        t0.elapsed()
    );
}
