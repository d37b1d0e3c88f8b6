//! `rt-saturate`: the threaded lock service at capacity. 64 namespaces
//! of 16-node cubes share 2 workers; one client thread keeps one
//! auto-release acquisition outstanding per namespace, each at a
//! uniformly random node, so the token moves on almost every
//! acquisition. A closed loop with 64 requests outstanding.

use std::time::{Duration, Instant};

use oc_algo::{Config, OpenCubeNode};
use oc_bench::loadgen::{CS_TICKS, DELTA_TICKS, MAX_NET_DELAY, SLACK_TICKS, TICK};
use oc_runtime::{RequestStatus, Runtime, RuntimeConfig, RuntimeReport, Watcher};
use oc_sim::{DelayModel, SimConfig, SimDuration};
use oc_topology::NodeId;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::layers::LayerReport;
use crate::measure::{
    median, peak_rss_mib, per, process_cpu_secs, quantile_sorted, secs_since, thread_cpu_secs,
    RunResult,
};
use crate::redrive::Redrive;
use crate::trace::{Layer, Tracer};
use crate::Size;

const NAMESPACES: usize = 64;
const CUBE: usize = 16;
const WORKERS: usize = 2;
/// Extra start-ups timed per run for `setup_s`.
const SETUP_PROBES: u64 = 100;
/// A request stuck longer than this is a wedge, not queueing.
const GRACE: Duration = Duration::from_secs(30);

fn protocol() -> Config {
    Config::new(CUBE, SimDuration::from_ticks(DELTA_TICKS), SimDuration::from_ticks(CS_TICKS))
        .with_contention_slack(SimDuration::from_ticks(SLACK_TICKS))
}

fn start_runtime(seed: u64) -> Runtime<OpenCubeNode> {
    Runtime::start_multi(
        RuntimeConfig {
            workers: WORKERS,
            tick: TICK,
            max_network_delay: MAX_NET_DELAY,
            cs_duration: TICK * CS_TICKS as u32,
            seed,
            ..RuntimeConfig::default()
        },
        (0..NAMESPACES).map(|_| OpenCubeNode::build_all(protocol())).collect(),
    )
}

/// One runtime session: start, closed loop of a fixed number of
/// acquisitions, settle,
/// shut down.
struct Session {
    setup_s: f64,
    loop_s: f64,
    shutdown_s: f64,
    /// Acquire→completion latencies seen by the client, nanoseconds.
    latencies: Vec<u64>,
    cpu_s: f64,
    client_cpu_s: f64,
    settled: bool,
    report: RuntimeReport,
}

impl Session {
    fn acq_per_s(&self) -> f64 {
        per(self.report.requests_completed as f64, self.loop_s)
    }
}

/// The closed-loop client: picks each acquisition's node and remembers
/// when each namespace's outstanding request was issued.
struct Client {
    rng: StdRng,
    issued: Vec<Instant>,
}

impl Client {
    fn acquire(
        &mut self,
        rt: &Runtime<OpenCubeNode>,
        watcher: &Watcher,
        ns: usize,
        tracer: &mut Option<&mut Tracer>,
    ) {
        let node = NodeId::new(self.rng.random_range(1..=CUBE as u32));
        self.issued[ns] = Instant::now();
        match tracer.as_deref_mut() {
            Some(t) => {
                t.enter(Layer::RuntimeAcquire, 0);
                let id = rt.acquire_watched(ns, node, watcher, true);
                t.rekey(id.index());
                t.exit();
            }
            None => {
                let _ = rt.acquire_watched(ns, node, watcher, true);
            }
        }
    }
}

fn session(seed: u64, acquisitions: usize, mut tracer: Option<&mut Tracer>) -> Session {
    let t0 = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.enter(Layer::RuntimeStart, 0);
    }
    let rt = start_runtime(seed);
    let watcher = rt.watcher();
    if let Some(t) = tracer.as_deref_mut() {
        t.exit();
    }
    let setup_s = secs_since(t0);

    let mut client = Client {
        rng: StdRng::seed_from_u64(seed ^ 0x5A7_0A7E),
        issued: vec![Instant::now(); NAMESPACES],
    };
    let mut latencies = Vec::with_capacity(acquisitions);
    let cpu0 = process_cpu_secs();
    let client0 = thread_cpu_secs();
    let loop_start = Instant::now();
    let first = NAMESPACES.min(acquisitions);
    for ns in 0..first {
        client.acquire(&rt, &watcher, ns, &mut tracer);
    }
    let mut issued = first;
    let mut outstanding = first;
    while outstanding > 0 {
        if let Some(t) = tracer.as_deref_mut() {
            t.enter(Layer::RuntimeWait, 0);
        }
        let next = watcher.recv_timeout(GRACE);
        if let Some(t) = tracer.as_deref_mut() {
            if let Some((id, _)) = next {
                t.rekey(id.index());
            }
            t.exit();
        }
        let Some((id, status)) = next else { break };
        let now = Instant::now();
        outstanding -= 1;
        let ns = rt.namespace_of(id).expect("completion maps to a namespace");
        if status == RequestStatus::Completed {
            latencies.push(now.duration_since(client.issued[ns]).as_nanos() as u64);
        }
        if issued < acquisitions {
            client.acquire(&rt, &watcher, ns, &mut tracer);
            issued += 1;
            outstanding += 1;
        }
    }
    let loop_s = secs_since(loop_start);
    let cpu_s = process_cpu_secs() - cpu0;
    let client_cpu_s = thread_cpu_secs() - client0;

    let t2 = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.enter(Layer::RuntimeShutdown, 0);
    }
    let settled = rt.await_settled(Duration::from_secs(60));
    let report = rt.shutdown();
    if let Some(t) = tracer {
        t.exit();
    }
    let shutdown_s = secs_since(t2);
    latencies.sort_unstable();
    Session { setup_s, loop_s, shutdown_s, latencies, cpu_s, client_cpu_s, settled, report }
}

fn check_session(res: &mut RunResult, s: &Session) {
    let r = &s.report;
    res.attempted += r.requests_injected;
    res.failed += r.requests_injected.saturating_sub(r.requests_completed);
    res.check(r.is_clean(), || "rt-saturate: oracle violation".into());
    res.check(s.settled, || "rt-saturate: runtime did not settle".into());
    res.check(r.requests_injected == r.requests_completed + r.requests_abandoned, || {
        format!(
            "rt-saturate: injected {} != served {} + abandoned {}",
            r.requests_injected, r.requests_completed, r.requests_abandoned
        )
    });
    res.check(r.requests_abandoned == 0, || {
        format!("rt-saturate: {} acquisitions abandoned", r.requests_abandoned)
    });
}

/// Acquisitions per session: a fixed count, so a session's memory does
/// not depend on how fast it ran (about 2 s at 100k acquisitions/s).
fn session_len(size: Size) -> usize {
    match size {
        Size::Full => 200_000,
        Size::Quick => 5_000,
    }
}

/// Untraced rt-saturate: sessions until the budget is spent (at least
/// three). Throughput is over all sessions; latency is the median of the
/// sessions' medians.
pub fn rt_saturate(seed: u64, seconds: f64, size: Size) -> RunResult {
    let mut res = RunResult::new();
    let start = Instant::now();
    let mut sessions = Vec::new();
    let mut peak_mib = f64::NAN;
    while sessions.len() < 3 || secs_since(start) < seconds {
        let s = session(seed.wrapping_add(sessions.len() as u64), session_len(size), None);
        check_session(&mut res, &s);
        if sessions.is_empty() {
            // Memory a finished session freed stays with the allocator's
            // per-thread arenas, and the next session's threads only
            // partly reuse it, so the process's peak keeps creeping up
            // with the number of sessions. The first session's peak is
            // the footprint of one session from a fresh process.
            peak_mib = peak_rss_mib();
        }
        sessions.push(s);
    }
    // Start-up takes well under a millisecond, so it gets samples of its
    // own beside the sessions' (shutdown is not timed).
    let mut setups: Vec<f64> = (0..SETUP_PROBES)
        .map(|k| {
            let t0 = Instant::now();
            let rt = start_runtime(seed.wrapping_add(k));
            let _watcher = rt.watcher();
            let setup = secs_since(t0);
            let _ = rt.shutdown();
            setup
        })
        .collect();
    setups.extend(sessions.iter().map(|s| s.setup_s));
    let med = |f: &dyn Fn(&Session) -> f64| median(&sessions.iter().map(f).collect::<Vec<_>>());
    let q = |s: &Session, p: f64| quantile_sorted(&s.latencies, p) as f64 / 1e3;
    eprintln!(
        "rt-saturate: acq/s per session {:.0?}, samples per session {:?}",
        sessions.iter().map(Session::acq_per_s).collect::<Vec<_>>(),
        sessions.iter().map(|s| s.latencies.len()).collect::<Vec<_>>()
    );
    res.put("setup_s", median(&setups));
    res.put("peak_rss_mib", peak_mib);
    let served: u64 = sessions.iter().map(|s| s.report.requests_completed).sum();
    res.put("acq_per_s", per(served as f64, sessions.iter().map(|s| s.loop_s).sum()));
    res.put("p50_us", med(&|s| q(s, 0.50)));
    res
}

/// Traced rt-saturate: one untraced session as the overhead baseline,
/// one with spans keyed by `RequestId` around every `acquire_watched`
/// and `Watcher::recv_timeout`, then a closed-loop re-drive of one
/// namespace for the protocol layer.
pub fn rt_saturate_traced(seed: u64, size: Size, tracer: &mut Tracer) -> (RunResult, LayerReport) {
    let mut res = RunResult::new();
    let mut layers = LayerReport::default();
    let base = session(seed, session_len(size), None);
    check_session(&mut res, &base);

    let traced_start = Instant::now();
    let s = session(seed, session_len(size), Some(tracer));
    check_session(&mut res, &s);
    let served = s.report.requests_completed as f64;
    let rt_msgs_per_cs = per(s.report.messages_sent as f64, s.report.cs_entries as f64);

    // Protocol layer: one namespace's cube as a closed loop, with the
    // router's delay bound expressed in ticks.
    let acquisitions = match size {
        Size::Full => 50_000,
        Size::Quick => 2_000,
    };
    let max_delay_ticks = (MAX_NET_DELAY.as_nanos() / TICK.as_nanos()).max(1) as u64;
    let config = SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(1),
            max: SimDuration::from_ticks(max_delay_ticks),
        },
        cs_duration: SimDuration::from_ticks(1),
        seed,
        ..SimConfig::default()
    };
    let mut rd = Redrive::new(config, OpenCubeNode::build_all(protocol()), tracer);
    rd.closed_loop(acquisitions, seed);
    let drained = rd.run(u64::MAX);
    let counts = rd.counts().clone();
    res.check(drained && rd.oracle_report().is_clean(), || {
        "rt-saturate re-drive: violation".into()
    });
    drop(rd);
    let traced_wall = secs_since(traced_start);
    let rd_msgs_per_cs = per(counts.messages() as f64, counts.cs_entries as f64);
    let rd_events_per_cs = per(counts.events as f64, counts.cs_entries as f64);

    layers.set("runtime.acquire_ns", tracer.layer(Layer::RuntimeAcquire).mean_total_ns());
    layers.set("runtime.wait_us", tracer.layer(Layer::RuntimeWait).mean_total_ns() / 1e3);
    layers.set("runtime.cpu_us_per_acq", per(s.cpu_s * 1e6, served));
    layers.set("runtime.client_cpu_share", per(s.client_cpu_s, s.cpu_s));
    layers.set("runtime.events_per_acq", per(s.report.events_processed as f64, served));
    layers.set("runtime.msgs_per_acq", per(s.report.messages_sent as f64, served));
    layers.set("runtime.start_ms", s.setup_s * 1e3);
    layers.set("runtime.shutdown_ms", s.shutdown_s * 1e3);
    crate::sim::sim_layers(&mut layers, tracer, &counts);
    // The runtime counts worker commands, the re-drive simulator events:
    // both per served critical section.
    layers.set(
        "redrive.events_ratio",
        per(rd_events_per_cs, per(s.report.events_processed as f64, served)),
    );
    layers.set("redrive.msgs_ratio", per(rd_msgs_per_cs, rt_msgs_per_cs));
    layers.set("trace.overhead_pct", 100.0 * (base.acq_per_s() / s.acq_per_s() - 1.0));
    layers.set("unattributed_pct", tracer.unattributed_pct(traced_wall));
    eprintln!(
        "rt-saturate traced: {:.0} acq/s traced vs {:.0} untraced; re-drive {rd_msgs_per_cs:.3} msgs/cs vs runtime {rt_msgs_per_cs:.3}",
        s.acq_per_s(),
        base.acq_per_s(),
    );
    (res, layers)
}
