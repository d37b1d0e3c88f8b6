//! The two simulator workloads.
//!
//! * `sim-scale` — one world at n = 2^20 under E7's load, fault-free,
//!   serial driver, bucketed queue. The node state outgrows the L3
//!   cache, so the event queue and memory layout dominate.
//! * `sim-faults` — the explorer's default scenario space judged
//!   serially for a fixed budget: thousands of tiny fault-injected
//!   worlds, so world setup, the fault path and the oracles dominate.

use std::time::Instant;

use oc_algo::{Config, Hardening, Mutation, OpenCubeNode};
use oc_bench::{e7_throughput, CS_TICKS, DELTA};
use oc_check::{run_scenario, Outcome, Scenario, Space};
use oc_sim::{
    check_liveness, ArrivalSchedule, DelayModel, Driver, Fnv64, LinkFaults, MsgKind, QueueBackend,
    SimConfig, SimDuration, SimTime, World,
};
use oc_topology::NodeId;
use rand::{rngs::StdRng, SeedableRng};

use crate::layers::LayerReport;
use crate::measure::{median, peak_rss_mib, per, secs_since, Histogram, RunResult};
use crate::redrive::{Counts, Redrive};
use crate::trace::{Layer, Tracer};
use crate::Size;

/// E7's arrival gap, in ticks.
const GAP_TICKS: u64 = 25;

// ---------------------------------------------------------------------
// sim-scale
// ---------------------------------------------------------------------

fn scale_n(size: Size) -> usize {
    match size {
        Size::Full => 1 << 20,
        Size::Quick => 1 << 12,
    }
}

/// E7's simulator configuration (`oc_bench::e7_throughput` builds the
/// same one).
fn e7_config(seed: u64) -> SimConfig {
    SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(1),
            max: SimDuration::from_ticks(DELTA),
        },
        cs_duration: SimDuration::from_ticks(CS_TICKS),
        seed,
        max_events: 2_000_000_000,
        queue: QueueBackend::Bucketed,
        driver: Driver::Serial,
        ..SimConfig::default()
    }
}

fn e7_nodes(n: usize) -> Vec<OpenCubeNode> {
    OpenCubeNode::build_all(Config::without_fault_tolerance(
        n,
        SimDuration::from_ticks(DELTA),
        SimDuration::from_ticks(CS_TICKS),
    ))
}

/// One request per node on average, uniformly placed, 25 ticks apart.
fn e7_schedule(n: usize, seed: u64) -> ArrivalSchedule {
    let mut rng = StdRng::seed_from_u64(seed);
    ArrivalSchedule::uniform(&mut rng, n, n, SimDuration::from_ticks(GAP_TICKS))
}

/// What one sim-scale repetition must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScaleCounts {
    events: u64,
    messages: u64,
    mem_bytes_per_node: u64,
}

struct ScaleRep {
    counts: ScaleCounts,
    requests: u64,
    served: u64,
    setup_s: f64,
    run_s: f64,
    clean: bool,
}

/// One step in this many is timed on its own; timing every step would
/// add two clock reads to a step of a few hundred nanoseconds.
const STEP_SAMPLE: u64 = 16;

/// Builds and runs one world through `World`'s public calls, timing
/// set-up (schedule + `World::new` + `schedule_workload`) apart from
/// the run. The run steps the world serially, as `run_to_quiescence`
/// does under `Driver::Serial`, and records every `STEP_SAMPLE`-th
/// step's wall time in `steps`.
fn scale_rep(n: usize, seed: u64, steps: &mut Histogram) -> ScaleRep {
    let t0 = Instant::now();
    let schedule = e7_schedule(n, seed);
    let config = e7_config(seed);
    let max_events = config.max_events;
    let mut world = World::new(config, e7_nodes(n));
    world.schedule_workload(&schedule);
    let setup_s = secs_since(t0);
    let t1 = Instant::now();
    let mut drained = false;
    let mut k = 0u64;
    while world.metrics().events_processed < max_events {
        let more = if k.is_multiple_of(STEP_SAMPLE) {
            let ts = Instant::now();
            let more = world.step();
            steps.record(ts.elapsed().as_nanos() as u64);
            more
        } else {
            world.step()
        };
        if !more {
            drained = true;
            break;
        }
        k += 1;
    }
    let run_s = secs_since(t1);
    let m = world.metrics();
    ScaleRep {
        counts: ScaleCounts {
            events: m.events_processed,
            messages: m.total_sent(),
            mem_bytes_per_node: world.mem_bytes_per_node(),
        },
        requests: world.requests_injected(),
        served: m.cs_entries,
        setup_s,
        run_s,
        clean: drained && world.oracle_report().is_clean(),
    }
}

/// Repetitions are identical inputs; each must reproduce the first's
/// deterministic counts.
fn check_scale(res: &mut RunResult, rep: &ScaleRep, first: ScaleCounts) {
    res.attempted += rep.requests;
    res.failed += rep.requests.saturating_sub(rep.served);
    res.check(rep.clean, || "sim-scale: oracle reported a violation or the run wedged".into());
    res.check(rep.served == rep.requests, || {
        format!("sim-scale: {} of {} requests unserved", rep.requests - rep.served, rep.requests)
    });
    res.check(rep.counts == first, || {
        format!("sim-scale: counts {:?} differ from the first repetition's {first:?}", rep.counts)
    });
}

/// Untraced sim-scale: one E7 run through `oc_bench::e7_throughput`,
/// then world-by-world repetitions while the budget lasts (at least
/// three, so set-up time has a median). Throughput is over the whole
/// run; step latency is the median of the steps sampled in all
/// repetitions.
pub fn sim_scale(seed: u64, seconds: f64, size: Size) -> RunResult {
    let n = scale_n(size);
    let mut res = RunResult::new();
    let start = Instant::now();
    let row = e7_throughput(n, n, seed, QueueBackend::Bucketed, Driver::Serial);
    let first = ScaleCounts {
        events: row.events,
        messages: row.messages,
        mem_bytes_per_node: row.mem_bytes_per_node,
    };
    // e7_throughput asserts a clean oracle and every request served.
    res.attempted += row.requests;
    let (mut served, mut run_s) = (row.requests, row.wall_secs);
    let mut rates = vec![per(row.requests as f64, row.wall_secs)];
    let mut setups = Vec::new();
    let mut steps = Histogram::new(1, 1 << 16);
    // A repetition takes seconds, so one starts only if it should end
    // within the budget, judged by how long the last one took.
    let mut last_s = 0.0;
    while setups.len() < 3 || secs_since(start) + last_s < seconds {
        let t = Instant::now();
        let rep = scale_rep(n, seed, &mut steps);
        last_s = secs_since(t);
        check_scale(&mut res, &rep, first);
        served += rep.served;
        run_s += rep.run_s;
        rates.push(per(rep.served as f64, rep.run_s));
        setups.push(rep.setup_s);
    }
    eprintln!(
        "sim-scale n={n}: {} events, {} messages, {} B/node; served/s per repetition {rates:.0?}",
        first.events, first.messages, first.mem_bytes_per_node
    );
    res.put("setup_s", median(&setups));
    res.put("peak_rss_mib", peak_rss_mib());
    res.put("acq_per_s", per(served as f64, run_s));
    res.put("p50_us", steps.median_ns() / 1e3);
    res
}

/// Traced sim-scale: an untraced repetition as the overhead baseline,
/// the same world with a span around every public `World` call, then
/// the re-drive that splits a step into queue, protocol, send path and
/// oracle.
pub fn sim_scale_traced(seed: u64, size: Size, tracer: &mut Tracer) -> (RunResult, LayerReport) {
    let n = scale_n(size);
    let mut res = RunResult::new();
    let mut layers = LayerReport::default();
    let base = scale_rep(n, seed, &mut Histogram::new(1, 1));
    check_scale(&mut res, &base, base.counts);

    // Pass 1: spans around World::new, schedule_workload and each step.
    let traced_start = Instant::now();
    let schedule = e7_schedule(n, seed);
    tracer.enter(Layer::WorldNew, 0);
    let mut world = World::new(e7_config(seed), e7_nodes(n));
    tracer.exit();
    tracer.span(Layer::WorldSchedule, 0, || world.schedule_workload(&schedule));
    let t_run = Instant::now();
    let mut key = 0u64;
    loop {
        tracer.enter(Layer::WorldStep, key);
        let more = world.step();
        tracer.exit();
        if !more {
            break;
        }
        key += 1;
    }
    let traced_run_s = secs_since(t_run);
    tracer.enter(Layer::Liveness, 0);
    let liveness = check_liveness(&world, true);
    tracer.exit();
    res.check(liveness.is_clean() && world.oracle_report().is_clean(), || {
        "sim-scale traced: oracle violation".into()
    });
    let m = world.metrics();
    res.check(m.events_processed == base.counts.events, || {
        "sim-scale traced: stepped world diverged from the untraced run".into()
    });
    drop(world);

    // Pass 2: the re-drive.
    let mut rd = Redrive::new(e7_config(seed), e7_nodes(n), tracer);
    for (at, node) in schedule.arrivals() {
        rd.schedule_request(*at, *node);
    }
    let drained = rd.run(u64::MAX);
    let counts = rd.counts().clone();
    res.check(drained && rd.oracle_report().is_clean(), || {
        "sim-scale re-drive: oracle violation".into()
    });
    drop(rd);
    let traced_wall = secs_since(traced_start);
    res.attempted += counts.requests;
    res.failed += counts.requests.saturating_sub(counts.cs_entries);

    sim_layers(&mut layers, tracer, &counts);
    layers.set("sim.world.mem_bytes_per_node", base.counts.mem_bytes_per_node as f64);
    layers.set("redrive.events_ratio", per(counts.events as f64, base.counts.events as f64));
    layers.set("redrive.msgs_ratio", per(counts.messages() as f64, base.counts.messages as f64));
    layers.set("trace.overhead_pct", 100.0 * (traced_run_s - base.run_s) / base.run_s);
    layers.set("unattributed_pct", tracer.unattributed_pct(traced_wall));
    eprintln!(
        "sim-scale re-drive: {} events / {} messages (untraced world: {} / {})",
        counts.events,
        counts.messages(),
        base.counts.events,
        base.counts.messages
    );
    (res, layers)
}

/// The simulator-internal layers, read off the re-drive's spans and
/// sink counts (and, on the simulator workloads, `World`'s spans).
pub fn sim_layers(layers: &mut LayerReport, tracer: &Tracer, counts: &Counts) {
    let queue = tracer.layer(Layer::Queue);
    layers.set("sim.queue.op_ns", queue.mean_self_ns());
    layers.set("sim.queue.pending_peak", counts.pending_peak as f64);
    layers.set("sim.world.new_ms", tracer.layer(Layer::WorldNew).mean_total_ns() / 1e6);
    let step = tracer.layer(Layer::WorldStep);
    layers.set("sim.world.step_ns.p50", step.quantile_ns(0.50));
    layers.set("sim.world.step_ns.p99", step.quantile_ns(0.99));
    layers.set("sim.send_ns", tracer.layer(Layer::Send).mean_total_ns());
    layers.set("algo.step_ns", tracer.layer(Layer::Algo).mean_self_ns());
    layers.set_msgs_per_cs(counts);
    let cs = counts.cs_entries as f64;
    layers.set("sim.oracle_ns_per_cs", per(tracer.layer(Layer::Oracle).total_ns as f64, cs));
    layers.set("sim.liveness_us", tracer.layer(Layer::Liveness).mean_total_ns() / 1e3);
}

// ---------------------------------------------------------------------
// sim-faults
// ---------------------------------------------------------------------

fn faults_budget(size: Size) -> u64 {
    match size {
        Size::Full => 20_000,
        Size::Quick => 300,
    }
}

/// Folded deterministic results of one budget of scenarios.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct FaultTotals {
    fingerprint: u64,
    events: u64,
    messages: u64,
    cs: u64,
    crashes: u64,
    failure_msgs: u64,
    searches: u64,
    regenerations: u64,
    violating: u64,
}

impl FaultTotals {
    fn add(&mut self, fold: &mut Fnv64, o: &Outcome) {
        fold.write_u64(o.fingerprint());
        self.events += o.events;
        self.messages += o.messages;
        self.cs += o.cs_entries;
        self.crashes += o.crashes;
        self.failure_msgs += MsgKind::all()
            .iter()
            .filter(|k| k.is_failure_overhead())
            .map(|k| o.coverage.sent_by_kind[*k as usize])
            .sum::<u64>();
        self.searches += o.coverage.searches_started;
        self.regenerations += o.coverage.regenerations;
        self.violating += u64::from(!o.is_clean());
    }
}

fn generate(space: &Space, seed: u64, budget: u64) -> Vec<Scenario> {
    (0..budget).map(|i| Scenario::generate(space, seed, i)).collect()
}

/// Judges every scenario, recording each `run_scenario` call's wall
/// time in `times`.
fn judge(scenarios: &[Scenario], times: &mut Histogram) -> FaultTotals {
    let mut totals = FaultTotals::default();
    let mut fold = Fnv64::new();
    for s in scenarios {
        let t = Instant::now();
        let outcome = run_scenario(s, Mutation::None);
        times.record(t.elapsed().as_nanos() as u64);
        totals.add(&mut fold, &outcome);
    }
    totals.fingerprint = fold.finish();
    totals
}

fn check_faults(res: &mut RunResult, t: &FaultTotals, first: &FaultTotals, budget: u64) {
    res.attempted += budget;
    res.failed += t.violating;
    res.check(t.violating == 0, || format!("sim-faults: {} scenarios violated", t.violating));
    res.check(t == first, || "sim-faults: outcome fingerprint differs between repetitions".into());
}

/// Untraced sim-faults: generate the budget (set-up), judge it, repeat.
/// Throughput is over the whole run; latency is the median of every
/// judged scenario's wall time.
pub fn sim_faults(seed: u64, seconds: f64, size: Size) -> RunResult {
    let budget = faults_budget(size);
    let space = Space::default();
    let mut res = RunResult::new();
    let start = Instant::now();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let (mut served, mut judge_s) = (0u64, 0.0);
    // 50 ns buckets up to about 3.3 ms; the median scenario takes tens
    // of microseconds.
    let mut times = Histogram::new(50, 1 << 16);
    let mut first: Option<FaultTotals> = None;
    while setups.len() < 3 || secs_since(start) < seconds {
        let t0 = Instant::now();
        let scenarios = generate(&space, seed, budget);
        setups.push(secs_since(t0));
        let t1 = Instant::now();
        let totals = judge(&scenarios, &mut times);
        let wall = secs_since(t1);
        served += totals.cs;
        judge_s += wall;
        rates.push(totals.cs as f64 / wall);
        let reference = first.get_or_insert_with(|| totals.clone()).clone();
        check_faults(&mut res, &totals, &reference, budget);
    }
    let t = first.expect("at least one repetition ran");
    eprintln!(
        "sim-faults budget={budget}: fingerprint {:016x}, {} events, {} critical sections, \
         {} crashes, {} failure-overhead messages; served/s per repetition {rates:.0?}",
        t.fingerprint, t.events, t.cs, t.crashes, t.failure_msgs
    );
    res.put("setup_s", median(&setups));
    res.put("peak_rss_mib", peak_rss_mib());
    res.put("acq_per_s", per(served as f64, judge_s));
    res.put("p50_us", times.median_ns() / 1e3);
    res
}

/// `oc_check::run_scenario`'s simulator configuration for `s`.
fn scenario_config(s: &Scenario) -> SimConfig {
    SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(s.delay_min),
            max: SimDuration::from_ticks(s.delay_max),
        },
        cs_duration: SimDuration::from_ticks(s.cs_ticks),
        seed: s.seed,
        record_trace: false,
        max_events: s.max_events,
        faults: LinkFaults {
            window_from: SimTime::from_ticks(s.lossy_from),
            window_until: SimTime::from_ticks(s.lossy_until),
            loss_per_mille: s.loss_per_mille,
            duplicate_per_mille: s.duplicate_per_mille,
        },
        script: s.fault_script(),
        ..SimConfig::default()
    }
}

/// `oc_check::run_scenario`'s unhardened open-cube nodes for `s`.
fn scenario_nodes(s: &Scenario) -> Vec<OpenCubeNode> {
    OpenCubeNode::build_all(
        Config::new(s.n, SimDuration::from_ticks(s.delay_max), SimDuration::from_ticks(s.cs_ticks))
            .with_contention_slack(SimDuration::from_ticks(s.contention_slack))
            .with_mutation(Mutation::None)
            .with_hardening(Hardening::None),
    )
}

/// Traced sim-faults: the budget untraced, then with spans around
/// `Scenario::generate` and `run_scenario`, then a quarter of it
/// stepped through `World` with spans, then re-driven.
pub fn sim_faults_traced(seed: u64, size: Size, tracer: &mut Tracer) -> (RunResult, LayerReport) {
    let budget = faults_budget(size);
    let space = Space::default();
    let mut res = RunResult::new();
    let mut layers = LayerReport::default();

    let t0 = Instant::now();
    let base = judge(&generate(&space, seed, budget), &mut Histogram::new(1, 1));
    let base_s = secs_since(t0);
    check_faults(&mut res, &base, &base, budget);

    let traced_start = Instant::now();
    let mut traced = FaultTotals::default();
    let mut fold = Fnv64::new();
    let mut scenarios = Vec::with_capacity(budget as usize);
    for i in 0..budget {
        tracer.enter(Layer::CheckGenerate, i);
        let s = Scenario::generate(&space, seed, i);
        tracer.exit();
        tracer.enter(Layer::CheckRun, i);
        let outcome = run_scenario(&s, Mutation::None);
        tracer.exit();
        traced.add(&mut fold, &outcome);
        scenarios.push(s);
    }
    traced.fingerprint = fold.finish();
    let check_pass_s = secs_since(traced_start);
    res.check(traced == base, || {
        "sim-faults traced: outcomes differ from the untraced pass".into()
    });

    // A quarter of the budget through World's public calls.
    let sub = &scenarios[..scenarios.len().div_ceil(4)];
    let (mut world_events, mut world_messages, mut world_bytes) = (0u64, 0u64, 0u64);
    for (i, s) in sub.iter().enumerate() {
        let key = i as u64;
        tracer.enter(Layer::WorldNew, key);
        let mut world = World::new(scenario_config(s), scenario_nodes(s));
        tracer.exit();
        tracer.enter(Layer::WorldSchedule, key);
        for (at, node) in &s.arrivals {
            world.schedule_request(SimTime::from_ticks(*at), NodeId::new(*node));
        }
        world.schedule_failures(&s.failure_plan());
        tracer.exit();
        let mut drained = true;
        loop {
            if world.metrics().events_processed >= s.max_events {
                drained = false;
                break;
            }
            tracer.enter(Layer::WorldStep, key);
            let more = world.step();
            tracer.exit();
            if !more {
                break;
            }
        }
        tracer.enter(Layer::Liveness, key);
        let liveness = check_liveness(&world, drained);
        tracer.exit();
        res.check(liveness.is_clean() && world.oracle_report().is_clean(), || {
            format!("sim-faults traced: scenario {i} violated")
        });
        world_events += world.metrics().events_processed;
        world_messages += world.metrics().total_sent();
        world_bytes += world.mem_bytes_per_node();
    }

    // The same quarter re-driven.
    let mut counts = Counts::default();
    for s in sub {
        let mut rd = Redrive::new(scenario_config(s), scenario_nodes(s), tracer);
        for (at, node) in &s.arrivals {
            rd.schedule_request(SimTime::from_ticks(*at), NodeId::new(*node));
        }
        for ev in s.failure_plan().events() {
            rd.schedule_crash(ev.at, ev.node, ev.recover_at);
        }
        rd.run(s.max_events);
        res.check(rd.oracle_report().is_clean(), || "sim-faults re-drive: oracle violation".into());
        counts.absorb(rd.counts());
    }
    let traced_wall = secs_since(traced_start);

    sim_layers(&mut layers, tracer, &counts);
    layers.set("algo.searches_per_crash", per(base.searches as f64, base.crashes as f64));
    layers.set("algo.regenerations_per_crash", per(base.regenerations as f64, base.crashes as f64));
    layers.set("algo.fault_msgs_per_crash", per(base.failure_msgs as f64, base.crashes as f64));
    layers.set("sim.world.mem_bytes_per_node", per(world_bytes as f64, sub.len() as f64));
    layers.set("check.generate_us", tracer.layer(Layer::CheckGenerate).mean_total_ns() / 1e3);
    layers.set("check.run_us", tracer.layer(Layer::CheckRun).mean_total_ns() / 1e3);
    layers.set("check.events_per_scenario", per(base.events as f64, budget as f64));
    layers.set("redrive.events_ratio", per(counts.events as f64, world_events as f64));
    layers.set("redrive.msgs_ratio", per(counts.messages() as f64, world_messages as f64));
    layers.set("trace.overhead_pct", 100.0 * (check_pass_s - base_s) / base_s);
    layers.set("unattributed_pct", tracer.unattributed_pct(traced_wall));
    eprintln!(
        "sim-faults re-drive of {} scenarios: {} events / {} messages (World: {} / {})",
        sub.len(),
        counts.events,
        counts.messages(),
        world_events,
        world_messages
    );
    (res, layers)
}
