//! The runtime load harness (experiment E9): open- and closed-loop
//! workloads driven against the sharded `oc_runtime` lock service, with
//! latency histograms, throughput, optional crash churn, and oracle
//! verdicts.
//!
//! Every cell is one self-contained service run:
//!
//! * **Open loop** — arrivals at a fixed rate, generated by the *same*
//!   `oc_sim::workload` generators the simulator uses (uniform node
//!   choice, fixed gap in ticks) and scheduled through
//!   [`Runtime::schedule_workload`]. Latency is measured from the
//!   scheduled arrival instant, so it includes queueing behind the lock.
//! * **Closed loop** — `clients` threads each looping acquire → wait for
//!   a terminal state → next request; classic saturation load. Clients
//!   block on watcher completion channels — no sleep-polling quantum
//!   between a grant and the next request.
//! * **Tenants** — the batched multi-tenant hot path: `namespaces`
//!   independent lock instances share one worker pool
//!   ([`Runtime::start_multi`]), and each client keeps one auto-release
//!   acquisition outstanding per owned namespace, always at node 1 (the
//!   token's home). Served requests are pure dispatch work — no network
//!   round-trips, no leases, no polling — so this cell measures the
//!   runtime's aggregate acquisitions/s ceiling.
//! * **Crash churn** — `FailurePlan::random_singles` (the paper's
//!   repeated-single-failure regime) mapped onto the wall clock, so the
//!   service heals while under load.
//!
//! Each run ends with `await_settled` + `shutdown`, and the cell's row
//! carries the unmodified oracle verdicts — the loadgen is a conformance
//! instrument as much as a performance one. `BENCH_RT.json` is emitted
//! through [`crate::json`] like every other artifact.

use std::time::{Duration, Instant};

use oc_algo::{Config, OpenCubeNode};
use oc_runtime::{LatencySummary, Runtime, RuntimeConfig};
use oc_sim::{
    ArrivalSchedule, FailurePlan, FaultPhase, FaultPhaseKind, FaultScript, SimDuration, SimTime,
};
use oc_topology::NodeId;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::json::Value;

/// Wall-clock length of one protocol tick in the load harness.
pub const TICK: Duration = Duration::from_micros(20);
/// Ticks per second at [`TICK`].
pub const TICKS_PER_SEC: u64 = 50_000;
/// Protocol δ in ticks (16 × 20µs = 320µs ≥ the 200µs network delay bound).
pub const DELTA_TICKS: u64 = 16;
/// Maximum per-message network delay.
pub const MAX_NET_DELAY: Duration = Duration::from_micros(200);
/// Critical-section lease, in ticks (500µs).
pub const CS_TICKS: u64 = 25;
/// Suspicion slack in ticks (1s of wall time): queueing behind a loaded
/// lock must not read as a crash.
pub const SLACK_TICKS: u64 = 50_000;

/// Workload shape of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Arrivals at a fixed rate on uniformly random nodes.
    Open {
        /// Target request rate.
        rate_per_sec: u64,
    },
    /// `clients` closed-loop clients, each waiting out its request
    /// before issuing the next (on a fresh random node each time).
    Closed {
        /// Concurrent clients.
        clients: usize,
    },
    /// Multi-tenant saturation: `namespaces` independent `n`-node lock
    /// instances behind one worker pool, `clients` driver threads each
    /// keeping one auto-release acquisition in flight per owned
    /// namespace (client `c` owns namespaces `c, c + clients, …`).
    Tenants {
        /// Driver threads.
        clients: usize,
        /// Independent lock namespaces.
        namespaces: usize,
    },
}

impl LoadMode {
    /// Table label.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            LoadMode::Open { rate_per_sec } => format!("open@{rate_per_sec}/s"),
            LoadMode::Closed { clients } => format!("closed x{clients}"),
            LoadMode::Tenants { clients, namespaces } => {
                format!("tenants x{clients}ns{namespaces}")
            }
        }
    }

    /// Lock namespaces this mode drives (1 except for `Tenants`).
    #[must_use]
    pub fn namespaces(&self) -> usize {
        match self {
            LoadMode::Tenants { namespaces, .. } => *namespaces,
            _ => 1,
        }
    }
}

/// One loadgen run to execute.
#[derive(Debug, Clone)]
pub struct LoadCell {
    /// System size.
    pub n: usize,
    /// Worker threads for the node shards.
    pub workers: usize,
    /// Measurement window (arrivals span this; settle may run longer).
    pub duration: Duration,
    /// Workload shape.
    pub mode: LoadMode,
    /// Crash/recovery pairs injected across the window (0 = none);
    /// node 1 is the spare that never crashes.
    pub churn_crashes: usize,
    /// Partition/heal cycles injected across the window (0 = none): the
    /// cube is cut into two halves (`p = dimension - 1`), each cut
    /// healing well inside the suspicion slack so the service repairs
    /// what the cut destroyed and keeps serving.
    pub partition_cycles: usize,
    /// RNG seed (workload, churn victims, network delays).
    pub seed: u64,
}

/// One row of the E9 table / `BENCH_RT.json`.
#[derive(Debug, Clone)]
pub struct LoadRow {
    /// Workload label.
    pub mode: String,
    /// System size (per namespace).
    pub n: usize,
    /// Worker threads.
    pub workers: usize,
    /// Independent lock namespaces served.
    pub namespaces: usize,
    /// Crash/recovery pairs injected.
    pub churn_crashes: usize,
    /// Partition/heal cycles injected.
    pub partition_cycles: usize,
    /// Requests issued.
    pub injected: u64,
    /// Requests served through the critical section.
    pub served: u64,
    /// Requests abandoned (crashed nodes).
    pub abandoned: u64,
    /// Crashes executed.
    pub crashes: u64,
    /// Recoveries executed.
    pub recoveries: u64,
    /// Messages destroyed at partition boundaries.
    pub lost_to_partition: u64,
    /// Protocol messages sent.
    pub messages: u64,
    /// Worker-processed commands.
    pub events: u64,
    /// Wall-clock seconds, start to shutdown.
    pub wall_secs: f64,
    /// Worker-processed commands per second.
    pub events_per_sec: f64,
    /// Served critical sections per second.
    pub cs_per_sec: f64,
    /// Completed acquisitions per second, aggregated across namespaces —
    /// the tenants cells' headline number.
    pub acq_per_sec: f64,
    /// Acquire-to-grant latency summary.
    pub latency: LatencySummary,
    /// Safety violations observed (mutual exclusion, token census).
    pub safety_violations: usize,
    /// Liveness violations at the shutdown horizon.
    pub liveness_violations: usize,
    /// `true` if the run settled before shutdown.
    pub settled: bool,
}

impl LoadRow {
    /// `true` if the run settled with zero oracle violations.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.settled && self.safety_violations == 0 && self.liveness_violations == 0
    }

    /// Serializes the row for `BENCH_RT.json` (latencies in µs).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let us = |nanos: u64| Value::Num(nanos as f64 / 1_000.0);
        Value::Obj(vec![
            ("mode", Value::str(self.mode.clone())),
            ("n", Value::UInt(self.n as u64)),
            ("workers", Value::UInt(self.workers as u64)),
            ("namespaces", Value::UInt(self.namespaces as u64)),
            ("churn_crashes", Value::UInt(self.churn_crashes as u64)),
            ("partition_cycles", Value::UInt(self.partition_cycles as u64)),
            ("lost_to_partition", Value::UInt(self.lost_to_partition)),
            ("injected", Value::UInt(self.injected)),
            ("served", Value::UInt(self.served)),
            ("abandoned", Value::UInt(self.abandoned)),
            ("crashes", Value::UInt(self.crashes)),
            ("recoveries", Value::UInt(self.recoveries)),
            ("messages", Value::UInt(self.messages)),
            ("events", Value::UInt(self.events)),
            ("wall_secs", Value::Num(self.wall_secs)),
            ("events_per_sec", Value::Num(self.events_per_sec)),
            ("cs_per_sec", Value::Num(self.cs_per_sec)),
            ("acq_per_sec", Value::Num(self.acq_per_sec)),
            ("p50_us", us(self.latency.p50_nanos)),
            ("p99_us", us(self.latency.p99_nanos)),
            ("p999_us", us(self.latency.p999_nanos)),
            ("max_us", us(self.latency.max_nanos)),
            ("mean_us", Value::Num(self.latency.mean_nanos / 1_000.0)),
            ("latency_samples", Value::UInt(self.latency.count)),
            ("safety_violations", Value::UInt(self.safety_violations as u64)),
            ("liveness_violations", Value::UInt(self.liveness_violations as u64)),
            ("settled", Value::Bool(self.settled)),
        ])
    }
}

/// Builds the crash-churn plan for a cell: `count` repeated single
/// failures spread over the middle of the window, every victim
/// recovering, node 1 spared.
fn churn_plan(rng: &mut StdRng, n: usize, count: usize, duration_ticks: u64) -> FailurePlan {
    let start = duration_ticks / 5;
    let span = duration_ticks - start;
    let period = (span / count as u64).max(8);
    let downtime = (period / 4).max(1);
    FailurePlan::random_singles(
        rng,
        n,
        NodeId::new(1),
        count,
        SimTime::from_ticks(start),
        SimDuration::from_ticks(period),
        SimDuration::from_ticks(downtime),
    )
}

/// Builds the partition-churn script for a cell: `cycles` half-cube
/// cuts spread across the middle of the window, each healing after a
/// fifth of its period — capped well under the suspicion slack, so no
/// node can falsely conclude a death while a cut stands. What a cut
/// *drops* is repaired by the fault-tolerance machinery after the heal.
fn partition_script(n: usize, cycles: usize, duration_ticks: u64) -> FaultScript {
    let p = oc_topology::dimension(n).saturating_sub(1);
    let start = duration_ticks / 5;
    let span = duration_ticks - start;
    let period = (span / cycles as u64).max(8);
    let cut = (period / 5).clamp(1, SLACK_TICKS / 4);
    let mut script = FaultScript::none();
    for k in 0..cycles as u64 {
        let from = start + k * period;
        script.push(FaultPhase {
            from: SimTime::from_ticks(from),
            until: SimTime::from_ticks(from + cut),
            kind: FaultPhaseKind::GroupPartition { p },
        });
    }
    script
}

/// Executes one cell against a fresh runtime and reports its row.
///
/// # Panics
///
/// Panics on nonsensical cells (zero duration, `churn_crashes > 0` with
/// `n < 2`).
#[must_use]
pub fn run_cell(cell: &LoadCell) -> LoadRow {
    assert!(cell.duration > Duration::ZERO, "cell needs a duration");
    if let LoadMode::Tenants { clients, namespaces } = cell.mode {
        return run_tenants_cell(cell, clients, namespaces);
    }
    let duration_ticks = (cell.duration.as_secs_f64() * TICKS_PER_SEC as f64) as u64;
    let protocol = Config::new(
        cell.n,
        SimDuration::from_ticks(DELTA_TICKS),
        SimDuration::from_ticks(CS_TICKS),
    )
    .with_contention_slack(SimDuration::from_ticks(SLACK_TICKS));
    let script = if cell.partition_cycles > 0 {
        partition_script(cell.n, cell.partition_cycles, duration_ticks)
    } else {
        FaultScript::none()
    };
    let rt = Runtime::start_scripted(
        RuntimeConfig {
            workers: cell.workers,
            tick: TICK,
            max_network_delay: MAX_NET_DELAY,
            cs_duration: TICK * CS_TICKS as u32,
            seed: cell.seed,
            ..RuntimeConfig::default()
        },
        script,
        OpenCubeNode::build_all(protocol),
    );

    let mut rng = StdRng::seed_from_u64(cell.seed ^ 0xE9E9_E9E9);
    if cell.churn_crashes > 0 {
        rt.schedule_failures(&churn_plan(&mut rng, cell.n, cell.churn_crashes, duration_ticks));
    }

    match cell.mode {
        LoadMode::Open { rate_per_sec } => {
            assert!(rate_per_sec > 0, "open loop needs a positive rate");
            let count = (cell.duration.as_secs_f64() * rate_per_sec as f64) as usize;
            let gap = (TICKS_PER_SEC / rate_per_sec).max(1);
            let schedule =
                ArrivalSchedule::uniform(&mut rng, cell.n, count, SimDuration::from_ticks(gap));
            let _ = rt.schedule_workload(&schedule);
        }
        LoadMode::Closed { clients } => {
            assert!(clients > 0, "closed loop needs at least one client");
            let deadline = Instant::now() + cell.duration;
            std::thread::scope(|scope| {
                for client in 0..clients {
                    let rt = &rt;
                    let seed = cell.seed.wrapping_add(client as u64 + 1);
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let watcher = rt.watcher();
                        // Well past any plausible repair time: a request
                        // stuck longer is a wedge the oracles will report.
                        let grace = Duration::from_secs(30);
                        while Instant::now() < deadline {
                            let node = NodeId::new(rng.random_range(1..=rt.len() as u32));
                            let _ = rt.acquire_watched(0, node, &watcher, false);
                            // Every terminal transition notifies — served,
                            // abandoned by a crash, or abandoned because
                            // the node was down at injection.
                            if watcher.recv_timeout(grace).is_none() {
                                return;
                            }
                        }
                    });
                }
            });
        }
        LoadMode::Tenants { .. } => unreachable!("dispatched above"),
    }

    let settled = rt.await_settled(cell.duration + Duration::from_secs(60));
    let report = rt.shutdown();
    row_from(cell, settled, &report)
}

/// Executes a [`LoadMode::Tenants`] cell: `namespaces` independent
/// cubes behind one shared worker pool, driven flat out.
///
/// Each client owns a strided slice of the namespaces and keeps exactly
/// one auto-release acquisition outstanding per owned namespace — a
/// pipelined closed loop in which the next request for a lock is issued
/// only when the previous one completes, but the worker pool always has
/// (up to) `namespaces` independent requests to batch. Every request
/// targets node 1, the token's home node, so a completion costs zero
/// protocol messages: the cell isolates the runtime's dispatch ceiling.
fn run_tenants_cell(cell: &LoadCell, clients: usize, namespaces: usize) -> LoadRow {
    assert!(clients > 0, "tenants mode needs at least one client");
    assert!(namespaces > 0, "tenants mode needs at least one namespace");
    assert!(
        cell.churn_crashes == 0 && cell.partition_cycles == 0,
        "tenant cells run fault-free: fault scripts are single-namespace"
    );
    let protocol = || {
        Config::new(cell.n, SimDuration::from_ticks(DELTA_TICKS), SimDuration::from_ticks(CS_TICKS))
            .with_contention_slack(SimDuration::from_ticks(SLACK_TICKS))
    };
    let rt = Runtime::start_multi(
        RuntimeConfig {
            workers: cell.workers,
            tick: TICK,
            max_network_delay: MAX_NET_DELAY,
            cs_duration: TICK * CS_TICKS as u32,
            seed: cell.seed,
            ..RuntimeConfig::default()
        },
        (0..namespaces).map(|_| OpenCubeNode::build_all(protocol())).collect(),
    );

    let deadline = Instant::now() + cell.duration;
    std::thread::scope(|scope| {
        for client in 0..clients {
            let rt = &rt;
            scope.spawn(move || {
                let watcher = rt.watcher();
                let grace = Duration::from_secs(30);
                let mut outstanding = 0usize;
                for ns in (client..namespaces).step_by(clients) {
                    let _ = rt.acquire_watched(ns, NodeId::new(1), &watcher, true);
                    outstanding += 1;
                }
                while outstanding > 0 {
                    let Some((id, _status)) = watcher.recv_timeout(grace) else { return };
                    outstanding -= 1;
                    if Instant::now() < deadline {
                        let ns = rt.namespace_of(id).expect("completion maps to a namespace");
                        let _ = rt.acquire_watched(ns, NodeId::new(1), &watcher, true);
                        outstanding += 1;
                    }
                }
            });
        }
    });

    // The loop drains itself at the deadline (no open-loop backlog), so
    // settle is near-instant; the timeout is pure safety margin.
    let settled = rt.await_settled(Duration::from_secs(60));
    let report = rt.shutdown();
    row_from(cell, settled, &report)
}

/// Folds a finished run's report into the cell's table row.
fn row_from(cell: &LoadCell, settled: bool, report: &oc_runtime::RuntimeReport) -> LoadRow {
    let wall_secs = report.wall.as_secs_f64();
    LoadRow {
        mode: cell.mode.label(),
        n: cell.n,
        workers: cell.workers,
        namespaces: report.namespaces,
        churn_crashes: cell.churn_crashes,
        partition_cycles: cell.partition_cycles,
        lost_to_partition: report.lost_to_partition,
        injected: report.requests_injected,
        served: report.requests_completed,
        abandoned: report.requests_abandoned,
        crashes: report.crashes,
        recoveries: report.recoveries,
        messages: report.messages_sent,
        events: report.events_processed,
        wall_secs,
        events_per_sec: report.events_per_sec(),
        cs_per_sec: report.throughput_cs_per_sec(),
        acq_per_sec: if wall_secs > 0.0 {
            report.requests_completed as f64 / wall_secs
        } else {
            0.0
        },
        latency: report.latency,
        safety_violations: report.safety.violations().len(),
        liveness_violations: report.liveness.violations().len(),
        settled,
    }
}

/// The multi-tenant saturation cell, identical in `quick` and full
/// batteries except for the window, so CI can key a fresh quick row
/// against the committed full row by `(mode, n, workers)` and enforce a
/// regression floor on `acq_per_sec`.
fn tenants_cell(quick: bool, seed: u64) -> LoadCell {
    LoadCell {
        n: 4,
        workers: 2,
        duration: Duration::from_secs(if quick { 2 } else { 5 }),
        mode: LoadMode::Tenants { clients: 2, namespaces: 32 },
        churn_crashes: 0,
        partition_cycles: 0,
        seed,
    }
}

/// The standard battery: open loop at two scales, closed-loop
/// saturation, multi-tenant saturation, open loop under crash churn,
/// and open loop under partition churn. `quick` shrinks the sizes and
/// window for CI smoke — except the tenants cell, which keeps its shape
/// so quick and full rows are comparable.
#[must_use]
pub fn battery(quick: bool, seed: u64) -> Vec<LoadCell> {
    if quick {
        vec![
            LoadCell {
                n: 64,
                workers: 4,
                duration: Duration::from_secs(2),
                mode: LoadMode::Open { rate_per_sec: 200 },
                churn_crashes: 0,
                partition_cycles: 0,
                seed,
            },
            LoadCell {
                n: 64,
                workers: 4,
                duration: Duration::from_secs(2),
                mode: LoadMode::Closed { clients: 4 },
                churn_crashes: 0,
                partition_cycles: 0,
                seed: seed.wrapping_add(1),
            },
            tenants_cell(true, seed.wrapping_add(4)),
            LoadCell {
                n: 64,
                workers: 4,
                duration: Duration::from_secs(2),
                mode: LoadMode::Open { rate_per_sec: 100 },
                churn_crashes: 2,
                partition_cycles: 0,
                seed: seed.wrapping_add(2),
            },
            LoadCell {
                n: 64,
                workers: 4,
                duration: Duration::from_secs(2),
                mode: LoadMode::Open { rate_per_sec: 100 },
                churn_crashes: 0,
                partition_cycles: 2,
                seed: seed.wrapping_add(3),
            },
        ]
    } else {
        vec![
            LoadCell {
                n: 256,
                workers: 8,
                duration: Duration::from_secs(10),
                mode: LoadMode::Open { rate_per_sec: 500 },
                churn_crashes: 0,
                partition_cycles: 0,
                seed,
            },
            LoadCell {
                n: 1024,
                workers: 8,
                duration: Duration::from_secs(10),
                mode: LoadMode::Open { rate_per_sec: 200 },
                churn_crashes: 0,
                partition_cycles: 0,
                seed: seed.wrapping_add(1),
            },
            LoadCell {
                n: 256,
                workers: 8,
                duration: Duration::from_secs(10),
                mode: LoadMode::Closed { clients: 8 },
                churn_crashes: 0,
                partition_cycles: 0,
                seed: seed.wrapping_add(2),
            },
            tenants_cell(false, seed.wrapping_add(5)),
            LoadCell {
                n: 256,
                workers: 8,
                duration: Duration::from_secs(10),
                mode: LoadMode::Open { rate_per_sec: 200 },
                churn_crashes: 8,
                partition_cycles: 0,
                seed: seed.wrapping_add(3),
            },
            LoadCell {
                n: 256,
                workers: 8,
                duration: Duration::from_secs(10),
                mode: LoadMode::Open { rate_per_sec: 200 },
                churn_crashes: 0,
                partition_cycles: 6,
                seed: seed.wrapping_add(4),
            },
        ]
    }
}

/// Assembles `BENCH_RT.json`: the runtime-load analogue of
/// [`crate::bench_artifact`]'s envelope (wall-clock numbers here are the
/// measurement itself, so there is no sweep timing section).
#[must_use]
pub fn loadgen_artifact(seed: u64, quick: bool, rows: &[LoadRow]) -> Value {
    let violations: u64 =
        rows.iter().map(|r| (r.safety_violations + r.liveness_violations) as u64).sum();
    Value::Obj(vec![
        ("schema_version", Value::UInt(1)),
        ("experiment", Value::str("rt")),
        ("master_seed", Value::UInt(seed)),
        ("quick", Value::Bool(quick)),
        ("cells", Value::UInt(rows.len() as u64)),
        ("violations", Value::UInt(violations)),
        ("all_settled", Value::Bool(rows.iter().all(|r| r.settled))),
        ("tick_us", Value::Num(TICK.as_secs_f64() * 1e6)),
        ("rows", Value::Arr(rows.iter().map(LoadRow::to_json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_open_loop_cell_is_clean_and_accounts_everything() {
        let row = run_cell(&LoadCell {
            n: 16,
            workers: 2,
            duration: Duration::from_millis(300),
            mode: LoadMode::Open { rate_per_sec: 100 },
            churn_crashes: 0,
            partition_cycles: 0,
            seed: 11,
        });
        assert!(row.clean(), "row: {row:?}");
        assert_eq!(row.injected, row.served + row.abandoned);
        assert_eq!(row.abandoned, 0);
        assert_eq!(row.latency.count, row.served);
        assert!(row.latency.p50_nanos <= row.latency.p99_nanos);
        assert!(row.latency.p99_nanos <= row.latency.p999_nanos);
        assert!(row.latency.p999_nanos <= row.latency.max_nanos);
        assert!(row.events_per_sec > 0.0);
    }

    #[test]
    fn closed_loop_cell_serves_requests() {
        let row = run_cell(&LoadCell {
            n: 8,
            workers: 2,
            duration: Duration::from_millis(200),
            mode: LoadMode::Closed { clients: 2 },
            churn_crashes: 0,
            partition_cycles: 0,
            seed: 12,
        });
        assert!(row.clean(), "row: {row:?}");
        assert!(row.served > 0, "closed loop should serve something");
        assert_eq!(row.injected, row.served + row.abandoned);
    }

    #[test]
    fn artifact_is_valid_json_with_the_expected_envelope() {
        let row = run_cell(&LoadCell {
            n: 4,
            workers: 2,
            duration: Duration::from_millis(100),
            mode: LoadMode::Open { rate_per_sec: 50 },
            churn_crashes: 0,
            partition_cycles: 0,
            seed: 13,
        });
        let doc = loadgen_artifact(13, true, &[row]);
        let text = doc.render();
        crate::json::validate(&text).expect("artifact must validate");
        assert!(text.contains("\"experiment\":\"rt\""));
        assert!(text.contains("\"p999_us\""));
    }

    #[test]
    fn battery_shapes() {
        assert_eq!(battery(true, 1).len(), 5);
        let full = battery(false, 1);
        assert_eq!(full.len(), 6);
        assert!(full.iter().any(|c| c.n == 1024));
        assert!(full.iter().any(|c| c.churn_crashes > 0));
        assert!(full.iter().any(|c| c.partition_cycles > 0));
        assert!(battery(true, 1).iter().any(|c| c.partition_cycles > 0));
        // The tenants cell keeps the same key in both batteries so the
        // CI gate can match a fresh quick row to the committed full row.
        let key = |c: &LoadCell| (c.mode.label(), c.n, c.workers);
        let quick_tenants = battery(true, 1)
            .into_iter()
            .find(|c| matches!(c.mode, LoadMode::Tenants { .. }))
            .expect("quick battery has a tenants cell");
        let full_tenants = full
            .iter()
            .find(|c| matches!(c.mode, LoadMode::Tenants { .. }))
            .expect("full battery has a tenants cell");
        assert_eq!(key(&quick_tenants), key(full_tenants));
        assert!(full_tenants.duration >= quick_tenants.duration);
    }

    #[test]
    fn tenants_cell_is_clean_and_multi_tenant() {
        let row = run_cell(&LoadCell {
            n: 4,
            workers: 2,
            duration: Duration::from_millis(200),
            mode: LoadMode::Tenants { clients: 2, namespaces: 8 },
            churn_crashes: 0,
            partition_cycles: 0,
            seed: 15,
        });
        assert!(row.clean(), "row: {row:?}");
        assert_eq!(row.namespaces, 8);
        assert_eq!(row.injected, row.served + row.abandoned);
        assert!(row.served >= 8, "every namespace serves at least its seed request");
        assert!(row.acq_per_sec > 0.0);
        // Hot-path acquisitions at the token's home cost no messages.
        assert_eq!(row.messages, 0, "node-1 auto-release grants are message-free");
    }

    #[test]
    fn partition_churn_cell_heals_and_stays_clean() {
        let row = run_cell(&LoadCell {
            n: 16,
            workers: 2,
            duration: Duration::from_millis(400),
            mode: LoadMode::Open { rate_per_sec: 100 },
            churn_crashes: 0,
            partition_cycles: 2,
            seed: 14,
        });
        assert!(row.clean(), "row: {row:?}");
        assert_eq!(row.injected, row.served + row.abandoned);
        assert_eq!(row.partition_cycles, 2);
    }

    #[test]
    fn partition_script_shape() {
        let script = partition_script(64, 4, 100_000);
        assert_eq!(script.phases().len(), 4);
        for phase in script.phases() {
            let cut = phase.until.ticks() - phase.from.ticks();
            assert!((1..=SLACK_TICKS / 4).contains(&cut), "cut {cut} outside the healed regime");
        }
        // Serial: each cut heals before the next begins.
        for pair in script.phases().windows(2) {
            assert!(pair[1].from >= pair[0].until);
        }
    }
}
