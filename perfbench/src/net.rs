//! `net-pair`: two node processes over Unix-domain sockets, driven by
//! `oc_bench::orchestrator::run_deployment` with no kill. An open loop
//! at one arrival every 4 ticks of 50 µs (about 5k arrivals/s); latency
//! counts from each arrival's due time. The only workload that reaches
//! `oc_transport`: framing, syscalls, HLC stamping and the log flush.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use oc_algo::{Msg, OpenCubeNode};
use oc_bench::orchestrator::{run_deployment, NetCell, NetRow, TransportKind, NET_TICK};
use oc_check::netgate::GateScenario;
use oc_sim::{DelayModel, SimConfig, SimDuration};
use oc_topology::NodeId;
use oc_transport::{
    frame::{read_frame, write_frame},
    wire::{self, Frame},
    Cluster, Hlc, LogRecord, LogWriter, Stamp,
};

use crate::layers::LayerReport;
use crate::measure::{children_cpu_secs, median, peak_rss_mib, per, secs_since, RunResult};
use crate::redrive::{Counts, Redrive};
use crate::trace::{Layer, Tracer};
use crate::Size;

const N: usize = 2;
const GAP_TICKS: u64 = 4;
// net_battery's protocol timing.
const DELTA_TICKS: u64 = 40;
const CS_TICKS: u64 = 20;
const SLACK_TICKS: u64 = 20_000;
/// Boots timed per run for `setup_s`; one takes a few milliseconds.
const BOOT_PROBES: u64 = 30;

fn scenario(seed: u64, requests: usize) -> GateScenario {
    GateScenario {
        n: N,
        requests,
        gap_ticks: GAP_TICKS,
        delta_ticks: DELTA_TICKS,
        cs_ticks: CS_TICKS,
        slack_ticks: SLACK_TICKS,
        seed,
        kill: None,
    }
}

fn requests(size: Size) -> usize {
    match size {
        Size::Full => 5_000,
        Size::Quick => 200,
    }
}

fn cell(seed: u64, size: Size) -> NetCell {
    NetCell {
        transport: TransportKind::Uds,
        scenario: scenario(seed, requests(size)),
        settle_timeout: Duration::from_secs(30),
    }
}

/// The node executable: this benchmark binary, which runs as a protocol
/// node when its first argument is `--id` (see `main`).
fn node_bin() -> PathBuf {
    std::env::current_exe().expect("the running benchmark has a path")
}

fn check_row(res: &mut RunResult, row: &NetRow) {
    res.attempted += row.injected;
    res.failed += row.injected.saturating_sub(row.served);
    res.check(row.clean(), || {
        format!(
            "net-pair: unclean deployment (settled {}, safety {}, liveness {})",
            row.settled, row.safety_violations, row.liveness_violations
        )
    });
    res.check(row.served == row.injected, || {
        format!("net-pair: served {} of {} arrivals", row.served, row.injected)
    });
}

/// Boots `N` node processes the way the orchestrator does and connects
/// a gateway to each; returns the boot time, then shuts them down and
/// reaps them.
fn boot_probe(workdir: &Path, seed: u64) -> io::Result<f64> {
    let dir = workdir.join(format!("boot-{seed}"));
    let sock = dir.join("sock");
    std::fs::create_dir_all(&sock)?;
    let cluster = Cluster::uds(sock, N);
    let t0 = Instant::now();
    let mut children: Vec<Child> = Vec::new();
    let spawned = (1..=N as u32).try_for_each(|id| {
        let child = Command::new(node_bin())
            .arg("--id")
            .arg(id.to_string())
            .arg("--n")
            .arg(N.to_string())
            .arg("--transport")
            .arg(cluster.spec())
            .arg("--log")
            .arg(dir.join(format!("node-{id}.log")))
            .arg("--delta")
            .arg(DELTA_TICKS.to_string())
            .arg("--cs")
            .arg(CS_TICKS.to_string())
            .arg("--slack")
            .arg(SLACK_TICKS.to_string())
            .arg("--tick-ns")
            .arg(NET_TICK.as_nanos().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        children.push(child);
        Ok::<(), io::Error>(())
    });
    let mut conns = Vec::new();
    let connected = spawned.and_then(|()| {
        for id in 1..=N as u32 {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut stream = loop {
                match cluster.endpoint(id).connect() {
                    Ok(s) => break s,
                    Err(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_micros(100))
                    }
                    Err(e) => return Err(e),
                }
            };
            write_frame(&mut stream, &wire::encode(&Frame::ClientHello))?;
            conns.push(stream);
        }
        Ok(())
    });
    let boot_s = secs_since(t0);
    for stream in &mut conns {
        let _ = write_frame(stream, &wire::encode(&Frame::Shutdown));
    }
    drop(conns);
    for child in &mut children {
        let deadline = Instant::now() + Duration::from_secs(5);
        while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
    connected.map(|()| boot_s)
}

fn boot_probes(workdir: &Path, seed: u64, res: &mut RunResult) -> Vec<f64> {
    let mut boots = Vec::new();
    for k in 0..BOOT_PROBES {
        match boot_probe(workdir, seed.wrapping_add(k)) {
            Ok(s) => boots.push(s),
            Err(e) => res.check(false, || format!("net-pair: boot probe failed: {e}")),
        }
    }
    boots
}

fn deploy(seed: u64, size: Size, res: &mut RunResult) -> Option<NetRow> {
    match run_deployment(&node_bin(), &cell(seed, size)) {
        Ok(row) => {
            check_row(res, &row);
            Some(row)
        }
        Err(e) => {
            res.check(false, || format!("net-pair: deployment failed: {e}"));
            None
        }
    }
}

/// Untraced net-pair: boot probes for set-up time, then
/// deployments of the same arrivals until the budget is spent (at
/// least three). Throughput is over all deployments; latency is the
/// median of the deployments' medians.
pub fn net_pair(seed: u64, seconds: f64, size: Size, workdir: &Path) -> RunResult {
    let mut res = RunResult::new();
    let start = Instant::now();
    let boots = boot_probes(workdir, seed, &mut res);
    let mut rows = Vec::new();
    while rows.len() < 3 || secs_since(start) < seconds {
        match deploy(seed, size, &mut res) {
            Some(row) => rows.push(row),
            None => break,
        }
    }
    eprintln!(
        "net-pair: p50 per deployment {:.1?} us, p99 {:.1?} us",
        rows.iter().map(|r| r.p50_us).collect::<Vec<_>>(),
        rows.iter().map(|r| r.p99_us).collect::<Vec<_>>()
    );
    res.put("setup_s", median(&boots));
    res.put("peak_rss_mib", peak_rss_mib());
    let served: u64 = rows.iter().map(|r| r.served).sum();
    res.put("acq_per_s", per(served as f64, rows.iter().map(|r| r.wall_secs).sum()));
    res.put("p50_us", median(&rows.iter().map(|r| r.p50_us).collect::<Vec<_>>()));
    res
}

/// Transport calls timed one by one: wire encode/decode of `Peer`
/// frames in the workload's message mix, a frame round trip over a
/// Unix socket pair, HLC tick/observe and the flushed log append.
fn transport_layers(
    tracer: &mut Tracer,
    mix: &Counts,
    workdir: &Path,
    iters: u64,
) -> io::Result<()> {
    let requests = mix.sent_by_kind[oc_sim::MsgKind::Request as usize];
    let tokens = mix.sent_by_kind[oc_sim::MsgKind::Token as usize];
    // Frame k carries a Request when (k * requests) mod total < requests,
    // a Token otherwise: the two kinds interleave evenly at their ratio
    // in the re-driven workload.
    let total = (requests + tokens).max(1);
    let mut hlc = Hlc::new(1);
    let mut remote = Hlc::new(2);
    let frame_at = |k: u64, stamp: Stamp| {
        let msg = if (k * requests) % total < requests {
            Msg::Request {
                claimant: NodeId::new(1),
                source: NodeId::new(1),
                source_seq: k as u32,
                epoch: 0,
            }
        } else {
            Msg::Token { lender: None, epoch: 0 }
        };
        Frame::Peer { from: 1, ns: 0, stamp, msg }
    };
    for k in 0..iters {
        let stamp = tracer.span(Layer::Hlc, k, || hlc.tick());
        tracer.span(Layer::Hlc, k, || hlc.observe(remote.tick()));
        let frame = frame_at(k, stamp);
        let bytes = tracer.span(Layer::WireEncode, k, || wire::encode(&frame));
        let back = tracer.span(Layer::WireDecode, k, || wire::decode(&bytes));
        if back.as_ref() != Ok(&frame) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "wire round trip changed a frame",
            ));
        }
    }
    let (mut a, mut b) = UnixStream::pair()?;
    let payload = wire::encode(&frame_at(0, hlc.tick()));
    for k in 0..iters / 4 {
        tracer.enter(Layer::FrameRtt, k);
        write_frame(&mut a, &payload)?;
        let got = read_frame(&mut b)?;
        write_frame(&mut b, &payload)?;
        let echoed = read_frame(&mut a)?;
        tracer.exit();
        if got.as_deref() != Some(payload.as_slice())
            || echoed.as_deref() != Some(payload.as_slice())
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame round trip changed bytes",
            ));
        }
    }
    let log_path = workdir.join("append-probe.log");
    let mut log = LogWriter::open(&log_path)?;
    for k in 0..iters / 8 {
        let rec = LogRecord::EnterCs { stamp: hlc.tick(), node: 1, epoch: 0 };
        tracer.enter(Layer::LogAppend, k);
        let appended = log.append(&rec);
        tracer.exit();
        appended?;
    }
    drop(log);
    std::fs::remove_file(&log_path)
}

/// Traced net-pair: an untraced deployment as the overhead baseline,
/// then boot probes, a deployment and the transport calls in spans, and
/// a re-drive of the same arrivals for the protocol layer.
pub fn net_pair_traced(
    seed: u64,
    size: Size,
    tracer: &mut Tracer,
    workdir: &Path,
) -> (RunResult, LayerReport) {
    let mut res = RunResult::new();
    let mut layers = LayerReport::default();
    let t0 = Instant::now();
    let base = deploy(seed, size, &mut res);
    let base_s = secs_since(t0);

    let traced_start = Instant::now();
    let mut boots = Vec::new();
    for k in 0..BOOT_PROBES {
        tracer.enter(Layer::OrchestratorBoot, k);
        let boot = boot_probe(workdir, seed.wrapping_add(k));
        tracer.exit();
        match boot {
            Ok(s) => boots.push(s),
            Err(e) => res.check(false, || format!("net-pair: boot probe failed: {e}")),
        }
    }
    let cpu0 = children_cpu_secs();
    let t1 = Instant::now();
    tracer.enter(Layer::Deployment, 0);
    let row = deploy(seed, size, &mut res);
    tracer.exit();
    let deploy_s = secs_since(t1);
    let node_cpu_s = children_cpu_secs() - cpu0;

    // Protocol layer and message mix: the same arrivals re-driven.
    let sc = scenario(seed, requests(size));
    let config = SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(1),
            max: SimDuration::from_ticks(DELTA_TICKS),
        },
        cs_duration: SimDuration::from_ticks(1),
        seed,
        ..SimConfig::default()
    };
    let mut rd = Redrive::new(config, OpenCubeNode::build_all(sc.config()), tracer);
    for (at, node) in sc.schedule().arrivals() {
        rd.schedule_request(*at, *node);
    }
    let drained = rd.run(u64::MAX);
    let counts = rd.counts().clone();
    res.check(drained && rd.oracle_report().is_clean(), || "net-pair re-drive: violation".into());
    drop(rd);

    let iters = match size {
        Size::Full => 40_000,
        Size::Quick => 2_000,
    };
    if let Err(e) = transport_layers(tracer, &counts, workdir, iters) {
        res.check(false, || format!("net-pair: transport probe failed: {e}"));
    }
    let traced_wall = secs_since(traced_start);

    let served = row.as_ref().map_or(0, |r| r.served) as f64;
    let last_due_ms = (sc.requests as u64 * GAP_TICKS) as f64 * NET_TICK.as_secs_f64() * 1e3;
    layers.set("transport.wire.encode_ns", tracer.layer(Layer::WireEncode).mean_total_ns());
    layers.set("transport.wire.decode_ns", tracer.layer(Layer::WireDecode).mean_total_ns());
    layers.set("transport.frame.rtt_us", tracer.layer(Layer::FrameRtt).mean_total_ns() / 1e3);
    layers.set("transport.hlc_ns", tracer.layer(Layer::Hlc).mean_total_ns());
    layers.set("transport.log.append_us", tracer.layer(Layer::LogAppend).mean_total_ns() / 1e3);
    layers.set("transport.node_cpu_us_per_cs", per(node_cpu_s * 1e6, served));
    layers.set("bench.orchestrator.boot_ms", median(&boots) * 1e3);
    if let Some(r) = &row {
        layers.set("bench.orchestrator.tail_ms", r.wall_secs * 1e3 - last_due_ms);
    }
    crate::sim::sim_layers(&mut layers, tracer, &counts);
    // The processes count no events or messages, so the re-drive ratios
    // stay unset here; served critical sections are compared below.
    res.check(counts.cs_entries as f64 == served, || {
        format!("net-pair re-drive served {} of {served}", counts.cs_entries)
    });
    layers.set("trace.overhead_pct", 100.0 * (deploy_s - base_s) / base_s);
    layers.set("unattributed_pct", tracer.unattributed_pct(traced_wall));
    if let (Some(b), Some(r)) = (&base, &row) {
        eprintln!(
            "net-pair traced: p50 {:.1} us traced vs {:.1} untraced; re-drive served {} of {} arrivals",
            r.p50_us, b.p50_us, counts.cs_entries, r.injected
        );
    }
    (res, layers)
}
