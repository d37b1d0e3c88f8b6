//! The metric vocabulary: the end-to-end metrics every workload reports
//! with tracing off, and the per-layer metrics every traced run reports.

use oc_sim::MsgKind;

use crate::measure::{per, RunResult};
use crate::redrive::Counts;

/// End-to-end metrics, name and unit, in output order. Every workload
/// reports every one of them.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mib", "MiB"), ("acq_per_s", "1/s"), ("p50_us", "us")];

/// Unit of an end-to-end metric.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the vocabulary"))
}

/// Per-layer metrics, name and unit. A traced run reports all of them;
/// a layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.queue.op_ns", "ns"),
    ("sim.queue.pending_peak", "count"),
    ("sim.world.new_ms", "ms"),
    ("sim.world.step_ns.p50", "ns"),
    ("sim.world.step_ns.p99", "ns"),
    ("sim.world.mem_bytes_per_node", "B"),
    ("sim.send_ns", "ns"),
    ("algo.step_ns", "ns"),
    ("algo.msgs.request_per_cs", "msgs"),
    ("algo.msgs.token_per_cs", "msgs"),
    ("algo.msgs.enquiry_per_cs", "msgs"),
    ("algo.msgs.enquiry_reply_per_cs", "msgs"),
    ("algo.msgs.test_per_cs", "msgs"),
    ("algo.msgs.answer_per_cs", "msgs"),
    ("algo.msgs.anomaly_per_cs", "msgs"),
    ("algo.msgs.mint_request_per_cs", "msgs"),
    ("algo.msgs.mint_ack_per_cs", "msgs"),
    ("algo.searches_per_crash", "count"),
    ("algo.regenerations_per_crash", "count"),
    ("algo.fault_msgs_per_crash", "msgs"),
    ("sim.oracle_ns_per_cs", "ns"),
    ("sim.liveness_us", "us"),
    ("check.generate_us", "us"),
    ("check.run_us", "us"),
    ("check.events_per_scenario", "count"),
    ("runtime.acquire_ns", "ns"),
    ("runtime.wait_us", "us"),
    ("runtime.cpu_us_per_acq", "us"),
    ("runtime.client_cpu_share", "ratio"),
    ("runtime.events_per_acq", "count"),
    ("runtime.msgs_per_acq", "msgs"),
    ("runtime.start_ms", "ms"),
    ("runtime.shutdown_ms", "ms"),
    ("transport.wire.encode_ns", "ns"),
    ("transport.wire.decode_ns", "ns"),
    ("transport.frame.rtt_us", "us"),
    ("transport.hlc_ns", "ns"),
    ("transport.log.append_us", "us"),
    ("transport.node_cpu_us_per_cs", "us"),
    ("bench.orchestrator.boot_ms", "ms"),
    ("bench.orchestrator.tail_ms", "ms"),
    ("unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("redrive.events_ratio", "ratio"),
    ("redrive.msgs_ratio", "ratio"),
];

/// Per-message-kind metric names, in `MsgKind::all()` order.
const MSGS_PER_CS: [&str; 9] = [
    "algo.msgs.request_per_cs",
    "algo.msgs.token_per_cs",
    "algo.msgs.enquiry_per_cs",
    "algo.msgs.enquiry_reply_per_cs",
    "algo.msgs.test_per_cs",
    "algo.msgs.answer_per_cs",
    "algo.msgs.anomaly_per_cs",
    "algo.msgs.mint_request_per_cs",
    "algo.msgs.mint_ack_per_cs",
];

/// The per-layer values a traced run measured; unset ones emit as 0.
#[derive(Debug, Default)]
pub struct LayerReport {
    values: Vec<(&'static str, f64)>,
}

impl LayerReport {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "per-layer metric {name} is not in the vocabulary"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Messages of each kind per critical section, counted at the
    /// re-drive's sink.
    pub fn set_msgs_per_cs(&mut self, counts: &Counts) {
        let cs = counts.cs_entries as f64;
        for (name, kind) in MSGS_PER_CS.iter().zip(MsgKind::all()) {
            self.set(name, per(counts.sent_by_kind[kind as usize] as f64, cs));
        }
    }

    /// Pushes every per-layer metric into `res`, in vocabulary order.
    pub fn emit(&self, res: &mut RunResult) {
        for &(name, unit) in PER_LAYER {
            let value = self.values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
            res.push(name, unit, value);
        }
    }
}
