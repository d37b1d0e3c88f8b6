//! In-memory span recorder for the traced run.
//!
//! A span brackets one call the benchmark makes into a layer: it has a
//! layer name, a key (the request or event it belongs to), a start, an
//! end and the span that was open when it started (its parent). Spans
//! stay in memory and are written out when the run ends. Every span
//! closes into its layer's aggregate, so self time (a span minus the
//! time its children cover) and call counts are exact even when the
//! stored span list is capped.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layers spans are attributed to, named after the modules they
/// call into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    WorldNew,
    WorldSchedule,
    WorldStep,
    Queue,
    Send,
    Timer,
    Algo,
    Oracle,
    Liveness,
    CheckGenerate,
    CheckRun,
    RuntimeStart,
    RuntimeAcquire,
    RuntimeWait,
    RuntimeShutdown,
    WireEncode,
    WireDecode,
    FrameRtt,
    Hlc,
    LogAppend,
    OrchestratorBoot,
    Deployment,
}

const LAYERS: usize = 22;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::WorldNew => "sim.world.new",
            Layer::WorldSchedule => "sim.world.schedule",
            Layer::WorldStep => "sim.world.step",
            Layer::Queue => "sim.queue",
            Layer::Send => "sim.send",
            Layer::Timer => "sim.timer",
            Layer::Algo => "algo",
            Layer::Oracle => "sim.oracle",
            Layer::Liveness => "sim.liveness",
            Layer::CheckGenerate => "check.generate",
            Layer::CheckRun => "check.run",
            Layer::RuntimeStart => "runtime.start",
            Layer::RuntimeAcquire => "runtime.acquire",
            Layer::RuntimeWait => "runtime.wait",
            Layer::RuntimeShutdown => "runtime.shutdown",
            Layer::WireEncode => "transport.wire.encode",
            Layer::WireDecode => "transport.wire.decode",
            Layer::FrameRtt => "transport.frame.rtt",
            Layer::Hlc => "transport.hlc",
            Layer::LogAppend => "transport.log.append",
            Layer::OrchestratorBoot => "bench.orchestrator.boot",
            Layer::Deployment => "bench.orchestrator.run_deployment",
        }
    }
}

/// Closed-span totals of one layer.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Durations of every `stride`-th call, for quantiles.
    samples: Vec<u32>,
}

impl LayerTotals {
    /// Mean span duration in nanoseconds (children included).
    pub fn mean_total_ns(&self) -> f64 {
        crate::measure::per(self.total_ns as f64, self.calls as f64)
    }

    /// Mean self time in nanoseconds (children excluded).
    pub fn mean_self_ns(&self) -> f64 {
        crate::measure::per(self.self_ns as f64, self.calls as f64)
    }

    /// Nearest-rank quantile of the sampled durations, nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let mut v: Vec<u64> = self.samples.iter().map(|&d| u64::from(d)).collect();
        v.sort_unstable();
        crate::measure::quantile_sorted(&v, q) as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    key: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Open {
    layer: Layer,
    stored: u32,
    start: Instant,
    child_ns: u64,
}

/// Spans beyond this many are aggregated but not stored individually.
const STORED_SPANS: usize = 1 << 18;
/// Every `SAMPLE_STRIDE`-th closed span of a layer keeps its duration
/// for quantiles.
const SAMPLE_STRIDE: u64 = 4;
const NO_SPAN: u32 = u32::MAX;

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
    layers: Vec<LayerTotals>,
    /// Total duration of spans opened with no parent: the wall time the
    /// layers cover.
    covered_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            open: Vec::with_capacity(16),
            spans: Vec::new(),
            layers: vec![LayerTotals::default(); LAYERS],
            covered_ns: 0,
        }
    }

    /// Opens a span of `layer` for `key`, nested in the open span.
    pub fn enter(&mut self, layer: Layer, key: u64) {
        let start = Instant::now();
        let stored = if self.spans.len() < STORED_SPANS {
            let parent = self.open.last().map_or(NO_SPAN, |o| o.stored);
            self.spans.push(Span {
                layer,
                key,
                parent,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_SPAN
        };
        self.open.push(Open { layer, stored, start, child_ns: 0 });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = Instant::now();
        let open = self.open.pop().expect("exit without a matching enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let totals = &mut self.layers[open.layer as usize];
        if totals.calls.is_multiple_of(SAMPLE_STRIDE) {
            totals.samples.push(u32::try_from(dur).unwrap_or(u32::MAX));
        }
        totals.calls += 1;
        totals.total_ns += dur;
        totals.self_ns += dur.saturating_sub(open.child_ns);
        match self.open.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.covered_ns += dur,
        }
        if open.stored != NO_SPAN {
            self.spans[open.stored as usize].end_ns =
                end.duration_since(self.origin).as_nanos() as u64;
        }
    }

    /// Sets the key of the innermost open span, for calls whose key
    /// (a request id) is known only once they return.
    pub fn rekey(&mut self, key: u64) {
        if let Some(open) = self.open.last() {
            if open.stored != NO_SPAN {
                self.spans[open.stored as usize].key = key;
            }
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: Layer, key: u64, f: impl FnOnce() -> R) -> R {
        self.enter(layer, key);
        let out = f();
        self.exit();
        out
    }

    pub fn layer(&self, layer: Layer) -> &LayerTotals {
        &self.layers[layer as usize]
    }

    /// Share of `wall_s`, in percent, that no top-level span covers.
    pub fn unattributed_pct(&self, wall_s: f64) -> f64 {
        100.0 * (wall_s - self.covered_ns as f64 / 1e9) / wall_s
    }

    /// Writes the stored spans as tab-separated lines: layer, key,
    /// parent index (`-` for none), start and end in nanoseconds since
    /// the tracer was created.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "layer\tkey\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_SPAN { "-".to_owned() } else { s.parent.to_string() };
            writeln!(out, "{}\t{}\t{parent}\t{}\t{}", s.layer.name(), s.key, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}
