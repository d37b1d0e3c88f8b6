//! The traced re-drive: the simulator's event loop rebuilt from the
//! public parts `oc_sim` exports — [`EventQueue`], [`drive`], a
//! benchmark-owned [`ActionSink`], [`TimerTable`] and [`Oracle`] — so
//! the layers `World` keeps private (queue, protocol step, send path,
//! oracle) can each be timed in a span of their own.
//!
//! It follows `World`'s semantics for unhardened protocols: the same
//! event kinds, the same push order into the queue, the same RNG draw
//! order on the send path and the same crash purge. Its event and
//! message counts are reported beside the untraced run's so a reader
//! can see how faithful it is.

use oc_sim::{
    drive, drive_recovery, ActionSink, CompiledScript, EventQueue, LinkFate, MessageKind,
    NodeEvent, Oracle, OracleReport, Outbox, Protocol, SimConfig, SimDuration, SimTime, TimerTable,
};
use oc_topology::NodeId;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::trace::{Layer, Tracer};

enum Ev<M> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, id: u64, generation: u64 },
    RequestCs { node: NodeId },
    ExitCs { node: NodeId },
    Crash { node: NodeId },
    Recover { node: NodeId },
}

/// Counts taken at the sink and loop boundaries.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub events: u64,
    pub sent_by_kind: [u64; 9],
    pub cs_entries: u64,
    pub requests: u64,
    pub pending_peak: usize,
}

impl Counts {
    pub fn messages(&self) -> u64 {
        self.sent_by_kind.iter().sum()
    }

    pub fn absorb(&mut self, other: &Counts) {
        self.events += other.events;
        for (a, b) in self.sent_by_kind.iter_mut().zip(other.sent_by_kind) {
            *a += b;
        }
        self.cs_entries += other.cs_entries;
        self.requests += other.requests;
        self.pending_peak = self.pending_peak.max(other.pending_peak);
    }
}

/// After each critical-section exit, the next request goes to a
/// uniformly random node at the same instant: one request always
/// outstanding, as a closed-loop client with auto-release keeps it.
struct ClosedLoop {
    remaining: u64,
    rng: StdRng,
}

struct Sink<'t, M> {
    tracer: &'t mut Tracer,
    config: SimConfig,
    compiled: CompiledScript,
    queue: EventQueue<Ev<M>>,
    rng: StdRng,
    now: SimTime,
    alive: Vec<bool>,
    in_cs: Vec<bool>,
    holds: Vec<bool>,
    timers: TimerTable,
    oracle: Oracle,
    live_holders: usize,
    tokens_in_flight: usize,
    counts: Counts,
}

impl<M> Sink<'_, M> {
    fn push(&mut self, at: SimTime, ev: Ev<M>) {
        self.tracer.enter(Layer::Queue, self.counts.events);
        self.queue.push(at, ev);
        self.tracer.exit();
    }
}

impl<M: MessageKind + Clone> ActionSink<M> for Sink<'_, M> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.tracer.enter(Layer::Send, self.counts.events);
        self.counts.sent_by_kind[msg.kind() as usize] += 1;
        self.send_path(from, to, msg);
        self.tracer.exit();
    }

    fn enter_cs(&mut self, node: NodeId, token_epoch: u64) {
        let idx = node.zero_based() as usize;
        self.in_cs[idx] = true;
        self.tracer.enter(Layer::Oracle, self.counts.events);
        self.oracle.enter_cs(self.now, node, token_epoch);
        self.tracer.exit();
        self.counts.cs_entries += 1;
        self.push(self.now + self.config.cs_duration, Ev::ExitCs { node });
    }

    fn set_timer(&mut self, node: NodeId, id: u64, delay: SimDuration) {
        self.tracer.enter(Layer::Timer, self.counts.events);
        let generation = self.timers.arm(node.zero_based() as usize, id);
        self.push(self.now + delay, Ev::Timer { node, id, generation });
        self.tracer.exit();
    }

    fn cancel_timer(&mut self, node: NodeId, id: u64) {
        self.tracer.enter(Layer::Timer, self.counts.events);
        self.timers.cancel(node.zero_based() as usize, id);
        self.tracer.exit();
    }
}

impl<M: MessageKind + Clone> Sink<'_, M> {
    /// `World`'s send path: destination liveness, standing partition,
    /// legacy loss/duplication window, scripted fate, then the delay
    /// draws — in that order, so the RNG stream matches.
    fn send_path(&mut self, from: NodeId, to: NodeId, msg: M) {
        if !self.alive[to.zero_based() as usize] {
            return;
        }
        if self.compiled.active_at(self.now) && self.compiled.cut(self.now, from, to) {
            return;
        }
        let mut duplicate = false;
        if self.config.faults.active_at(self.now) {
            let faults = self.config.faults;
            if faults.loss_per_mille > 0
                && self.rng.random_range(0..1000u32) < u32::from(faults.loss_per_mille)
            {
                return;
            }
            if faults.duplicate_per_mille > 0
                && !msg.carries_token()
                && self.rng.random_range(0..1000u32) < u32::from(faults.duplicate_per_mille)
            {
                duplicate = true;
            }
        }
        if self.compiled.active_at(self.now) {
            match self.compiled.probabilistic_fate(
                self.now,
                from,
                to,
                msg.carries_token(),
                &mut self.rng,
            ) {
                LinkFate::Deliver => {}
                LinkFate::DropPartition | LinkFate::DropLoss => return,
                LinkFate::DeliverAndDuplicate => duplicate = true,
            }
        }
        if duplicate {
            let delay = self.config.delay.sample(&mut self.rng);
            self.push(self.now + delay, Ev::Deliver { to, from, msg: msg.clone() });
        }
        if msg.carries_token() {
            self.tokens_in_flight += 1;
        }
        let delay = self.config.delay.sample(&mut self.rng);
        self.push(self.now + delay, Ev::Deliver { to, from, msg });
    }
}

/// One re-driven world.
pub struct Redrive<'t, P: Protocol> {
    nodes: Vec<P>,
    outbox: Outbox<P::Msg>,
    sink: Sink<'t, P::Msg>,
    closed_loop: Option<ClosedLoop>,
}

impl<'t, P: Protocol> Redrive<'t, P>
where
    P::Msg: MessageKind + Clone,
{
    pub fn new(config: SimConfig, nodes: Vec<P>, tracer: &'t mut Tracer) -> Self {
        let n = nodes.len();
        let holds: Vec<bool> = nodes.iter().map(Protocol::holds_token).collect();
        let live_holders = holds.iter().filter(|h| **h).count();
        let compiled = config.script.compile(n);
        let rng = StdRng::seed_from_u64(config.seed);
        Redrive {
            nodes,
            outbox: Outbox::new(),
            sink: Sink {
                tracer,
                config,
                compiled,
                queue: EventQueue::with_backend(oc_sim::QueueBackend::Bucketed),
                rng,
                now: SimTime::ZERO,
                alive: vec![true; n],
                in_cs: vec![false; n],
                holds,
                timers: TimerTable::new(n),
                oracle: Oracle::new(),
                live_holders,
                tokens_in_flight: 0,
                counts: Counts::default(),
            },
            closed_loop: None,
        }
    }

    pub fn schedule_request(&mut self, at: SimTime, node: NodeId) {
        self.sink.counts.requests += 1;
        self.sink.push(at, Ev::RequestCs { node });
    }

    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId, recover_at: Option<SimTime>) {
        self.sink.push(at, Ev::Crash { node });
        if let Some(r) = recover_at {
            self.sink.push(r, Ev::Recover { node });
        }
    }

    /// Turns the world into a closed loop of `acquisitions` requests,
    /// the first issued now at a random node.
    pub fn closed_loop(&mut self, acquisitions: u64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        if acquisitions > 0 {
            let node = NodeId::new(rng.random_range(1..=self.nodes.len() as u32));
            self.schedule_request(self.sink.now, node);
        }
        self.closed_loop = Some(ClosedLoop { remaining: acquisitions.saturating_sub(1), rng });
    }

    /// Runs until the queue drains or `max_events` have been processed;
    /// `true` if it drained.
    pub fn run(&mut self, max_events: u64) -> bool {
        while self.sink.counts.events < max_events {
            if !self.step() {
                return true;
            }
        }
        false
    }

    fn step(&mut self) -> bool {
        let key = self.sink.counts.events;
        self.sink.tracer.enter(Layer::Queue, key);
        let popped = self.sink.queue.pop();
        self.sink.tracer.exit();
        let Some((at, ev)) = popped else { return false };
        self.sink.now = at;
        self.sink.counts.events += 1;
        match ev {
            Ev::Deliver { to, from, msg } => {
                if msg.carries_token() {
                    self.sink.tokens_in_flight -= 1;
                }
                if self.sink.alive[to.zero_based() as usize] {
                    self.dispatch(to, NodeEvent::Deliver { from, msg });
                }
            }
            Ev::Timer { node, id, generation } => {
                let idx = node.zero_based() as usize;
                if self.sink.alive[idx] && self.sink.timers.fire(idx, id, generation) {
                    self.dispatch(node, NodeEvent::Timer(id));
                }
            }
            Ev::RequestCs { node } => {
                if self.sink.alive[node.zero_based() as usize] {
                    self.dispatch(node, NodeEvent::RequestCs);
                }
            }
            Ev::ExitCs { node } => {
                let idx = node.zero_based() as usize;
                if self.sink.alive[idx] && self.sink.in_cs[idx] {
                    self.sink.in_cs[idx] = false;
                    self.sink.tracer.enter(Layer::Oracle, key);
                    self.sink.oracle.exit_cs(node);
                    self.sink.tracer.exit();
                    self.dispatch(node, NodeEvent::ExitCs);
                    self.next_closed_loop_request();
                }
            }
            Ev::Crash { node } => self.crash(node),
            Ev::Recover { node } => {
                let idx = node.zero_based() as usize;
                if !self.sink.alive[idx] {
                    self.sink.alive[idx] = true;
                    self.sink.tracer.enter(Layer::Algo, key);
                    drive_recovery(&mut self.nodes[idx], &mut self.outbox, &mut self.sink);
                    self.sink.tracer.exit();
                    self.sync_holder(idx);
                }
            }
        }
        self.sink.counts.pending_peak = self.sink.counts.pending_peak.max(self.sink.queue.len());
        self.sink.tracer.enter(Layer::Oracle, key);
        self.sink
            .oracle
            .token_census(self.sink.now, self.sink.live_holders + self.sink.tokens_in_flight);
        self.sink.tracer.exit();
        true
    }

    fn next_closed_loop_request(&mut self) {
        let n = self.nodes.len() as u32;
        let Some(lp) = self.closed_loop.as_mut() else { return };
        if lp.remaining == 0 {
            return;
        }
        lp.remaining -= 1;
        let node = NodeId::new(lp.rng.random_range(1..=n));
        self.schedule_request(self.sink.now, node);
    }

    fn dispatch(&mut self, node: NodeId, event: NodeEvent<P::Msg>) {
        let idx = node.zero_based() as usize;
        self.sink.tracer.enter(Layer::Algo, self.sink.counts.events);
        drive(&mut self.nodes[idx], event, &mut self.outbox, &mut self.sink);
        self.sink.tracer.exit();
        self.sync_holder(idx);
    }

    fn sync_holder(&mut self, idx: usize) {
        let held = self.sink.alive[idx] && self.nodes[idx].holds_token();
        if held != self.sink.holds[idx] {
            if held {
                self.sink.live_holders += 1;
            } else {
                self.sink.live_holders -= 1;
            }
            self.sink.holds[idx] = held;
        }
    }

    /// `World`'s fail-stop crash: volatile state and timers are lost, and
    /// so is every message in flight to the node along with its scheduled
    /// critical-section exit.
    fn crash(&mut self, node: NodeId) {
        let idx = node.zero_based() as usize;
        if !self.sink.alive[idx] {
            return;
        }
        self.sink.alive[idx] = false;
        if self.sink.in_cs[idx] {
            self.sink.in_cs[idx] = false;
            self.sink.oracle.exit_cs(node);
        }
        self.nodes[idx].on_crash();
        self.sink.timers.clear_node(idx);
        let mut lost_tokens = 0usize;
        self.sink.tracer.enter(Layer::Queue, self.sink.counts.events);
        self.sink.queue.retain(|ev| match ev {
            Ev::Deliver { to, msg, .. } if *to == node => {
                lost_tokens += usize::from(msg.carries_token());
                false
            }
            Ev::ExitCs { node: exiting } if *exiting == node => false,
            _ => true,
        });
        self.sink.tracer.exit();
        self.sink.tokens_in_flight -= lost_tokens;
        self.sync_holder(idx);
    }

    pub fn counts(&self) -> &Counts {
        &self.sink.counts
    }

    pub fn oracle_report(&self) -> &OracleReport {
        self.sink.oracle.report()
    }
}
