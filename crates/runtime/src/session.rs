//! The client-facing session table: request identities, per-request
//! lifecycle, and the latency histogram.
//!
//! Every `acquire` (immediate or scheduled) opens a request slot. A
//! request's lifecycle is strictly
//! `Pending → Granted → Completed`, short-circuited to `Abandoned` when
//! its node crashes first (or the runtime shuts down before service) —
//! the same accounting the simulator's `World` keeps, so the liveness
//! oracle's `served + abandoned == injected` equation judges both
//! substrates identically.
//!
//! Grant order is per-node FIFO, matching the simulator's
//! `pending_request_times` queues: when a node enters the CS, its oldest
//! *activated* request is the one being served.
//!
//! Two batched-hot-path extras ride on each slot:
//!
//! * **auto-release** — the request exits the CS immediately after entry
//!   instead of waiting out a wall-clock lease, so a closed-loop client
//!   measures acquisition throughput rather than lease pacing;
//! * **watchers** — a registered completion channel is notified once,
//!   when the request reaches a terminal state, replacing status
//!   sleep-polling in closed-loop clients.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crossbeam_channel::{unbounded, Receiver, Sender};
use oc_topology::NodeId;

use crate::histogram::{LatencyHistogram, LatencySummary};

/// Identity of one `acquire` call, unique within its runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// The raw index (dense, in issue order).
    #[must_use]
    pub fn index(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw index (crate-internal: ids cross
    /// worker mailboxes and delay heaps as plain `u64`s).
    pub(crate) fn from_index(index: u64) -> Self {
        RequestId(index)
    }
}

/// Lifecycle state of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// Issued, not yet granted.
    Pending,
    /// Inside the critical section right now.
    Granted,
    /// Served: the critical section completed (terminal).
    Completed,
    /// Never served: its node crashed while it waited, it was issued to a
    /// crashed node, or the runtime shut down first (terminal).
    Abandoned,
}

impl RequestStatus {
    /// `true` for the terminal states.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, RequestStatus::Completed | RequestStatus::Abandoned)
    }
}

/// A terminal-state notification: `(request, its terminal status)`.
pub(crate) type Completion = (RequestId, RequestStatus);

#[derive(Debug)]
struct RequestSlot {
    node: NodeId,
    /// Issue time — for scheduled arrivals, the *scheduled* delivery
    /// instant, so open-loop latency includes queueing behind the lock
    /// but not the schedule's lead time.
    t0: Instant,
    status: RequestStatus,
    /// Exit the CS immediately after entry (no wall-clock lease).
    auto_release: bool,
    /// Registered completion channel to notify at the terminal
    /// transition, by watcher index.
    watcher: Option<u32>,
}

struct SessionInner {
    slots: Vec<RequestSlot>,
    /// Activated-but-ungranted requests per node, FIFO.
    pending: Vec<VecDeque<u64>>,
    /// The request currently inside the CS per node, if any.
    current: Vec<Option<u64>>,
    /// Registered completion channels, indexed by `RequestSlot::watcher`.
    /// `None` marks a watcher whose receiver hung up: the slot is pruned
    /// on the first failed send (the index stays reserved so later
    /// registrations keep their identities) and never sent to again.
    watchers: Vec<Option<Sender<Completion>>>,
    histogram: LatencyHistogram,
}

impl SessionInner {
    /// Fires the slot's completion notification, if a watcher is
    /// registered. Call only after a *terminal* transition — each slot
    /// notifies at most once because terminal states never transition
    /// again. A disconnected watcher is pruned: its sender is dropped on
    /// the first failed send, so a departed client's channel does not
    /// keep accumulating (and silently failing) terminal notifications
    /// for the rest of the runtime's life.
    fn notify(&mut self, id: u64) {
        let slot = &self.slots[id as usize];
        debug_assert!(slot.status.is_terminal());
        let Some(w) = slot.watcher else { return };
        let status = slot.status;
        if let Some(tx) = &self.watchers[w as usize] {
            if tx.send((RequestId(id), status)).is_err() {
                self.watchers[w as usize] = None;
            }
        }
    }

    /// Watchers whose receiver is still connected (or has never been
    /// sent to since it hung up) — observability for the prune.
    #[cfg(test)]
    fn live_watchers(&self) -> usize {
        self.watchers.iter().filter(|w| w.is_some()).count()
    }
}

/// Shared, mutex-protected session state (see module docs).
pub(crate) struct SessionTable {
    inner: Mutex<SessionInner>,
}

impl SessionTable {
    pub(crate) fn new(n: usize) -> Self {
        SessionTable {
            inner: Mutex::new(SessionInner {
                slots: Vec::new(),
                pending: vec![VecDeque::new(); n],
                current: vec![None; n],
                watchers: Vec::new(),
                histogram: LatencyHistogram::new(),
            }),
        }
    }

    /// Locks the table, recovering from poison: the table's invariants
    /// are per-slot and every verdict that matters is re-checked by the
    /// oracles at shutdown, so a worker that panicked while holding the
    /// guard must not cascade into panics in every client thread and the
    /// gateway — they read whatever state the panicking writer left,
    /// which is no worse than what any concurrent reader could see.
    fn lock(&self) -> std::sync::MutexGuard<'_, SessionInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers a completion channel; terminal transitions of slots
    /// opened with the returned index are sent to it.
    pub(crate) fn register_watcher(&self) -> (u32, Receiver<Completion>) {
        let (tx, rx) = unbounded();
        let mut inner = self.lock();
        let idx = inner.watchers.len() as u32;
        inner.watchers.push(Some(tx));
        (idx, rx)
    }

    /// Opens a new request slot (status `Pending`, not yet activated).
    pub(crate) fn open(
        &self,
        node: NodeId,
        t0: Instant,
        auto_release: bool,
        watcher: Option<u32>,
    ) -> RequestId {
        let mut inner = self.lock();
        let id = inner.slots.len() as u64;
        inner.slots.push(RequestSlot {
            node,
            t0,
            status: RequestStatus::Pending,
            auto_release,
            watcher,
        });
        RequestId(id)
    }

    /// Activates a request at its node: it joins the node's FIFO grant
    /// queue. Called by the owning worker when the `Acquire` command is
    /// processed, so queue order matches processing order.
    pub(crate) fn activate(&self, id: RequestId) {
        let mut inner = self.lock();
        let node = inner.slots[id.0 as usize].node;
        inner.pending[node.zero_based() as usize].push_back(id.0);
    }

    /// Abandons one request (issued to a crashed node). Returns `true`
    /// if it was still pending.
    pub(crate) fn abandon(&self, id: RequestId) -> bool {
        let mut inner = self.lock();
        let slot = &mut inner.slots[id.0 as usize];
        if slot.status == RequestStatus::Pending {
            slot.status = RequestStatus::Abandoned;
            inner.notify(id.0);
            true
        } else {
            false
        }
    }

    /// Grants the node's oldest activated request: pops the FIFO, marks
    /// it `Granted`, and records its latency. Returns the request, its
    /// latency, and whether it auto-releases — or `None` if the node
    /// entered the CS with no session request queued.
    pub(crate) fn grant(&self, node: NodeId, now: Instant) -> Option<(RequestId, u64, bool)> {
        let mut inner = self.lock();
        let idx = node.zero_based() as usize;
        let id = inner.pending[idx].pop_front()?;
        let (latency, auto) = {
            let slot = &mut inner.slots[id as usize];
            slot.status = RequestStatus::Granted;
            let latency = u64::try_from(now.saturating_duration_since(slot.t0).as_nanos())
                .unwrap_or(u64::MAX);
            (latency, slot.auto_release)
        };
        inner.current[idx] = Some(id);
        inner.histogram.record(latency);
        Some((RequestId(id), latency, auto))
    }

    /// Completes the node's granted request (CS exit). Returns it, if
    /// one was current.
    pub(crate) fn complete_current(&self, node: NodeId) -> Option<RequestId> {
        let mut inner = self.lock();
        let idx = node.zero_based() as usize;
        let id = inner.current[idx].take()?;
        inner.slots[id as usize].status = RequestStatus::Completed;
        inner.notify(id);
        Some(RequestId(id))
    }

    /// `true` if `id` is the request currently holding `node`'s critical
    /// section — the release-path validity check.
    pub(crate) fn is_current(&self, id: RequestId, node: NodeId) -> bool {
        let inner = self.lock();
        inner.current[node.zero_based() as usize] == Some(id.0)
    }

    /// `true` if the request currently holding `node`'s critical section
    /// was opened auto-release — the worker's immediate-exit check.
    pub(crate) fn current_is_auto(&self, node: NodeId) -> bool {
        let inner = self.lock();
        inner.current[node.zero_based() as usize]
            .is_some_and(|id| inner.slots[id as usize].auto_release)
    }

    /// The node a request was issued against.
    pub(crate) fn node_of(&self, id: RequestId) -> Option<NodeId> {
        let inner = self.lock();
        inner.slots.get(id.0 as usize).map(|slot| slot.node)
    }

    /// Crash of `node`: every activated-but-ungranted request is
    /// abandoned (returns the count), and a granted request is completed
    /// — its critical section was served, however abruptly it ended.
    pub(crate) fn crash_node(&self, node: NodeId) -> u64 {
        let mut inner = self.lock();
        let idx = node.zero_based() as usize;
        let mut abandoned = 0;
        while let Some(id) = inner.pending[idx].pop_front() {
            inner.slots[id as usize].status = RequestStatus::Abandoned;
            inner.notify(id);
            abandoned += 1;
        }
        if let Some(id) = inner.current[idx].take() {
            inner.slots[id as usize].status = RequestStatus::Completed;
            inner.notify(id);
        }
        abandoned
    }

    /// Shutdown: force every non-terminal request terminal — `Pending`
    /// becomes `Abandoned` (returns how many), `Granted` becomes
    /// `Completed`. After this, `injected == completed + abandoned`
    /// holds unconditionally.
    pub(crate) fn finalize(&self) -> u64 {
        let mut inner = self.lock();
        let mut newly_abandoned = 0;
        let mut newly_terminal = Vec::new();
        for (id, slot) in inner.slots.iter_mut().enumerate() {
            match slot.status {
                RequestStatus::Pending => {
                    slot.status = RequestStatus::Abandoned;
                    newly_abandoned += 1;
                    newly_terminal.push(id as u64);
                }
                RequestStatus::Granted => {
                    slot.status = RequestStatus::Completed;
                    newly_terminal.push(id as u64);
                }
                _ => {}
            }
        }
        for id in newly_terminal {
            inner.notify(id);
        }
        for queue in &mut inner.pending {
            queue.clear();
        }
        for current in &mut inner.current {
            *current = None;
        }
        newly_abandoned
    }

    /// One request's status.
    pub(crate) fn status(&self, id: RequestId) -> Option<RequestStatus> {
        let inner = self.lock();
        inner.slots.get(id.0 as usize).map(|slot| slot.status)
    }

    /// `true` if no request is pending or granted.
    pub(crate) fn all_terminal(&self) -> bool {
        let inner = self.lock();
        inner.slots.iter().all(|slot| slot.status.is_terminal())
    }

    /// Terminal counts: `(completed, abandoned)`.
    pub(crate) fn terminal_counts(&self) -> (u64, u64) {
        let inner = self.lock();
        let mut completed = 0;
        let mut abandoned = 0;
        for slot in &inner.slots {
            match slot.status {
                RequestStatus::Completed => completed += 1,
                RequestStatus::Abandoned => abandoned += 1,
                _ => {}
            }
        }
        (completed, abandoned)
    }

    /// Per-bucket request accounting for a partition of the node space
    /// into contiguous ranges: `offsets[k]` is bucket `k`'s first
    /// zero-based node index, buckets run to the next offset (the last to
    /// infinity). Returns `(injected, completed, abandoned)` per bucket —
    /// the liveness horizon's starvation equation, one namespace at a
    /// time.
    pub(crate) fn counts_by_bucket(&self, offsets: &[u32]) -> Vec<(u64, u64, u64)> {
        let inner = self.lock();
        let mut counts = vec![(0u64, 0u64, 0u64); offsets.len()];
        for slot in &inner.slots {
            let idx = slot.node.zero_based();
            let bucket = offsets.partition_point(|&off| off <= idx).saturating_sub(1);
            let entry = &mut counts[bucket];
            entry.0 += 1;
            match slot.status {
                RequestStatus::Completed => entry.1 += 1,
                RequestStatus::Abandoned => entry.2 += 1,
                _ => {}
            }
        }
        counts
    }

    /// Requests opened so far.
    pub(crate) fn opened(&self) -> u64 {
        self.lock().slots.len() as u64
    }

    /// Snapshot of the latency summary.
    pub(crate) fn latency_summary(&self) -> LatencySummary {
        self.lock().histogram.summary()
    }

    /// Clones the full histogram (for merging across runs in harnesses).
    pub(crate) fn histogram(&self) -> LatencyHistogram {
        self.lock().histogram.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SessionTable {
        SessionTable::new(4)
    }

    fn open(t: &SessionTable, node: u32) -> RequestId {
        t.open(NodeId::new(node), Instant::now(), false, None)
    }

    #[test]
    fn lifecycle_pending_granted_completed() {
        let t = table();
        let now = Instant::now();
        let id = open(&t, 2);
        assert_eq!(t.status(id), Some(RequestStatus::Pending));
        t.activate(id);
        let (granted, _latency, auto) = t.grant(NodeId::new(2), now).expect("queued request");
        assert_eq!(granted, id);
        assert!(!auto);
        assert_eq!(t.status(id), Some(RequestStatus::Granted));
        assert!(t.is_current(id, NodeId::new(2)));
        assert!(!t.current_is_auto(NodeId::new(2)));
        assert_eq!(t.complete_current(NodeId::new(2)), Some(id));
        assert_eq!(t.status(id), Some(RequestStatus::Completed));
        assert!(t.all_terminal());
    }

    #[test]
    fn grant_order_is_fifo_per_node() {
        let t = table();
        let now = Instant::now();
        let a = open(&t, 1);
        let b = open(&t, 1);
        t.activate(a);
        t.activate(b);
        assert_eq!(t.grant(NodeId::new(1), now).unwrap().0, a);
        t.complete_current(NodeId::new(1));
        assert_eq!(t.grant(NodeId::new(1), now).unwrap().0, b);
    }

    #[test]
    fn crash_abandons_pending_and_completes_current() {
        let t = table();
        let now = Instant::now();
        let served = open(&t, 3);
        let starved = open(&t, 3);
        t.activate(served);
        t.activate(starved);
        t.grant(NodeId::new(3), now).unwrap();
        assert_eq!(t.crash_node(NodeId::new(3)), 1);
        assert_eq!(t.status(served), Some(RequestStatus::Completed));
        assert_eq!(t.status(starved), Some(RequestStatus::Abandoned));
        assert_eq!(t.terminal_counts(), (1, 1));
    }

    #[test]
    fn finalize_terminates_everything() {
        let t = table();
        let now = Instant::now();
        let pending = open(&t, 1);
        let granted = open(&t, 2);
        t.activate(granted);
        t.grant(NodeId::new(2), now).unwrap();
        assert_eq!(t.finalize(), 1);
        assert_eq!(t.status(pending), Some(RequestStatus::Abandoned));
        assert_eq!(t.status(granted), Some(RequestStatus::Completed));
        assert!(t.all_terminal());
        assert_eq!(t.opened(), 2);
    }

    #[test]
    fn grant_without_session_request_is_none() {
        let t = table();
        assert!(t.grant(NodeId::new(1), Instant::now()).is_none());
        assert!(t.complete_current(NodeId::new(1)).is_none());
    }

    #[test]
    fn auto_release_flag_travels_through_grant() {
        let t = table();
        let id = t.open(NodeId::new(1), Instant::now(), true, None);
        t.activate(id);
        let (_, _, auto) = t.grant(NodeId::new(1), Instant::now()).unwrap();
        assert!(auto);
        assert!(t.current_is_auto(NodeId::new(1)));
    }

    #[test]
    fn watcher_sees_every_terminal_transition_once() {
        let t = table();
        let (w, rx) = t.register_watcher();
        let completed = t.open(NodeId::new(1), Instant::now(), false, Some(w));
        let crashed = t.open(NodeId::new(2), Instant::now(), false, Some(w));
        let finalized = t.open(NodeId::new(3), Instant::now(), false, Some(w));
        let unwatched = open(&t, 4);
        t.activate(completed);
        t.grant(NodeId::new(1), Instant::now()).unwrap();
        t.complete_current(NodeId::new(1));
        t.activate(crashed);
        t.crash_node(NodeId::new(2));
        t.finalize();
        let mut got: Vec<Completion> = Vec::new();
        while let Ok(completion) = rx.try_recv() {
            got.push(completion);
        }
        got.sort_by_key(|(id, _)| *id);
        assert_eq!(
            got,
            vec![
                (completed, RequestStatus::Completed),
                (crashed, RequestStatus::Abandoned),
                (finalized, RequestStatus::Abandoned),
            ]
        );
        let _ = unwatched;
    }

    #[test]
    fn dropped_watcher_is_pruned_on_first_failed_send() {
        // Regression: `register_watcher` pushed senders that were never
        // pruned — a dropped `Watcher` left a dead sender that was
        // re-sent (its error silently ignored) on every terminal
        // transition forever. The first failed send must retire it.
        let t = table();
        let (w, rx) = t.register_watcher();
        let (live_w, live_rx) = t.register_watcher();
        assert_eq!(t.lock().live_watchers(), 2);
        let first = t.open(NodeId::new(1), Instant::now(), false, Some(w));
        drop(rx);
        // The client left; the first terminal transition hits the dead
        // channel and prunes the sender.
        assert!(t.abandon(first));
        assert_eq!(t.lock().live_watchers(), 1);
        assert!(t.lock().watchers[w as usize].is_none());
        // Churn: hundreds of further terminal transitions against the
        // dead watcher id stay pruned (no resurrection, no panic), and a
        // live watcher keeps its identity and its notifications.
        for i in 0..300 {
            let id = t.open(NodeId::new(1 + (i % 4)), Instant::now(), false, Some(w));
            t.abandon(id);
        }
        assert_eq!(t.lock().live_watchers(), 1);
        let watched = t.open(NodeId::new(2), Instant::now(), false, Some(live_w));
        t.abandon(watched);
        assert_eq!(live_rx.try_recv().ok(), Some((watched, RequestStatus::Abandoned)));
    }

    #[test]
    fn poisoned_table_still_answers_status() {
        // Regression: `lock()` used `expect("session table poisoned")`,
        // so one panicking worker cascaded into panics in every client
        // thread. The guard is recovered via `PoisonError::into_inner`;
        // the table's invariants are per-slot and re-checked by the
        // oracles, so readers keep working.
        let t = std::sync::Arc::new(table());
        let id = open(&t, 3);
        let poisoner = std::sync::Arc::clone(&t);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("worker dies holding the session lock");
        })
        .join();
        assert!(t.inner.lock().is_err(), "the mutex must actually be poisoned");
        assert_eq!(t.status(id), Some(RequestStatus::Pending));
        // Mutation through the recovered guard still works too.
        t.activate(id);
        assert!(t.grant(NodeId::new(3), Instant::now()).is_some());
        assert_eq!(t.status(id), Some(RequestStatus::Granted));
    }

    #[test]
    fn counts_by_bucket_partitions_the_node_space() {
        let t = table();
        // Buckets: nodes {1,2} and {3,4}.
        let a = open(&t, 1);
        let b = open(&t, 3);
        let c = open(&t, 4);
        t.activate(a);
        t.grant(NodeId::new(1), Instant::now()).unwrap();
        t.complete_current(NodeId::new(1));
        t.activate(b);
        t.crash_node(NodeId::new(3));
        let counts = t.counts_by_bucket(&[0, 2]);
        assert_eq!(counts, vec![(1, 1, 0), (2, 0, 1)]);
        let _ = c;
    }
}
