//! Dense per-node timer state with lazy cancellation.
//!
//! Both substrates implement `SetTimer`/`CancelTimer` the same way: arming
//! a timer records a fresh *generation* for its id and schedules a timer
//! event carrying that generation; cancelling (or re-arming) bumps the
//! recorded generation so stale events are ignored when they surface. The
//! seed kept a `HashMap<id, generation>` per node — hashing on every timer
//! touch, and one heap allocation per node per map. Protocols arm a
//! handful of well-known timer ids (the open-cube algorithm uses four), so
//! a small linear-scanned vec per node is both faster and denser.
//!
//! [`TimerRow`] is one node's state (used directly by `oc-runtime`'s
//! per-node threads); [`TimerTable`] is the simulator's node-indexed table
//! with per-node generation counters.

/// One node's armed timers: `(timer id, live generation)` pairs.
///
/// Linear scan: protocols use a handful of distinct ids, and rows retain
/// their capacity across crashes, so steady state allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct TimerRow {
    slots: Vec<(u64, u64)>,
}

impl TimerRow {
    /// An empty row.
    #[must_use]
    pub fn new() -> Self {
        TimerRow::default()
    }

    /// Records `generation` as the only one that may fire for `id`,
    /// superseding any previous arming.
    pub fn arm(&mut self, id: u64, generation: u64) {
        for slot in &mut self.slots {
            if slot.0 == id {
                slot.1 = generation;
                return;
            }
        }
        self.slots.push((id, generation));
    }

    /// Disarms `id` (no-op if not armed).
    pub fn cancel(&mut self, id: u64) {
        self.slots.retain(|slot| slot.0 != id);
    }

    /// `true` if `(id, generation)` is the live arming. Does not disarm.
    #[must_use]
    pub fn is_live(&self, id: u64, generation: u64) -> bool {
        self.slots.contains(&(id, generation))
    }

    /// Consumes a firing: returns `true` and disarms `id` exactly when
    /// `(id, generation)` is the live arming; stale generations return
    /// `false` and leave the row untouched.
    pub fn fire(&mut self, id: u64, generation: u64) -> bool {
        if let Some(k) = self.slots.iter().position(|slot| *slot == (id, generation)) {
            self.slots.swap_remove(k);
            true
        } else {
            false
        }
    }

    /// Disarms everything (fail-stop: volatile state is lost). Capacity is
    /// retained.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Number of armed timers.
    #[must_use]
    pub fn armed(&self) -> usize {
        self.slots.len()
    }
}

/// Node-indexed timer rows plus per-node generation counters, for the
/// simulator.
///
/// Generations are per node, not global: a generation only ever guards
/// firings on its own row, so node-local counters preserve the stale-timer
/// semantics exactly.
#[derive(Debug, Clone)]
pub struct TimerTable {
    rows: Vec<TimerRow>,
    gens: Vec<u64>,
}

impl TimerTable {
    /// A table for `n` nodes (indexed `0..n`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        TimerTable { rows: vec![TimerRow::new(); n], gens: vec![0; n] }
    }

    /// Heap bytes held by the table: the two node-indexed vectors plus
    /// every row's slot capacity. For the memory-footprint report.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<TimerRow>()
            + self.gens.capacity() * std::mem::size_of::<u64>()
            + self
                .rows
                .iter()
                .map(|row| row.slots.capacity() * std::mem::size_of::<(u64, u64)>())
                .sum::<usize>()
    }

    /// Arms `id` on node `idx`, returning the generation the scheduled
    /// timer event must carry to fire.
    pub fn arm(&mut self, idx: usize, id: u64) -> u64 {
        self.gens[idx] += 1;
        let generation = self.gens[idx];
        self.rows[idx].arm(id, generation);
        generation
    }

    /// Disarms `id` on node `idx`.
    pub fn cancel(&mut self, idx: usize, id: u64) {
        self.rows[idx].cancel(id);
    }

    /// Consumes a firing on node `idx` — see [`TimerRow::fire`].
    pub fn fire(&mut self, idx: usize, id: u64, generation: u64) -> bool {
        self.rows[idx].fire(id, generation)
    }

    /// Disarms everything on node `idx` (crash).
    pub fn clear_node(&mut self, idx: usize) {
        self.rows[idx].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rearm_supersedes() {
        let mut table = TimerTable::new(2);
        let g1 = table.arm(0, 7);
        let g2 = table.arm(0, 7);
        assert_ne!(g1, g2);
        assert!(!table.fire(0, 7, g1), "stale generation must not fire");
        assert!(table.fire(0, 7, g2));
        assert!(!table.fire(0, 7, g2), "a firing consumes the arming");
    }

    #[test]
    fn cancel_disarms() {
        let mut table = TimerTable::new(1);
        let g = table.arm(0, 3);
        table.cancel(0, 3);
        assert!(!table.fire(0, 3, g));
    }

    #[test]
    fn nodes_are_independent() {
        let mut table = TimerTable::new(2);
        let g0 = table.arm(0, 1);
        let g1 = table.arm(1, 1);
        table.clear_node(0);
        assert!(!table.fire(0, 1, g0));
        assert!(table.fire(1, 1, g1));
    }

    #[test]
    fn row_tracks_distinct_ids() {
        let mut row = TimerRow::new();
        row.arm(1, 10);
        row.arm(2, 11);
        assert_eq!(row.armed(), 2);
        assert!(row.is_live(1, 10));
        assert!(!row.is_live(1, 11));
        row.cancel(1);
        assert_eq!(row.armed(), 1);
        row.clear();
        assert_eq!(row.armed(), 0);
    }
}
