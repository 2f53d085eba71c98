//! Belady's clairvoyant optimal replacement (MIN).

use std::collections::HashMap;

use crate::cache::{ConfigCache, TaskId};
use crate::policy::Policy;

/// The offline-optimal policy: evicts the resident configuration whose next
/// use lies farthest in the future (or never recurs). Requires the full
/// trace via [`Policy::observe_trace`]; it upper-bounds the hit ratio any
/// online policy can reach, which makes it the natural yardstick for the
/// paper's `H` parameter.
#[derive(Debug, Default, Clone)]
pub struct Belady {
    /// For each task, the sorted positions where it is called.
    occurrences: HashMap<TaskId, Vec<usize>>,
}

impl Belady {
    /// Creates the policy (feed it the trace with `observe_trace`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the first use of `task` strictly after `index`, or `None`.
    fn next_use(&self, task: TaskId, index: usize) -> Option<usize> {
        let occ = self.occurrences.get(&task)?;
        let pos = occ.partition_point(|&p| p <= index);
        occ.get(pos).copied()
    }
}

impl Policy for Belady {
    fn name(&self) -> &'static str {
        "belady"
    }

    fn observe_trace(&mut self, trace: &[TaskId]) {
        self.occurrences.clear();
        for (i, &t) in trace.iter().enumerate() {
            self.occurrences.entry(t).or_default().push(i);
        }
    }

    fn choose_victim(&mut self, cache: &ConfigCache, _task: TaskId, index: usize) -> usize {
        (0..cache.slot_count())
            .max_by_key(|&s| match cache.occupant(s) {
                // Never used again: infinitely far.
                Some(t) => self.next_use(t, index).unwrap_or(usize::MAX),
                None => usize::MAX,
            })
            .expect("cache has at least one slot")
    }

    fn on_access(&mut self, _task: TaskId, _slot: usize, _index: usize) {}

    fn delta_state(&self) -> Option<Vec<u8>> {
        // All of Belady's state is rebuilt by `observe_trace`, which
        // the restore path always replays first — nothing to encode.
        Some(Vec::new())
    }

    fn delta_restore(&mut self, state: &[u8]) -> bool {
        state.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_farthest_future_use() {
        let trace = vec![TaskId(0), TaskId(1), TaskId(2), TaskId(0), TaskId(1)];
        let mut p = Belady::new();
        p.observe_trace(&trace);
        let mut c = ConfigCache::new(2);
        c.load(0, TaskId(0)); // next use at 3
        c.load(1, TaskId(1)); // next use at 4
                              // At call index 2 (task 2 arrives): evict task 1 (used later).
        assert_eq!(p.choose_victim(&c, TaskId(2), 2), 1);
    }

    #[test]
    fn never_reused_tasks_are_preferred_victims() {
        let trace = vec![TaskId(0), TaskId(1), TaskId(2), TaskId(0)];
        let mut p = Belady::new();
        p.observe_trace(&trace);
        let mut c = ConfigCache::new(2);
        c.load(0, TaskId(0)); // reused at 3
        c.load(1, TaskId(1)); // never again
        assert_eq!(p.choose_victim(&c, TaskId(2), 1), 1);
    }
}
