//! A small, deterministic discrete-event engine.
//!
//! The FRTR/PRTR executors of [`crate::executor`] use closed recurrences
//! because single-application schedules are linear; multi-application
//! runtimes (hardware virtualization, `hprc-virt`) need a real event
//! queue. Events are ordered by `(time, priority, insertion sequence)`, so
//! simulations are reproducible bit for bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A queued event: payload `E` at a time, with a tie-break priority
/// (lower value = served first at equal times).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry<E> {
    time: SimTime,
    priority: u8,
    seq: u64,
    payload: E,
}

impl<E: Eq> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.priority, self.seq).cmp(&(other.time, other.priority, other.seq))
    }
}

impl<E: Eq> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic event queue.
#[derive(Debug, Default)]
pub struct EventQueue<E: Eq> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
    // Default (no-op) counters unless built via `instrumented`.
    scheduled: hprc_obs::Counter,
    popped: hprc_obs::Counter,
}

impl<E: Eq> EventQueue<E> {
    /// An empty queue at t = 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue pre-sized for `capacity` pending events, so a
    /// caller that knows its peak occupancy (e.g. one in-flight event
    /// per application) never regrows the heap mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
            now: SimTime::ZERO,
            scheduled: hprc_obs::Counter::default(),
            popped: hprc_obs::Counter::default(),
        }
    }

    /// An empty queue whose traffic is counted in `registry` as
    /// `sim.queue.scheduled` / `sim.queue.popped`.
    pub fn instrumented(registry: &hprc_obs::Registry) -> Self {
        Self::instrumented_with_capacity(registry, 0)
    }

    /// [`EventQueue::instrumented`] with a pre-sized heap (see
    /// [`EventQueue::with_capacity`]).
    pub fn instrumented_with_capacity(registry: &hprc_obs::Registry, capacity: usize) -> Self {
        EventQueue {
            scheduled: registry.counter("sim.queue.scheduled"),
            popped: registry.counter("sim.queue.popped"),
            ..Self::with_capacity(capacity)
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at `time` with default priority.
    ///
    /// # Panics
    ///
    /// Panics when scheduling into the past (before the last popped
    /// event's time) — a logic error in the caller.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        self.schedule_with_priority(time, 128, payload);
    }

    /// Schedules with an explicit tie-break priority (lower = first).
    pub fn schedule_with_priority(&mut self, time: SimTime, priority: u8, payload: E) {
        assert!(time >= self.now, "cannot schedule into the past");
        self.heap.push(Reverse(Entry {
            time,
            priority,
            seq: self.seq,
            payload,
        }));
        self.seq += 1;
        self.scheduled.inc();
    }

    /// Pops the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.time;
        self.popped.inc();
        Some((e.time, e.payload))
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_ordered_by_priority_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule_with_priority(t(1.0), 200, "low1");
        q.schedule_with_priority(t(1.0), 10, "high");
        q.schedule_with_priority(t(1.0), 200, "low2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["high", "low1", "low2"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(t(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop().unwrap();
        assert_eq!(q.now(), t(5.0));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(5.0), ());
        q.pop();
        q.schedule(t(1.0), ());
    }

    #[test]
    fn instrumented_queue_counts_traffic() {
        let reg = hprc_obs::Registry::new();
        let mut q = EventQueue::instrumented(&reg);
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        q.pop().unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["sim.queue.scheduled"], 2);
        assert_eq!(snap.counters["sim.queue.popped"], 1);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let reg = hprc_obs::Registry::new();
        let mut q = EventQueue::instrumented_with_capacity(&reg, 16);
        q.schedule(t(2.0), "b");
        q.schedule(t(1.0), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(reg.snapshot().counters["sim.queue.scheduled"], 2);

        let mut p: EventQueue<u32> = EventQueue::with_capacity(8);
        p.schedule(t(1.0), 1);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn same_time_rescheduling_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), 1u32);
        q.pop();
        q.schedule(q.now(), 2u32); // immediate follow-up at the same time
        assert_eq!(q.pop().unwrap().1, 2);
    }
}
