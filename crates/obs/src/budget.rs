//! Deterministic per-run resource budgets.
//!
//! A [`RunBudget`] bounds how much *simulated* work one run may perform:
//! a maximum number of charged events (calls, quanta, periodic tasks),
//! charged through [`RunBudget::admit`]. Exhaustion is a pure function
//! of the charge sequence — every charged step advances a logical
//! sequence number, and the first refused step pins
//! [`cutoff_seq`](RunBudget::cutoff_seq) — so
//! a budget-capped run cuts off at the *same* logical sequence number on
//! every rerun, at any `--jobs`. Work refused after the cutoff is
//! tallied as `would_have_run`, the honesty counter that lets a capped
//! artifact say exactly what it did not explore.
//!
//! Like [`Registry`](crate::Registry) and [`Journal`](crate::Journal),
//! the default [`RunBudget::unlimited`] handle is a `None`: every charge
//! is a single branch, so the hooks are free to leave in hot paths.
//! Clones share the underlying state.
//!
//! Determinism discipline: a budget handle must only be charged from
//! one logical stream (one node, one run). Parallel fan-outs split a
//! budget *before* dispatch ([`RunBudget::split_events`]) so no two
//! workers ever race on one sequence counter, then fold the per-shard
//! [`BudgetAccount`]s back together with [`BudgetAccount::absorb`] in
//! index order.

use std::sync::Arc;

use parking_lot::Mutex;
use serde::Serialize;

/// The final accounting of one (or one merged set of) [`RunBudget`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct BudgetAccount {
    /// Event cap, if one was set (summed across merged accounts).
    pub max_events: Option<u64>,
    /// Events actually charged.
    pub charged_events: u64,
    /// Events refused after exhaustion — the work a capped run skipped.
    pub would_have_run: u64,
    /// Logical sequence number of the first refused charge, if the
    /// budget was ever exhausted. For merged accounts this is the
    /// *earliest* per-shard cutoff.
    pub cutoff_seq: Option<u64>,
    /// How many budgets in this account hit their cutoff (1 for a
    /// single exhausted budget; the capped-shard count after a merge).
    pub runs_cut: u64,
}

impl BudgetAccount {
    /// Folds another account into this one (index-order merge after a
    /// split fan-out): caps and charges add, `cutoff_seq` keeps the
    /// earliest, `runs_cut` counts every exhausted shard.
    pub fn absorb(&mut self, other: &BudgetAccount) {
        self.max_events = match (self.max_events, other.max_events) {
            (None, None) => None,
            (x, y) => Some(x.unwrap_or(0) + y.unwrap_or(0)),
        };
        self.charged_events += other.charged_events;
        self.would_have_run += other.would_have_run;
        self.cutoff_seq = match (self.cutoff_seq, other.cutoff_seq) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.runs_cut += other.runs_cut;
    }
}

#[derive(Debug)]
struct BudgetState {
    max_events: u64,
    charged_events: u64,
    would: u64,
    seq: u64,
    cutoff_seq: Option<u64>,
}

/// Handle to a deterministic run budget (or the free unlimited
/// stand-in). See the module docs for the charge/split discipline.
#[derive(Debug, Clone, Default)]
pub struct RunBudget(Option<Arc<Mutex<BudgetState>>>);

impl RunBudget {
    /// The unlimited budget: every charge succeeds, nothing is tracked,
    /// every operation is a single branch.
    pub fn unlimited() -> Self {
        RunBudget(None)
    }

    /// A budget capped at `max` charged events.
    pub fn events(max: u64) -> Self {
        RunBudget(Some(Arc::new(Mutex::new(BudgetState {
            max_events: max,
            charged_events: 0,
            would: 0,
            seq: 0,
            cutoff_seq: None,
        }))))
    }

    /// Whether this handle enforces any cap.
    pub fn is_limited(&self) -> bool {
        self.0.is_some()
    }

    /// Splits an event cap across `n` shards for a parallel fan-out:
    /// shard `i` gets `total / n`, with the remainder distributed one
    /// event each to the lowest-index shards. Each shard has its own
    /// sequence counter, so exhaustion stays deterministic at any
    /// worker interleaving.
    pub fn split_events(total: u64, n: usize) -> Vec<RunBudget> {
        let n = n.max(1);
        let base = total / n as u64;
        let extra = (total % n as u64) as usize;
        (0..n)
            .map(|i| RunBudget::events(base + u64::from(i < extra)))
            .collect()
    }

    /// Charges up to `n` single-event steps, each advancing the logical
    /// sequence number by one, and returns how many were admitted; the
    /// refused tail is tallied as would-have-run, and the first refused
    /// step pins the cutoff. This is the one charge hook, for call,
    /// quantum and task loops: run the first `admit(n)` units, skip the
    /// rest.
    pub fn admit(&self, n: usize) -> usize {
        let Some(cell) = &self.0 else {
            return n;
        };
        let mut s = cell.lock();
        let mut admitted = 0usize;
        for _ in 0..n {
            s.seq += 1;
            if s.charged_events < s.max_events {
                s.charged_events += 1;
                admitted += 1;
            } else {
                s.cutoff_seq = s.cutoff_seq.or(Some(s.seq));
                s.would += 1;
            }
        }
        admitted
    }

    /// True once any charge has been refused.
    pub fn exhausted(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|c| c.lock().cutoff_seq.is_some())
    }

    /// The logical sequence number of the first refused charge.
    pub fn cutoff_seq(&self) -> Option<u64> {
        self.0.as_ref().and_then(|c| c.lock().cutoff_seq)
    }

    /// The current accounting (`None` for an unlimited handle).
    pub fn account(&self) -> Option<BudgetAccount> {
        let cell = self.0.as_ref()?;
        let s = cell.lock();
        Some(BudgetAccount {
            max_events: Some(s.max_events),
            charged_events: s.charged_events,
            would_have_run: s.would,
            cutoff_seq: s.cutoff_seq,
            runs_cut: u64::from(s.cutoff_seq.is_some()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_free_and_always_admits() {
        let b = RunBudget::unlimited();
        assert!(!b.is_limited());
        assert_eq!(b.admit(12345), 12345);
        assert!(!b.exhausted());
        assert_eq!(b.cutoff_seq(), None);
        assert_eq!(b.account(), None);
    }

    #[test]
    fn event_budget_cuts_at_an_exact_sequence_number() {
        let run = || {
            let b = RunBudget::events(5);
            let admitted = b.admit(9);
            (admitted, b.cutoff_seq(), b.account().unwrap())
        };
        let (admitted, cutoff, acct) = run();
        assert_eq!(admitted, 5);
        assert_eq!(cutoff, Some(6), "first refusal is step 6");
        assert_eq!(acct.charged_events, 5);
        assert_eq!(acct.would_have_run, 4);
        assert_eq!(acct.runs_cut, 1);
        // Reruns cut at the same logical sequence number.
        assert_eq!(run(), (admitted, cutoff, acct));
    }

    #[test]
    fn clones_share_state() {
        let b = RunBudget::events(3);
        let c = b.clone();
        assert_eq!(c.admit(2), 2);
        assert_eq!(b.admit(2), 1, "the clone spent 2 of the 3");
        assert!(b.exhausted() && c.exhausted());
    }

    #[test]
    fn split_events_distributes_the_remainder_low_index_first() {
        let shards = RunBudget::split_events(10, 4);
        let caps: Vec<u64> = shards
            .iter()
            .map(|s| s.account().unwrap().max_events.unwrap())
            .collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
        assert_eq!(caps.iter().sum::<u64>(), 10);
    }

    #[test]
    fn absorb_folds_accounts_in_index_order() {
        let shards = RunBudget::split_events(4, 2);
        shards[0].admit(5); // cap 2: cut at seq 3
        shards[1].admit(2); // cap 2: never cut
        let mut total = BudgetAccount::default();
        for s in &shards {
            total.absorb(&s.account().unwrap());
        }
        assert_eq!(total.max_events, Some(4));
        assert_eq!(total.charged_events, 4);
        assert_eq!(total.would_have_run, 3);
        assert_eq!(total.cutoff_seq, Some(3));
        assert_eq!(total.runs_cut, 1);
    }
}
