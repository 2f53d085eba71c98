//! Edge cases at the cache/fault boundary: clearing empty slots, and
//! graceful degradation to pure FRTR once every PRR is blacklisted.

use hprc_ctx::ExecCtx;
use hprc_fault::{FaultPlan, FaultSpec, RecoveryPolicy};
use hprc_sched::{simulate_faulty, ConfigCache, TaskId};

#[test]
fn clear_slot_on_already_empty_slot_is_a_stable_noop() {
    let mut cache = ConfigCache::new(3);
    // Never loaded: clearing is a no-op, repeatedly, in and out of range.
    assert_eq!(cache.clear_slot(1), None);
    assert_eq!(cache.clear_slot(1), None);
    assert_eq!(cache.clear_slot(usize::MAX), None);
    // Load-clear-clear: second clear still a no-op, state fully empty.
    cache.load(1, TaskId(7));
    assert_eq!(cache.clear_slot(1), Some(TaskId(7)));
    assert_eq!(cache.clear_slot(1), None);
    assert_eq!(cache.empty_slot(), Some(0));
    assert_eq!(cache.clear(), 0);
}

#[test]
fn all_prrs_blacklisted_degrades_to_frtr_without_panicking() {
    // Certain partial-path faults escalate every call; blacklist_after=1
    // blacklists a PRR on its first escalation. With every PRR
    // blacklisted, the run-to-completion loop must keep going on the
    // forced-full (FRTR) path rather than panic.
    let spec = FaultSpec {
        p_crc: 1.0,
        ..FaultSpec::default()
    };
    let policy = RecoveryPolicy {
        blacklist_after: 1,
        ..RecoveryPolicy::default()
    };
    let plan = FaultPlan::new(spec, policy, 9);

    let trace: Vec<TaskId> = (0..30).map(|i| TaskId(i % 3)).collect();
    let out = simulate_faulty(
        &trace,
        2,
        &mut hprc_sched::policies::Lru::new(),
        false,
        &plan,
        &ExecCtx::default(),
    );
    assert_eq!(out.blacklisted_slots, 2, "every PRR ends blacklisted");
    assert_eq!(out.base.stats.calls, 30);
}
