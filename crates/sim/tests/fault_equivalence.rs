//! Property tests extending the fast==reference equivalence guarantee to
//! faulty runs: for *any* call sequence and *any* seeded fault plan,
//! `run_frtr_faulty`/`run_prtr_faulty` must be observably
//! indistinguishable from their reference counterparts — same totals,
//! same per-call timings, same drop counts, same RLE-expanded timeline,
//! and bit-identical metrics. Also pins the zero-probability identity
//! (a disarmed plan is byte-for-byte the clean executor) and the
//! certain-fault extreme (everything drops, nothing panics).

use hprc_ctx::{ExecCtx, Symbol};
use hprc_fault::{FaultPlan, FaultSpec, RecoveryPolicy};
use hprc_fpga::floorplan::Floorplan;
use hprc_obs::Registry;
use hprc_sim::executor::{
    run_frtr, run_frtr_faulty, run_frtr_faulty_reference, run_prtr, run_prtr_faulty,
    run_prtr_faulty_reference, ExecutionReport,
};
use hprc_sim::node::NodeConfig;
use hprc_sim::task::{PrtrCall, TaskCall};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Template {
    name: String,
    bytes_in: u64,
    bytes_out: u64,
    hit: bool,
    slot: usize,
}

fn template() -> impl Strategy<Value = Template> {
    (
        0..4u8,
        0..500_000u64,
        0..500_000u64,
        any::<bool>(),
        0..2usize,
    )
        .prop_map(|(name, bytes_in, bytes_out, hit, slot)| Template {
            name: format!("task{name}"),
            bytes_in,
            bytes_out,
            hit,
            slot,
        })
}

/// Same three regimes as `fast_path_equivalence`: random, strictly
/// periodic, and periodic with an aperiodic interruption. Faults make
/// the periodic cases the interesting ones — a fault mid-period must
/// break the jump and re-arm afterwards.
fn sequence() -> impl Strategy<Value = Vec<Template>> {
    (
        0..3u8,
        proptest::collection::vec(template(), 1..80),
        proptest::collection::vec(template(), 1..6),
        2..30usize,
        template(),
        2..15usize,
    )
        .prop_map(
            |(mode, random, pattern, reps_a, oddball, reps_b)| match mode {
                0 => random,
                1 => {
                    let mut out = Vec::with_capacity(pattern.len() * reps_a);
                    for _ in 0..reps_a {
                        out.extend(pattern.iter().cloned());
                    }
                    out
                }
                _ => {
                    let mut out = Vec::new();
                    for _ in 0..reps_a {
                        out.extend(pattern.iter().cloned());
                    }
                    out.push(oddball);
                    for _ in 0..reps_b {
                        out.extend(pattern.iter().cloned());
                    }
                    out
                }
            },
        )
}

/// Fault plans spanning the whole regime: disarmed, rare, common, and
/// near-certain faults, with varied recovery budgets.
fn plan() -> impl Strategy<Value = FaultPlan> {
    (0..4u8, 0.0..1.0f64, any::<u64>(), 1..4u32, 1..3u32, 1..4u32).prop_map(
        |(regime, u, seed, max_partial, max_full, blacklist_after)| {
            let rate = match regime {
                0 => 0.0,
                1 => 0.001 + u * 0.049,
                2 => 0.05 + u * 0.35,
                _ => 0.9 + u * 0.0999,
            };
            let policy = RecoveryPolicy {
                max_partial_attempts: max_partial,
                max_full_attempts: max_full,
                blacklist_after,
                ..RecoveryPolicy::default()
            };
            FaultPlan::new(FaultSpec::uniform(rate), policy, seed)
        },
    )
}

fn node(estimated: bool, waits: bool) -> NodeConfig {
    let fp = Floorplan::xd1_dual_prr();
    let mut node = if estimated {
        NodeConfig::xd1_estimated(&fp)
    } else {
        NodeConfig::xd1_measured(&fp)
    };
    node.config_waits_for_data_input = waits;
    node
}

fn prtr_calls(seq: &[Template], node: &NodeConfig) -> Vec<PrtrCall> {
    seq.iter()
        .map(|t| PrtrCall {
            task: TaskCall {
                name: Symbol::from(t.name.as_str()),
                bytes_in: t.bytes_in,
                bytes_out: t.bytes_out,
            },
            hit: t.hit,
            slot: t.slot % node.n_prrs,
        })
        .collect()
}

fn frtr_calls(seq: &[Template]) -> Vec<TaskCall> {
    seq.iter()
        .map(|t| TaskCall {
            name: Symbol::from(t.name.as_str()),
            bytes_in: t.bytes_in,
            bytes_out: t.bytes_out,
        })
        .collect()
}

fn assert_equivalent(
    fast: &ExecutionReport,
    reference: &ExecutionReport,
    fctx: &ExecCtx,
    rctx: &ExecCtx,
) {
    assert_eq!(fast.total, reference.total);
    assert_eq!(fast.n_config, reference.n_config);
    assert_eq!(fast.n_dropped, reference.n_dropped);
    assert_eq!(fast.calls, reference.calls);
    let a: Vec<_> = fast.timeline.iter().collect();
    let b: Vec<_> = reference.timeline.iter().collect();
    assert_eq!(a, b, "expanded timelines must match event-for-event");
    assert_eq!(fast.timeline.len(), reference.timeline.len());
    let fsnap = fctx.registry.snapshot();
    let rsnap = rctx.registry.snapshot();
    assert_eq!(fsnap.counters, rsnap.counters);
    assert_eq!(fsnap.histograms, rsnap.histograms);
    use serde::Serialize;
    assert_eq!(
        fsnap.to_json_value()["gauges"].to_string(),
        rsnap.to_json_value()["gauges"].to_string()
    );
    // The causal journal must match too: the fast path's repeats expand
    // to the same ids, parents, flows, and times the reference path
    // would mint, and to the reference's longhand bytes.
    assert_eq!(fctx.journal.records(), rctx.journal.records());
    let fast_text = fctx.journal.to_jsonl("equiv", 0);
    let ref_text = rctx.journal.to_jsonl("equiv", 0);
    assert_eq!(
        hprc_obs::expand_jsonl(&fast_text),
        hprc_obs::expand_jsonl(&ref_text),
        "journal JSONL must expand to the reference bytes"
    );
    assert!(
        fast_text.len() <= ref_text.len(),
        "a repeat line is never longer than the copies it stands for"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn faulty_prtr_fast_path_is_equivalent(
        seq in sequence(),
        plan in plan(),
        estimated in any::<bool>(),
        waits in any::<bool>(),
    ) {
        let node = node(estimated, waits);
        let calls = prtr_calls(&seq, &node);
        let fctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(hprc_obs::Journal::new(7));
        let rctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(hprc_obs::Journal::new(7));
        let fast = run_prtr_faulty(&node, &calls, &plan, &fctx).unwrap();
        let reference = run_prtr_faulty_reference(&node, &calls, &plan, &rctx).unwrap();
        assert_equivalent(&fast, &reference, &fctx, &rctx);
    }

    #[test]
    fn faulty_frtr_fast_path_is_equivalent(
        seq in sequence(),
        plan in plan(),
        estimated in any::<bool>(),
        waits in any::<bool>(),
    ) {
        let node = node(estimated, waits);
        let calls = frtr_calls(&seq);
        let fctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(hprc_obs::Journal::new(7));
        let rctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(hprc_obs::Journal::new(7));
        let fast = run_frtr_faulty(&node, &calls, &plan, &fctx).unwrap();
        let reference = run_frtr_faulty_reference(&node, &calls, &plan, &rctx).unwrap();
        assert_equivalent(&fast, &reference, &fctx, &rctx);
    }

    /// All-probabilities-zero identity: with every probability at 0.0
    /// (or the plan disarmed outright) the faulty executors are
    /// byte-for-byte the clean executors — timelines, reports, metrics.
    #[test]
    fn zero_probability_plans_are_the_clean_executors(
        seq in sequence(),
        seed in any::<u64>(),
        armed_zero in any::<bool>(),
    ) {
        let node = node(false, false);
        let plan = if armed_zero {
            // Armed object, all probabilities zero: still must take the
            // exact clean path (armed() is false for a zero spec).
            FaultPlan::new(FaultSpec::default(), RecoveryPolicy::default(), seed)
        } else {
            FaultPlan::disarmed()
        };

        let calls = prtr_calls(&seq, &node);
        let cctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(hprc_obs::Journal::new(7));
        let fctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(hprc_obs::Journal::new(7));
        let clean = run_prtr(&node, &calls, &cctx).unwrap();
        let faulty = run_prtr_faulty(&node, &calls, &plan, &fctx).unwrap();
        prop_assert_eq!(&clean, &faulty);
        assert_equivalent(&faulty, &clean, &fctx, &cctx);

        let calls = frtr_calls(&seq);
        let cctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(hprc_obs::Journal::new(7));
        let fctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(hprc_obs::Journal::new(7));
        let clean = run_frtr(&node, &calls, &cctx).unwrap();
        let faulty = run_frtr_faulty(&node, &calls, &plan, &fctx).unwrap();
        prop_assert_eq!(&clean, &faulty);
        assert_equivalent(&faulty, &clean, &fctx, &cctx);
    }

    /// Certain faults everywhere: every configuration chain exhausts its
    /// retries and drops; the executors must degrade gracefully — report
    /// every call, configure nothing, and never panic.
    #[test]
    fn certain_faults_never_panic(
        seq in sequence(),
        seed in any::<u64>(),
    ) {
        let node = node(false, false);
        let spec = FaultSpec {
            p_crc: 1.0,
            p_icap_timeout: 1.0,
            p_api_transfer: 1.0,
            p_activation: 1.0,
            p_seu: 1.0,
        };
        let plan = FaultPlan::new(spec, RecoveryPolicy::default(), seed);

        let calls = prtr_calls(&seq, &node);
        let n_miss = calls.iter().filter(|c| !c.hit).count() as u64;
        let report = run_prtr_faulty(&node, &calls, &plan, &ExecCtx::default()).unwrap();
        prop_assert_eq!(report.calls.len(), calls.len());
        prop_assert_eq!(report.n_dropped, n_miss);
        prop_assert_eq!(report.n_config, 0);

        let calls = frtr_calls(&seq);
        let report = run_frtr_faulty(&node, &calls, &plan, &ExecCtx::default()).unwrap();
        prop_assert_eq!(report.calls.len(), calls.len());
        prop_assert_eq!(report.n_dropped, calls.len() as u64);
        prop_assert_eq!(report.n_config, 0);
    }
}
