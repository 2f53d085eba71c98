//! Property tests pinning the steady-state fast path to the reference
//! executors: for *any* call sequence — periodic, aperiodic, or
//! periodic-with-breaks — `run_frtr`/`run_prtr` must be observably
//! indistinguishable from `run_frtr_reference`/`run_prtr_reference`:
//! same totals, same per-call timings, same RLE-expanded timeline, and
//! bit-identical metrics (counters, histograms, gauges).

use hprc_ctx::{ExecCtx, Symbol};
use hprc_fpga::floorplan::Floorplan;
use hprc_obs::Registry;
use hprc_sim::executor::{
    run_frtr, run_frtr_reference, run_prtr, run_prtr_reference, ExecutionReport,
};
use hprc_sim::node::NodeConfig;
use hprc_sim::task::{PrtrCall, TaskCall};
use proptest::prelude::*;

/// One call archetype: everything that determines a call's durations.
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

/// Call sequences biased toward the interesting regimes: fully random
/// (fast path mostly idle), strictly periodic (single long jump), and
/// periodic with an aperiodic interruption (jump must re-arm).
fn sequence() -> impl Strategy<Value = Vec<Template>> {
    (
        0..3u8,
        proptest::collection::vec(template(), 1..120),
        proptest::collection::vec(template(), 1..6),
        2..40usize,
        template(),
        2..20usize,
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

fn assert_equivalent(
    fast: &ExecutionReport,
    reference: &ExecutionReport,
    fctx: &ExecCtx,
    rctx: &ExecCtx,
) {
    assert_eq!(fast.total, reference.total);
    assert_eq!(fast.n_config, reference.n_config);
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prtr_fast_path_is_equivalent(
        seq in sequence(),
        estimated in any::<bool>(),
        waits in any::<bool>(),
    ) {
        let node = node(estimated, waits);
        let calls: Vec<PrtrCall> = seq
            .iter()
            .map(|t| PrtrCall {
                task: TaskCall {
                    name: Symbol::from(t.name.as_str()),
                    bytes_in: t.bytes_in,
                    bytes_out: t.bytes_out,
                },
                hit: t.hit,
                slot: t.slot % node.n_prrs,
            })
            .collect();
        let fctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(hprc_obs::Journal::new(7));
        let rctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(hprc_obs::Journal::new(7));
        let fast = run_prtr(&node, &calls, &fctx).unwrap();
        let reference = run_prtr_reference(&node, &calls, &rctx).unwrap();
        assert_equivalent(&fast, &reference, &fctx, &rctx);
    }

    #[test]
    fn frtr_fast_path_is_equivalent(
        seq in sequence(),
        estimated in any::<bool>(),
        waits in any::<bool>(),
    ) {
        let node = node(estimated, waits);
        let calls: Vec<TaskCall> = seq
            .iter()
            .map(|t| TaskCall {
                name: Symbol::from(t.name.as_str()),
                bytes_in: t.bytes_in,
                bytes_out: t.bytes_out,
            })
            .collect();
        let fctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(hprc_obs::Journal::new(7));
        let rctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(hprc_obs::Journal::new(7));
        let fast = run_frtr(&node, &calls, &fctx).unwrap();
        let reference = run_frtr_reference(&node, &calls, &rctx).unwrap();
        assert_equivalent(&fast, &reference, &fctx, &rctx);
    }

    /// Long strictly-periodic sequences must actually compress: the RLE
    /// timeline stores far fewer items than it expands to.
    #[test]
    fn periodic_sequences_compress(
        pattern in proptest::collection::vec(template(), 1..4),
        reps in 30..60usize,
    ) {
        let node = node(false, false);
        let calls: Vec<PrtrCall> = (0..reps)
            .flat_map(|_| pattern.iter())
            .map(|t| PrtrCall {
                task: TaskCall {
                    name: Symbol::from(t.name.as_str()),
                    bytes_in: t.bytes_in,
                    bytes_out: t.bytes_out,
                },
                hit: t.hit,
                slot: t.slot % node.n_prrs,
            })
            .collect();
        let fast = run_prtr(&node, &calls, &ExecCtx::default()).unwrap();
        // Detection costs at most two warm-up periods plus the jump
        // block; well under half the expanded run for >= 30 reps.
        prop_assert!(
            fast.timeline.n_items() < fast.timeline.len() as usize / 2,
            "{} items for {} events",
            fast.timeline.n_items(),
            fast.timeline.len()
        );
    }
}
