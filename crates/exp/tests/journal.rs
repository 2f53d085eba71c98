//! Journal artifact tests: the committed golden journal pins the
//! longhand (`hprc-journal/v1`) bytes that `<id>.journal.jsonl` expands
//! to (drift fails here first, loudly), `--jobs` invariance holds at the
//! library level, and the header/footer carry the fields the `journal`
//! CLI relies on.

use hprc_obs::expand_jsonl;
use proptest::prelude::*;
use serde_json::Value;

const GOLDEN: &str = include_str!("golden/profiles.journal.jsonl");

#[test]
fn golden_profiles_journal_regenerates_byte_identically() {
    let v2 = hprc_exp::run_journaled("profiles", 0, 1).expect("profiles is a known id");
    let actual = expand_jsonl(&v2).expect("an export expands");
    assert_eq!(
        actual, GOLDEN,
        "profiles journal drifted from the committed golden; if the change is\n\
         intentional, regenerate with:\n\
         \x20 cargo run --release -p hprc-exp -- --trace /tmp/tr profiles\n\
         \x20 cargo run --release -p hprc-exp -- journal expand /tmp/tr/profiles.journal.jsonl \\\n\
         \x20   > crates/exp/tests/golden/profiles.journal.jsonl"
    );
}

#[test]
fn journal_is_jobs_invariant() {
    let j1 = hprc_exp::run_journaled("fig9a", 0, 1).expect("fig9a is a known id");
    let j4 = hprc_exp::run_journaled("fig9a", 0, 4).expect("fig9a is a known id");
    assert_eq!(j1, j4, "journal bytes must not depend on --jobs");
}

#[test]
fn run_journaled_rejects_unknown_ids() {
    assert!(hprc_exp::run_journaled("no-such-experiment", 0, 1).is_err());
}

#[test]
fn header_and_footer_carry_the_replay_contract() {
    let fresh = hprc_exp::run_journaled("profiles", 0, 1).expect("profiles is a known id");
    let header: Value = serde_json::from_str(fresh.lines().next().unwrap()).unwrap();
    assert_eq!(header["schema"].as_str().unwrap(), hprc_obs::JOURNAL_SCHEMA);
    for text in [GOLDEN, fresh.as_str()] {
        let mut lines = text.lines();
        let header: Value = serde_json::from_str(lines.next().unwrap()).unwrap();
        assert_eq!(header["experiment"].as_str().unwrap(), "profiles");
        assert_eq!(header["seed"].as_u64().unwrap(), 0);

        let footer_line = text.lines().last().unwrap();
        let footer: Value = serde_json::from_str(footer_line).unwrap();
        let account = &footer["account"];
        assert!(account["events"].as_u64().unwrap() > 0);
        assert_eq!(account["dropped"].as_u64().unwrap(), 0);
        assert!(account["sim_ns"].as_u64().unwrap() > 0);
        // The bytes field accounts for everything *before* the footer.
        let body_len = text.len() - footer_line.len() - 1; // trailing newline
        assert_eq!(account["bytes"].as_u64().unwrap() as usize, body_len);

        // Every line is standalone JSON (that is what makes it JSONL).
        for line in text.lines() {
            let v: Value = serde_json::from_str(line).expect("each journal line parses");
            assert!(v.as_object().is_some());
        }
    }
}

/// The preemption flow-kind vocabulary is additive: `preempt`, `save`,
/// and `restore` edges appear ONLY on preemptive schedules. The golden
/// non-preemptive journal must not contain them (its bytes are already
/// pinned verbatim above), and the `ext-preempt` journal must contain
/// all three.
#[test]
fn preemption_flow_vocabulary_is_additive() {
    for kind in ["preempt", "save", "restore"] {
        let needle = format!("\"kind\":\"{kind}\"");
        assert!(
            !GOLDEN.contains(&needle),
            "non-preemptive golden journal must not carry {kind:?} flows"
        );
    }
    let preemptive =
        hprc_exp::run_journaled("ext-preempt", 0, 1).expect("ext-preempt is a known id");
    for kind in ["preempt", "save", "restore"] {
        let needle = format!("\"kind\":\"{kind}\"");
        assert!(
            preemptive.contains(&needle),
            "ext-preempt journal must carry {kind:?} flows"
        );
    }
}

#[test]
fn ext_preempt_journal_is_jobs_invariant() {
    let j1 = hprc_exp::run_journaled("ext-preempt", 0, 1).expect("ext-preempt is a known id");
    let j4 = hprc_exp::run_journaled("ext-preempt", 0, 4).expect("ext-preempt is a known id");
    assert_eq!(j1, j4, "journal bytes must not depend on --jobs");
}

#[test]
fn journal_salt_separates_experiments_but_not_runs() {
    let a = hprc_exp::journal_salt("fig9a", 0);
    let b = hprc_exp::journal_salt("fig9b", 0);
    assert_ne!(a, b, "different experiments get different id namespaces");
    assert_eq!(a, hprc_exp::journal_salt("fig9a", 0), "stable across runs");
    assert_ne!(
        a,
        hprc_exp::journal_salt("fig9a", 1),
        "seed shifts the salt"
    );
}

/// The `summary` journal at seed 0: 898 lines, 16 of them `repeat`s.
fn summary_v2() -> &'static str {
    static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    TEXT.get_or_init(|| hprc_exp::run_journaled("summary", 0, 1).expect("summary is a known id"))
}

#[test]
fn a_journal_cut_at_any_line_is_an_error() {
    let text = summary_v2();
    assert!(text.contains(r#"{"ev":"repeat","#));
    assert!(expand_jsonl(text).is_ok());
    for (i, _) in text
        .match_indices('\n')
        .filter(|&(i, _)| i + 1 < text.len())
    {
        let err = expand_jsonl(&text[..=i]).unwrap_err();
        assert!(
            err.contains("truncated journal"),
            "cut after byte {i}: {err}"
        );
    }
}

proptest! {
    /// A journal cut at any byte offset — a torn write — is an error
    /// naming a line, never a panic.
    #[test]
    fn a_journal_cut_at_any_byte_is_an_error(k in 0..summary_v2().len()) {
        let err = expand_jsonl(&summary_v2()[..k]);
        prop_assert!(err.is_err_and(|e| e.starts_with("line ")), "cut at {k}");
    }

    /// A journal missing any one line no longer adds up to its footer:
    /// a record or a repeat gone changes the count, the header or the
    /// footer gone leaves no journal.
    #[test]
    fn a_journal_missing_a_line_is_an_error(gone in 0..summary_v2().lines().count()) {
        let without: String = summary_v2()
            .split_inclusive('\n')
            .enumerate()
            .filter(|&(i, _)| i != gone)
            .map(|(_, line)| line)
            .collect();
        let err = expand_jsonl(&without);
        prop_assert!(err.is_err_and(|e| e.starts_with("line ")), "line {gone} deleted");
    }
}
