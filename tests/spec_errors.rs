//! Golden tests for spec-file diagnostics: a malformed `.dlk` line must
//! be reported with its 1-based line number AND the offending line's
//! text, in a stable human-readable shape — this is the error surface
//! `dlk run`/`dlk sweep`/`dlk serve` print to operators, so the exact
//! rendering is part of the CLI contract.

use dram_locker::memctrl::TraceOp;
use dram_locker::sim::{AttackSpec, ScenarioSpec};

fn parse_err(source: &str) -> String {
    ScenarioSpec::from_text(source).expect_err("spec must be rejected").to_string()
}

#[test]
fn unknown_record_names_the_line_and_quotes_it() {
    let err = parse_err("# dlk-scenario v1\nbogus record\n");
    assert_eq!(err, "spec parse: line 2: unknown record 'bogus'\n  2 | bogus record");
}

#[test]
fn bad_number_points_at_the_offending_line() {
    let err = parse_err("# dlk-scenario v1\nlabel x\nattack hammer bit=nope\n");
    assert_eq!(err, "spec parse: line 3: bad number 'nope'\n  3 | attack hammer bit=nope");
}

#[test]
fn a_signed_number_is_a_bad_number() {
    let err = parse_err("# dlk-scenario v1\nlabel x\nattack hammer bit=+5\n");
    assert_eq!(err, "spec parse: line 3: bad number '+5'\n  3 | attack hammer bit=+5");
}

#[test]
fn a_signed_channel_count_is_a_bad_engine_config() {
    let err = parse_err("label x\nengine sharded(+2)\n");
    assert_eq!(
        err,
        "spec parse: line 2: bad engine config 'sharded(+2)' (serial | sharded(n) | \
         serial-ref(n))\n  2 | engine sharded(+2)"
    );
}

/// An `op` record's numbers take the spec's own grammar: decimal or
/// `0x` hex, no sign and no `0X`.
#[test]
fn op_numbers_take_the_spec_number_grammar() {
    for addr in ["+16", "0x+10", "0X10"] {
        let err = parse_err(&format!("label t\nattack replay-trace untrusted=0\nop R {addr} 1\n"));
        assert_eq!(
            err,
            format!(
                "spec parse: line 3: embedded trace: address is not a number\n  3 | op R {addr} 1"
            )
        );
    }
    let err = parse_err("label t\nattack replay-trace untrusted=0\nop R 0x0 +1\n");
    assert_eq!(
        err,
        "spec parse: line 3: embedded trace: read length is not a number\n  3 | op R 0x0 +1"
    );
}

#[test]
fn missing_field_is_reported_with_line_context() {
    let err = parse_err("# dlk-scenario v1\nlabel x\nvictim rows home=0\n");
    assert_eq!(err, "spec parse: line 3: missing field 'protect'\n  3 | victim rows home=0");
}

#[test]
fn unknown_and_repeated_fields_are_named_in_one_error() {
    let err = parse_err("# dlk-scenario v1\nlabel x\nattack hammer bit=77 rate=0.5 bit=3\n");
    assert_eq!(
        err,
        "spec parse: line 3: unknown field 'rate', repeated field 'bit'\n  \
         3 | attack hammer bit=77 rate=0.5 bit=3"
    );
    // Every `key=value` record kind takes only its own keys, once.
    for (records, reason) in [
        ("budget activations=1 check=1 iterations=1 check=2", "repeated field 'check'"),
        ("victim rows home=0 protect=0 first=1 count=1 fill=0 seed=3", "unknown field 'seed'"),
        ("attack replay-trace untrusted=0 untrusted=1", "repeated field 'untrusted'"),
        ("attack replay bit=1", "unknown field 'bit'"),
        (
            "attack replay\ntenant sequential base=0 len=8 count=1 stride=4",
            "unknown field 'stride'",
        ),
        ("defense graphene capacity=64 threshold=8 radius=1", "unknown field 'radius'"),
    ] {
        let err = parse_err(&format!("label x\n{records}\n"));
        let line = 1 + records.lines().count();
        let last = records.lines().last().unwrap();
        assert_eq!(err, format!("spec parse: line {line}: {reason}\n  {line} | {last}"));
    }
    // A record longer than any kind takes fails before it is read.
    let long = format!("attack hammer{}", " bit=1".repeat(17));
    let err = parse_err(&format!("{long}\n"));
    assert_eq!(
        err,
        format!("spec parse: line 1: 17 fields, more than any record takes\n  1 | {long}")
    );
}

#[test]
fn line_numbers_survive_leading_comments_and_blanks() {
    let err = parse_err("# dlk-scenario v1\n\n# a comment\n\nbudget activations=\n");
    assert!(
        err.starts_with("spec parse: line 5: "),
        "line number must count comments and blanks: {err}"
    );
    assert!(err.ends_with("  5 | budget activations="), "must quote the line: {err}");
}

#[test]
fn list_parse_errors_keep_whole_file_line_numbers() {
    // Two concatenated specs; the typo is in the SECOND chunk, and the
    // reported line number must still be file-absolute.
    let good = dram_locker::sim::catalog()[0].spec.to_text();
    let good_lines = good.trim_end().lines().count();
    let source = format!("{good}label second\nattack hammer bit=oops\n");
    let err = ScenarioSpec::list_from_text(&source).expect_err("second chunk must fail");
    let expected_line = good_lines + 2;
    assert_eq!(
        err.to_string(),
        format!(
            "spec parse: line {expected_line}: bad number 'oops'\n  \
             {expected_line} | attack hammer bit=oops"
        )
    );
}

/// A recorded-trace block whose second `op` record (line 4) carries an
/// odd-length payload.
const BAD_OP_BLOCK: &str = "attack replay-trace untrusted=0\nop R 0x0 1\nop W 0x8 abc\n";

#[test]
fn embedded_trace_errors_name_and_quote_the_op_line() {
    let err = parse_err(&format!("label t\n{BAD_OP_BLOCK}"));
    assert_eq!(
        err,
        "spec parse: line 4: embedded trace: payload is not even-length hex\n  4 | op W 0x8 abc"
    );
}

#[test]
fn embedded_trace_errors_keep_whole_file_line_numbers_in_a_list() {
    let good = dram_locker::sim::catalog()[0].spec.to_text();
    let bad_line = good.lines().count() + 4;
    let source = format!("{good}label second\n{BAD_OP_BLOCK}");
    let err = ScenarioSpec::list_from_text(&source).expect_err("second chunk must fail");
    assert_eq!(
        err.to_string(),
        format!(
            "spec parse: line {bad_line}: embedded trace: payload is not even-length hex\n  \
             {bad_line} | op W 0x8 abc"
        )
    );
}

#[test]
fn an_op_line_holds_one_trace_record_and_cannot_set_the_trust_flag() {
    let err =
        parse_err("label t\nattack replay-trace untrusted=0\nop # dlk-trace v1 untrusted=1\n");
    assert_eq!(
        err,
        "spec parse: line 3: embedded trace: unknown record kind '#', expected R or W\n  \
         3 | op # dlk-trace v1 untrusted=1"
    );
    // A bare `op` line still holds no record.
    let spec = ScenarioSpec::from_text("attack replay-trace untrusted=0\nop\nop R 0x0 1\n")
        .expect("a bare op line parses");
    match spec.attack {
        Some(AttackSpec::ReplayTrace { trace }) => {
            assert_eq!(trace.ops(), [TraceOp::Read { addr: 0, len: 1 }]);
            assert!(!trace.untrusted);
        }
        other => panic!("expected a replay-trace attack, got {other:?}"),
    }
}

#[test]
fn missing_spec_file_reports_the_path() {
    let err = ScenarioSpec::from_file(std::path::Path::new("/nonexistent/specs/x.dlk"))
        .expect_err("missing file must error");
    let text = err.to_string();
    assert!(
        text.starts_with("io: /nonexistent/specs/x.dlk: "),
        "io errors must carry the path: {text}"
    );
}
