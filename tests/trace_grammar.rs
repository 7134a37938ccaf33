//! The trace-record grammar, pinned row by row.
//!
//! `TraceOp::parse_record` and a spec file's `op` lines must give
//! exactly these ops and error texts — whitespace of every kind, both
//! hex cases, both number forms, overflow by one digit, malformed
//! payloads and missing or extra fields — and generated traces must
//! round-trip through the trace-file codec and through a spec list.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dram_locker::memctrl::{Trace, TraceOp};
use dram_locker::sim::{AttackSpec, DefenseSpec, ScenarioSpec};

fn read(addr: u64, len: usize) -> TraceOp {
    TraceOp::Read { addr, len }
}

fn write(addr: u64, payload: &[u8]) -> TraceOp {
    TraceOp::Write { addr, payload: payload.to_vec() }
}

/// Each record with the op `TraceOp::parse_record` reads from it, or
/// its exact error text.
fn record_rows() -> Vec<(&'static str, Result<TraceOp, &'static str>)> {
    const ADDR: &str = "address is not a number";
    const LEN: &str = "read length is not a number";
    const HEX: &str = "payload is not even-length hex";
    vec![
        ("R 0x10 4", Ok(read(0x10, 4))),
        ("W 0x2040 0aff00", Ok(write(0x2040, &[0x0a, 0xff, 0x00]))),
        ("W 0x40 -", Ok(write(0x40, &[]))),
        // Separators: tabs, runs of spaces, CRLF, VT/FF, Unicode spaces.
        ("R\t0x10\t4", Ok(read(0x10, 4))),
        ("R   0x10     4", Ok(read(0x10, 4))),
        ("R 0x10 4\r\n", Ok(read(0x10, 4))),
        ("R\x0b0x10\x0c4", Ok(read(0x10, 4))),
        ("  R 0x10 4  ", Ok(read(0x10, 4))),
        ("\tW 0x8 00ff\t", Ok(write(8, &[0x00, 0xff]))),
        ("R\u{3000}0x10\u{3000}4", Ok(read(0x10, 4))),
        ("R\u{a0}0x1\u{2003}4\u{85}", Ok(read(1, 4))),
        // Number and payload forms.
        ("R 0xABCDEF 4", Ok(read(0xab_cdef, 4))),
        ("W 0x10 ABCDEF", Ok(write(0x10, &[0xab, 0xcd, 0xef]))),
        ("W 0X10 aBcD", Err(ADDR)),
        ("W 0x10 aBcD", Ok(write(0x10, &[0xab, 0xcd]))),
        ("R 4096 4", Ok(read(4096, 4))),
        ("R 0x0 0x20", Ok(read(0, 32))),
        ("R 0x00 00", Ok(read(0, 0))),
        ("R 18446744073709551615 0xffffffffffffffff", Ok(read(u64::MAX, usize::MAX))),
        ("R 0xFFFFFFFFFFFFFFFF 18446744073709551615", Ok(read(u64::MAX, usize::MAX))),
        ("R +5 1", Err(ADDR)),
        ("R 0x0 +5", Err(LEN)),
        ("R -5 1", Err(ADDR)),
        ("R 0x+5 1", Err(ADDR)),
        ("R 0x 1", Err(ADDR)),
        ("R 0x1g 1", Err(ADDR)),
        ("R 1e3 1", Err(ADDR)),
        ("R 5_000 1", Err(ADDR)),
        ("R 0x1\u{200b}4", Err(ADDR)),
        // 17 hex and 21 decimal digits: too big unless leading zeros.
        ("R 0x10000000000000000 1", Err(ADDR)),
        ("R 0x00000000000000001 1", Ok(read(1, 1))),
        ("R 0 0x10000000000000000", Err(LEN)),
        ("R 100000000000000000000 1", Err(ADDR)),
        ("R 000000000000000000001 000000000000000000002", Ok(read(1, 2))),
        ("R 18446744073709551616 1", Err(ADDR)),
        ("R 0 18446744073709551616", Err(LEN)),
        // Payloads: odd, dashes, non-hex, non-ASCII.
        ("W 0x0 abc", Err(HEX)),
        ("W 0x0 a", Err(HEX)),
        ("W 0x0 --", Err(HEX)),
        ("W 0x0 -0", Err(HEX)),
        ("W 0x0 0g", Err(HEX)),
        ("W 0x0 \u{20ac}a", Err(HEX)),
        ("W 0x0 \u{e9}", Err(HEX)),
        ("W 0x0 ab\u{20ac}", Err(HEX)),
        // Kinds, missing and trailing fields, in the order checked.
        ("", Err("empty record")),
        ("   ", Err("empty record")),
        ("R", Err("missing address field")),
        ("W", Err("missing address field")),
        ("R\u{3000}", Err("missing address field")),
        ("R 0x0", Err("missing read length")),
        ("W 0x0", Err("missing write payload")),
        ("R bad", Err(ADDR)),
        ("W bad", Err(ADDR)),
        ("R 0x0 bad extra", Err(LEN)),
        ("W 0x0 abc extra", Err(HEX)),
        ("R 0x0 1 2", Err("trailing fields")),
        ("W 0x0 - x", Err("trailing fields")),
        ("W 0x0 00 ff", Err("trailing fields")),
        ("X 0x0 1", Err("unknown record kind 'X', expected R or W")),
        ("r 0x0 1", Err("unknown record kind 'r', expected R or W")),
        ("RW 0x0 1", Err("unknown record kind 'RW', expected R or W")),
        ("R0x0 1", Err("unknown record kind 'R0x0', expected R or W")),
        ("\u{154} 0x0 1", Err("unknown record kind '\u{154}', expected R or W")),
        ("# dlk-trace v1", Err("unknown record kind '#', expected R or W")),
    ]
}

#[test]
fn parse_record_gives_each_rows_op_or_error() {
    for (record, expected) in record_rows() {
        let expected = expected.map_err(str::to_owned);
        assert_eq!(TraceOp::parse_record(record), expected, "{record:?}");
    }
}

/// A two-spec list whose second spec's trace block is `op_line`, on
/// line 8: [`op_line_rows`] read it there.
fn list_with(op_line: &str) -> String {
    format!(
        "label first\nattack replay-trace untrusted=1\nop R 0x0 1\n# a comment\n\n\
         label second\nattack replay-trace untrusted=0\n{op_line}\n"
    )
}

/// Each line-8 `op` line of [`list_with`] with the ops the second
/// spec's trace reads from it, or the list's exact error text.
fn op_line_rows() -> Vec<(&'static str, Result<Vec<TraceOp>, &'static str>)> {
    vec![
        ("op R 0x10 4", Ok(vec![read(0x10, 4)])),
        ("op R 0x0 1", Ok(vec![read(0, 1)])),
        ("op\tR\t0x10\t4", Ok(vec![read(0x10, 4)])),
        ("op   R   0x10   4", Ok(vec![read(0x10, 4)])),
        ("op R 0x10 4\r", Ok(vec![read(0x10, 4)])),
        ("  op R 0x10 4  ", Ok(vec![read(0x10, 4)])),
        ("\top\tW 0x8 00FF\t", Ok(vec![write(8, &[0x00, 0xff])])),
        ("op\u{3000}R\u{3000}0x10\u{3000}4", Ok(vec![read(0x10, 4)])),
        ("\u{3000}op R 0x10 4\u{3000}", Ok(vec![read(0x10, 4)])),
        ("op R 0xABCDEF 4", Ok(vec![read(0xab_cdef, 4)])),
        ("op W 0x10 ABCDEF", Ok(vec![write(0x10, &[0xab, 0xcd, 0xef])])),
        ("op R 4096 0x20", Ok(vec![read(4096, 32)])),
        ("op R 0x00000000000000001 000000000000000000001", Ok(vec![read(1, 1)])),
        ("op", Ok(vec![])),
        ("op   ", Ok(vec![])),
        ("op\u{3000}", Ok(vec![])),
        (
            "op R +5 1",
            Err("spec parse: line 8: embedded trace: address is not a number\n  8 | op R +5 1"),
        ),
        (
            "  op R +5 1  \r",
            Err("spec parse: line 8: embedded trace: address is not a number\n  8 | op R +5 1"),
        ),
        (
            "op R 0x0 +5",
            Err("spec parse: line 8: embedded trace: read length is not a number\n  \
                 8 | op R 0x0 +5"),
        ),
        (
            "op R 0x10000000000000000 1",
            Err("spec parse: line 8: embedded trace: address is not a number\n  \
                 8 | op R 0x10000000000000000 1"),
        ),
        (
            "op R 100000000000000000000 1",
            Err("spec parse: line 8: embedded trace: address is not a number\n  \
                 8 | op R 100000000000000000000 1"),
        ),
        (
            "op W 0x0 abc",
            Err("spec parse: line 8: embedded trace: payload is not even-length hex\n  \
                 8 | op W 0x0 abc"),
        ),
        (
            "op W 0x0 --",
            Err("spec parse: line 8: embedded trace: payload is not even-length hex\n  \
                 8 | op W 0x0 --"),
        ),
        (
            "op W 0x0 \u{20ac}a",
            Err("spec parse: line 8: embedded trace: payload is not even-length hex\n  \
                 8 | op W 0x0 \u{20ac}a"),
        ),
        ("op R", Err("spec parse: line 8: embedded trace: missing address field\n  8 | op R")),
        (
            "op R 0x0",
            Err("spec parse: line 8: embedded trace: missing read length\n  8 | op R 0x0"),
        ),
        (
            "op W 0x0",
            Err("spec parse: line 8: embedded trace: missing write payload\n  8 | op W 0x0"),
        ),
        (
            "op R 0x0 1 2",
            Err("spec parse: line 8: embedded trace: trailing fields\n  8 | op R 0x0 1 2"),
        ),
        (
            "op X 0 1",
            Err("spec parse: line 8: embedded trace: unknown record kind 'X', expected R or W\n  \
                 8 | op X 0 1"),
        ),
        (
            "op # dlk-trace v1 untrusted=1",
            Err("spec parse: line 8: embedded trace: unknown record kind '#', expected R or W\n  \
                 8 | op # dlk-trace v1 untrusted=1"),
        ),
        ("opR 0x0 1", Err("spec parse: line 8: unknown record 'opR'\n  8 | opR 0x0 1")),
        (
            "op\u{200b}R 0x0 1",
            Err("spec parse: line 8: unknown record 'op\u{200b}R'\n  8 | op\u{200b}R 0x0 1"),
        ),
    ]
}

#[test]
fn spec_op_lines_give_each_rows_ops_or_error() {
    for (op_line, expected) in op_line_rows() {
        let text = list_with(op_line);
        match (ScenarioSpec::list_from_text(&text), expected) {
            (Ok(specs), Ok(ops)) => {
                let traces: Vec<(Vec<TraceOp>, bool)> = specs
                    .iter()
                    .map(|spec| match &spec.attack {
                        Some(AttackSpec::ReplayTrace { trace }) => {
                            (trace.ops().to_vec(), trace.untrusted)
                        }
                        other => panic!("{op_line:?}: expected a replay-trace, got {other:?}"),
                    })
                    .collect();
                assert_eq!(traces, [(vec![read(0, 1)], true), (ops, false)], "{op_line:?}");
            }
            (Err(err), Err(message)) => assert_eq!(err.to_string(), message, "{op_line:?}"),
            (got, want) => panic!("{op_line:?}: got {got:?}, want {want:?}"),
        }
    }
}

/// 2,000 seeded ops: both address extremes, both length extremes,
/// and payloads of 0 to 64 bytes.
fn generated_ops(seed: u64) -> Vec<TraceOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops =
        vec![read(0, 0), read(u64::MAX, usize::MAX), write(0, &[]), write(u64::MAX, &[0xff; 64])];
    while ops.len() < 2_000 {
        let addr = match rng.random_range(0u32..4) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.random_range(0u64..1 << 16),
            _ => rng.random_range(0u64..u64::MAX),
        };
        if rng.random_bool(0.5) {
            let len = match rng.random_range(0u32..4) {
                0 => 0,
                1 => usize::MAX,
                2 => rng.random_range(1usize..4096),
                _ => rng.random_range(0usize..usize::MAX),
            };
            ops.push(read(addr, len));
        } else {
            let len = rng.random_range(0usize..65);
            let payload: Vec<u8> = (0..len).map(|_| rng.random_range(0u32..256) as u8).collect();
            ops.push(write(addr, &payload));
        }
    }
    ops
}

#[test]
fn generated_ops_round_trip_through_trace_files() {
    for untrusted in [false, true] {
        let mut trace = Trace::from(generated_ops(29));
        trace.untrusted = untrusted;
        assert_eq!(Trace::from_text(&trace.to_text()).unwrap(), trace);
    }
}

/// Three specs: the generated trace, its first half, then the whole
/// trace again under another trust flag and a defense.
#[test]
fn generated_ops_round_trip_through_a_three_spec_list() {
    let ops = generated_ops(30);
    let mut whole = Trace::from(ops.clone());
    whole.untrusted = true;
    let half = Trace::from(ops[..ops.len() / 2].to_vec());
    let mut again = whole.clone();
    again.untrusted = false;
    let specs = vec![
        ScenarioSpec { attack: Some(AttackSpec::trace(whole)), ..ScenarioSpec::new("whole") },
        ScenarioSpec { attack: Some(AttackSpec::trace(half)), ..ScenarioSpec::new("half") },
        ScenarioSpec {
            attack: Some(AttackSpec::trace(again)),
            defenses: vec![DefenseSpec::locker_adjacent()],
            ..ScenarioSpec::new("again")
        },
    ];
    let text: String = specs.iter().map(ScenarioSpec::to_text).collect();
    assert_eq!(ScenarioSpec::list_from_text(&text).unwrap(), specs);
}
