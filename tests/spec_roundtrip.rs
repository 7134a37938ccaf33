//! The scenario-spec codec's workspace-level guarantees:
//!
//! 1. any generated `ScenarioSpec` — across every attack, defense and
//!    victim variant — survives `from_text(to_text(spec))` bit-exact
//!    (this codec *is* the spec's on-disk format);
//! 2. the text format itself is pinned by a golden file, so a codec
//!    change that silently breaks old spec files fails loudly;
//! 3. `Scenario::from_spec` on a catalog entry's spec reproduces the
//!    same `RunReport` as the builder path — including after a codec
//!    round-trip — for the representative MLP BFA, CNN BFA and
//!    2-channel replay scenarios.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dram_locker::attacks::bfa::BfaConfig;
use dram_locker::dnn::models::ModelKind;
use dram_locker::locker::{LockTarget, LockerConfig};
use dram_locker::memctrl::{Trace, TraceOp};
use dram_locker::sim::{
    AttackSpec, Budget, DefenseSpec, EngineConfig, GeometrySpec, Scenario, ScenarioSpec,
    VictimSpec, Workload,
};

fn generated_workload(rng: &mut StdRng) -> Workload {
    match rng.random_range(0u32..4) {
        0 => Workload::Sequential {
            base: rng.random_range(0u64..1 << 20),
            len: rng.random_range(1usize..64),
            count: rng.random_range(0usize..500),
        },
        1 => Workload::Strided {
            base: rng.random_range(0u64..1 << 20),
            stride: rng.random_range(1u64..4096),
            len: rng.random_range(1usize..64),
            count: rng.random_range(0usize..500),
        },
        2 => Workload::PointerChase {
            base: rng.random_range(0u64..1 << 20),
            span: rng.random_range(64u64..1 << 16),
            len: rng.random_range(1usize..64),
            count: rng.random_range(0usize..500),
            seed: rng.random_range(0u64..u64::MAX),
        },
        _ => Workload::HammerLoop {
            addr_a: rng.random_range(0u64..1 << 20),
            addr_b: rng.random_range(0u64..1 << 20),
            iterations: rng.random_range(0usize..500),
        },
    }
}

fn generated_model(rng: &mut StdRng) -> ModelKind {
    ModelKind::ALL[rng.random_range(0usize..ModelKind::ALL.len())]
}

fn generated_victim(rng: &mut StdRng) -> VictimSpec {
    let spec = match rng.random_range(0u32..3) {
        0 => VictimSpec::row_span(
            rng.random_range(0u64..512),
            rng.random_range(1u64..8),
            rng.random_range(0u32..256) as u8,
        ),
        1 => VictimSpec::model(
            generated_model(rng),
            rng.random_range(0u64..1 << 32),
            rng.random_range(0u64..1 << 16),
        ),
        _ => VictimSpec::paged(generated_model(rng), rng.random_range(0u64..1 << 32)).with_paging(
            rng.random_range(64u64..1024),
            rng.random_range(1u64..64),
            rng.random_range(1024u64..1 << 16),
        ),
    };
    spec.with_os_protect(rng.random_bool(0.5))
}

fn generated_attack(rng: &mut StdRng) -> AttackSpec {
    match rng.random_range(0u32..10) {
        0 => AttackSpec::Hammer { bit: rng.random_range(0usize..512) },
        1 => AttackSpec::RowProbe { accesses: rng.random_range(0u64..10_000) },
        2 => AttackSpec::BfaHammer { batch: rng.random_range(1usize..128) },
        3 => AttackSpec::ProgressiveBfa {
            // Arbitrary finite fractions: Display/parse of f64 is
            // shortest-round-trip, so equality must hold bit-exact.
            success_rate: rng.random_range(0u64..u64::MAX) as f64 / u64::MAX as f64,
            seed: rng.random_range(0u64..u64::MAX),
            config: BfaConfig {
                candidates_per_layer: rng.random_range(1usize..16),
                bits_considered: if rng.random_bool(0.5) {
                    None
                } else {
                    Some([rng.random_range(0u32..8) as u8, rng.random_range(0u32..8) as u8])
                },
            },
        },
        4 => AttackSpec::RandomFlip { seed: rng.random_range(0u64..u64::MAX) },
        5 => AttackSpec::PageTable {
            pfn_bit: rng.random_range(0u32..16),
            payload_xor: rng.random_range(0u32..256) as u8,
        },
        6 => AttackSpec::InferenceStream {
            batches: rng.random_range(1u64..32),
            chunk: rng.random_range(1usize..128),
        },
        7 => {
            let tenants =
                (0..rng.random_range(1usize..5)).map(|_| generated_workload(rng)).collect();
            AttackSpec::Replay { tenants }
        }
        8 => {
            let mut trace = Trace::new();
            trace.untrusted = rng.random_bool(0.5);
            for _ in 0..rng.random_range(0usize..32) {
                let addr = rng.random_range(0u64..1 << 32);
                if rng.random_bool(0.5) {
                    trace.push(TraceOp::Read { addr, len: rng.random_range(1usize..64) });
                } else {
                    let len = rng.random_range(0usize..16);
                    let payload = (0..len).map(|_| rng.random_range(0u32..256) as u8).collect();
                    trace.push(TraceOp::Write { addr, payload });
                }
            }
            AttackSpec::ReplayTrace { trace }
        }
        _ => AttackSpec::WeightFetch {
            samples: rng.random_range(1usize..16),
            chunk: rng.random_range(1usize..128),
            channel: rng.random_range(0usize..4),
        },
    }
}

fn generated_defense(rng: &mut StdRng) -> DefenseSpec {
    match rng.random_range(0u32..8) {
        0 => DefenseSpec::Locker {
            config: LockerConfig {
                relock_interval: rng.random_range(1u64..10_000),
                table_capacity_bytes: rng.random_range(64usize..1 << 20),
                entry_bytes: rng.random_range(1usize..16),
                check_cycles: rng.random_range(0u64..8),
                copy_error_rate: rng.random_range(0u64..u64::MAX) as f64 / u64::MAX as f64,
                free_rows_per_subarray: rng.random_range(1u32..16),
                seed: rng.random_range(0u64..u64::MAX),
            },
            target: [LockTarget::AdjacentRows, LockTarget::DataRows, LockTarget::Both]
                [rng.random_range(0usize..3)],
            radius: rng.random_range(1u32..4),
        },
        1 => DefenseSpec::graphene(rng.random_range(1usize..256), rng.random_range(1u64..64)),
        2 => DefenseSpec::hydra(
            rng.random_range(1u64..64),
            rng.random_range(1u64..32),
            rng.random_range(1u64..32),
        ),
        3 => DefenseSpec::twice(
            rng.random_range(1u64..32),
            rng.random_range(1u64..256),
            rng.random_range(1u64..8),
        ),
        4 => DefenseSpec::counter_per_row(rng.random_range(1u64..64)),
        5 => DefenseSpec::rrs(rng.random_range(1u64..64), rng.random_range(0u64..u64::MAX)),
        6 => DefenseSpec::srs(rng.random_range(1u64..64), rng.random_range(0u64..u64::MAX)),
        _ => DefenseSpec::shadow(rng.random_range(1u64..64), rng.random_range(0u64..u64::MAX)),
    }
}

/// A pseudo-random spec spanning the full variant space.
fn generated_spec(seed: u64) -> ScenarioSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let geometry =
        [GeometrySpec::Tiny, GeometrySpec::Paper, GeometrySpec::Ddr4, GeometrySpec::Lpddr4]
            [rng.random_range(0usize..4)];
    let channels = rng.random_range(1usize..5);
    let engine = if rng.random_bool(0.5) {
        EngineConfig::sharded(channels)
    } else {
        EngineConfig::serial_reference(channels)
    };
    let victims = (0..rng.random_range(0usize..4))
        .map(|_| (generated_victim(&mut rng), rng.random_range(0usize..channels)))
        .collect();
    let attack = if rng.random_bool(0.8) { Some(generated_attack(&mut rng)) } else { None };
    let defenses = (0..rng.random_range(0usize..3)).map(|_| generated_defense(&mut rng)).collect();
    ScenarioSpec {
        label: format!("generated-{seed:#x}"),
        geometry,
        engine,
        victims,
        attack,
        defenses,
        budget: Budget {
            max_activations: rng.random_range(0u64..100_000),
            check_interval: rng.random_range(1u64..64),
            iterations: rng.random_range(0usize..100),
        },
        eval_batch: rng.random_range(1usize..256),
        target: rng.random_range(0usize..4),
    }
}

proptest! {
    /// Any generated spec survives the workspace spec codec, across
    /// all attack/defense/victim variants.
    #[test]
    fn any_generated_spec_roundtrips_through_the_codec(seed in any::<u64>()) {
        let spec = generated_spec(seed);
        let text = spec.to_text();
        let parsed = ScenarioSpec::from_text(&text).expect("codec parses its own output");
        prop_assert_eq!(parsed, spec);
    }
}

/// The golden spec: one of each record kind, mirroring the catalog's
/// multi-tenant entry plus a model victim and a defense stack.
fn golden_spec() -> ScenarioSpec {
    ScenarioSpec {
        label: "golden".to_owned(),
        geometry: GeometrySpec::Tiny,
        engine: EngineConfig::sharded(4),
        victims: vec![
            (VictimSpec::row(20, 0xA5), 0),
            (VictimSpec::model(ModelKind::TinyCnn, 7, 0x400), 1),
            (VictimSpec::paged(ModelKind::Tiny, 21), 2),
        ],
        attack: Some(AttackSpec::tenants(vec![
            Workload::Sequential { base: 0, len: 8, count: 400 },
            Workload::HammerLoop { addr_a: 4864, addr_b: 5376, iterations: 200 },
        ])),
        defenses: vec![DefenseSpec::locker_adjacent(), DefenseSpec::graphene(64, 8)],
        budget: Budget { max_activations: 20_000, check_interval: 8, iterations: 10 },
        eval_batch: 64,
        target: 0,
    }
}

/// The exact text `golden_spec()` serializes to. This IS the stable
/// experiment interface: editing it is a format change and must come
/// with a migration story for spec files in the wild.
const GOLDEN_TEXT: &str = "\
# dlk-scenario v1
label golden
geometry tiny
engine sharded(4)
budget activations=20000 check=8 iterations=10
eval-batch 64
target 0
victim rows home=0 protect=0 first=20 count=1 fill=0xa5
victim model home=1 protect=1 kind=tiny-cnn seed=7 base=0x400
victim paged home=2 protect=1 kind=tiny seed=21 page=256 pfn=8 table=0x1000
attack replay
tenant sequential base=0x0 len=8 count=400
tenant hammer-loop a=0x1300 b=0x1500 iterations=200
defense dram-locker target=adjacent radius=1 relock=1000 table=57344 entry=8 check=1 copy-err=0 free=4 seed=3516928204
defense graphene capacity=64 threshold=8
";

#[test]
fn golden_file_pins_the_text_format() {
    assert_eq!(golden_spec().to_text(), GOLDEN_TEXT);
    assert_eq!(ScenarioSpec::from_text(GOLDEN_TEXT).unwrap(), golden_spec());
}

/// The golden recorded trace: attacker-issued, with reads (hex and
/// zero addresses, a multi-digit length), a multi-byte write and an
/// empty-payload write.
fn golden_trace() -> Trace {
    let mut trace = Trace::new();
    trace.untrusted = true;
    trace.push(TraceOp::Read { addr: 0x1000, len: 4 });
    trace.push(TraceOp::Read { addr: 0, len: 64 });
    trace.push(TraceOp::Write { addr: 0x2040, payload: vec![0x0a, 0x0b, 0xff, 0x00] });
    trace.push(TraceOp::Write { addr: 0x80, payload: Vec::new() });
    trace.push(TraceOp::Read { addr: 0xdead_beef_0040, len: 4096 });
    trace
}

/// The golden trace embedded in a spec.
fn golden_trace_spec() -> ScenarioSpec {
    ScenarioSpec {
        label: "golden-trace".to_owned(),
        engine: EngineConfig::sharded(2),
        victims: vec![(VictimSpec::row(20, 0xA5), 0)],
        attack: Some(AttackSpec::trace(golden_trace())),
        defenses: vec![DefenseSpec::graphene(64, 8)],
        ..ScenarioSpec::default()
    }
}

/// The exact text `golden_trace()` serializes to as a trace file.
const GOLDEN_TRACE_FILE: &str = "\
# dlk-trace v1 untrusted=1
R 0x1000 4
R 0x0 64
W 0x2040 0a0bff00
W 0x80 -
R 0xdeadbeef0040 4096
";

/// The exact text `golden_trace_spec()` serializes to: each `op`
/// record is one trace-file record.
const GOLDEN_TRACE_TEXT: &str = "\
# dlk-scenario v1
label golden-trace
geometry tiny
engine sharded(2)
budget activations=20000 check=8 iterations=10
eval-batch 64
target 0
victim rows home=0 protect=0 first=20 count=1 fill=0xa5
attack replay-trace untrusted=1
op R 0x1000 4
op R 0x0 64
op W 0x2040 0a0bff00
op W 0x80 -
op R 0xdeadbeef0040 4096
defense graphene capacity=64 threshold=8
";

#[test]
fn golden_trace_texts_pin_the_record_format() {
    assert_eq!(golden_trace().to_text(), GOLDEN_TRACE_FILE);
    assert_eq!(Trace::from_text(GOLDEN_TRACE_FILE).unwrap(), golden_trace());
    assert_eq!(golden_trace_spec().to_text(), GOLDEN_TRACE_TEXT);
    assert_eq!(ScenarioSpec::from_text(GOLDEN_TRACE_TEXT).unwrap(), golden_trace_spec());
}

/// A spec list parses to exactly the specs and start lines its chunks
/// parse to one at a time: every catalog dump, concatenated three
/// times under unique labels.
#[test]
fn spec_lists_parse_exactly_like_their_chunks() {
    let mut text = String::new();
    let mut expected = Vec::new();
    let mut next_line = 1;
    for round in 0..3 {
        for entry in dram_locker::sim::catalog() {
            let spec = ScenarioSpec { label: format!("{}/{round}", entry.name), ..entry.spec };
            let chunk = spec.to_text();
            // Every chunk after the first starts at its `label` record,
            // one line below its `# dlk-scenario v1` header.
            let start = if expected.is_empty() { next_line } else { next_line + 1 };
            expected.push((start, ScenarioSpec::from_text(&chunk).unwrap()));
            next_line += chunk.lines().count();
            text.push_str(&chunk);
        }
    }
    assert_eq!(expected.len(), 3 * dram_locker::sim::catalog().len());
    assert_eq!(ScenarioSpec::list_from_text_with_lines(&text).unwrap(), expected);
}

/// `specs/smoke_grid.dlk`, which CI's `dlk sweep` and `dlk serve`
/// smoke steps run, is what its header says: under a four-line `#`
/// header, the concatenated `dlk catalog --dump` of four entries.
#[test]
fn smoke_grid_is_the_catalog_dump_its_header_names() {
    let text = include_str!("../specs/smoke_grid.dlk");
    let mut lines = text.split_inclusive('\n');
    let header: String = lines.by_ref().take(4).collect();
    assert!(header.lines().all(|line| line.starts_with('#')), "{header}");
    let specs = ScenarioSpec::list_from_text(text).unwrap();
    assert_eq!(specs.len(), 4);
    let dumped: String = specs.iter().map(ScenarioSpec::to_text).collect();
    assert_eq!(dumped, lines.collect::<String>());
    for spec in specs {
        assert_eq!(spec, dram_locker::sim::find(&spec.label).unwrap().spec, "{}", spec.label);
    }
}

/// `Scenario::from_spec` (including after a codec round-trip) must
/// reproduce the builder path's `RunReport` bit for bit on the
/// representative catalog entries: MLP BFA, CNN BFA, 2-channel replay.
#[test]
fn from_spec_reproduces_builder_reports_for_representative_entries() {
    for name in ["bfa-vs-none", "cnn-bfa-vs-none", "replay-stream-2ch", "cnn-inference-2ch"] {
        let entry = dram_locker::sim::find(name).unwrap();
        let via_builder = entry.scenario().build().unwrap().run().unwrap();
        let reparsed = ScenarioSpec::from_text(&entry.spec.to_text()).unwrap();
        let via_spec = Scenario::from_spec(&reparsed).unwrap().run().unwrap();
        assert_eq!(via_spec, via_builder, "{name}");
    }
}

/// A short recorded trace: reads and writes, one with no payload.
fn short_trace() -> Trace {
    let mut trace = Trace::new();
    trace.push(TraceOp::Read { addr: 0x1000, len: 4 });
    trace.push(TraceOp::Write { addr: 0x2040, payload: vec![0x0a, 0xff] });
    trace.push(TraceOp::Read { addr: 0x80, len: 8 });
    trace.push(TraceOp::Write { addr: 0x10, payload: Vec::new() });
    trace.push(TraceOp::Read { addr: 0xdead_0040, len: 64 });
    trace
}

/// `trace` embedded in a spec under `untrusted`, with `defenses`.
fn trace_spec(
    label: &str,
    trace: &Trace,
    untrusted: bool,
    defenses: Vec<DefenseSpec>,
) -> ScenarioSpec {
    let mut trace = trace.clone();
    trace.untrusted = untrusted;
    ScenarioSpec { attack: Some(AttackSpec::trace(trace)), defenses, ..ScenarioSpec::new(label) }
}

/// The trace of a spec's `attack replay-trace`.
fn trace_of(spec: &ScenarioSpec) -> &Trace {
    match &spec.attack {
        Some(AttackSpec::ReplayTrace { trace }) => trace,
        other => panic!("{}: expected a replay-trace attack, got {other:?}", spec.label),
    }
}

/// One trace in three specs, under different trust flags and defenses,
/// with a comment and a blank line inside each copy of its `op` block:
/// the list parses to what each spec parses to alone, and all three
/// share one ops allocation.
#[test]
fn identical_op_blocks_in_a_list_share_one_trace() {
    let trace = short_trace();
    let chunks: Vec<String> = [
        trace_spec("a", &trace, true, vec![]),
        trace_spec("b", &trace, false, vec![DefenseSpec::locker_adjacent()]),
        trace_spec("c", &trace, true, vec![DefenseSpec::graphene(64, 8)]),
    ]
    .iter()
    .map(|spec| {
        spec.to_text().replacen("op W 0x2040 0aff\n", "op W 0x2040 0aff\n# mid-block\n\n", 1)
    })
    .collect();
    let text = chunks.concat();
    let mut expected = Vec::new();
    let mut next_line = 1;
    for chunk in &chunks {
        let start = if expected.is_empty() { next_line } else { next_line + 1 };
        expected.push((start, ScenarioSpec::from_text(chunk).unwrap()));
        next_line += chunk.lines().count();
    }
    let parsed = ScenarioSpec::list_from_text_with_lines(&text).unwrap();
    assert_eq!(parsed, expected);
    let traces: Vec<&Trace> = parsed.iter().map(|(_, spec)| trace_of(spec)).collect();
    assert_eq!(traces[0].ops(), trace.ops());
    assert_eq!(traces.iter().map(|t| t.untrusted).collect::<Vec<_>>(), [true, false, true]);
    assert!(traces.iter().all(|t| t.shares_ops(traces[0])));
}

/// A block that differs from an earlier one in one op, one that extends
/// it with more `op` lines and one that is its prefix are each parsed;
/// a later copy of the first still shares it.
#[test]
fn op_blocks_that_differ_or_extend_are_parsed_not_shared() {
    let trace = short_trace();
    let mut changed_ops = trace.ops().to_vec();
    changed_ops[2] = TraceOp::Read { addr: 0x80, len: 9 };
    let mut extended = trace.clone();
    extended.push(TraceOp::Read { addr: 0x40, len: 1 });
    let prefix: Trace = trace.ops().iter().take(3).collect();
    let specs = vec![
        trace_spec("first", &trace, true, vec![]),
        trace_spec("changed", &Trace::from(changed_ops), true, vec![]),
        trace_spec("extended", &extended, true, vec![]),
        trace_spec("prefix", &prefix, true, vec![]),
        trace_spec("again", &trace, false, vec![]),
    ];
    let text: String = specs.iter().map(ScenarioSpec::to_text).collect();
    let parsed = ScenarioSpec::list_from_text(&text).unwrap();
    assert_eq!(parsed, specs);
    let first = trace_of(&parsed[0]);
    for spec in &parsed[1..4] {
        assert!(!trace_of(spec).shares_ops(first), "{}", spec.label);
    }
    assert!(trace_of(&parsed[4]).shares_ops(first));
}

/// A syntax error two lines after a shared block reports its
/// whole-file line and quotes it.
#[test]
fn errors_after_a_shared_op_block_keep_whole_file_lines() {
    let trace = short_trace();
    let mut text = trace_spec("one", &trace, true, vec![]).to_text();
    text.push_str(&trace_spec("two", &trace, false, vec![DefenseSpec::graphene(64, 8)]).to_text());
    text.push_str("geometry huge\n");
    let line = text.lines().count();
    let err = ScenarioSpec::list_from_text(&text).unwrap_err();
    assert_eq!(
        err.to_string(),
        format!("spec parse: line {line}: unknown geometry 'huge'\n  {line} | geometry huge")
    );
}
