//! The declarative scenario description and its on-disk codec.
//!
//! A [`ScenarioSpec`] is an owned, comparable value describing a whole
//! experiment: geometry preset, execution engine, victims and their
//! home channels, the attack, the defense stack and the budget. Every
//! part is enum-keyed data — [`AttackSpec`], [`DefenseSpec`],
//! [`VictimSpec`] — so specs can be enumerated
//! (`catalog()`), diffed (`PartialEq`), expanded into grids
//! ([`SweepGrid`](crate::sweep::SweepGrid)) and persisted.
//!
//! The hand-written, line-oriented
//! [`to_text`](ScenarioSpec::to_text) / [`from_text`](ScenarioSpec::from_text)
//! codec — like [`Trace`]'s — *is* the on-disk format:
//!
//! ```text
//! # dlk-scenario v1
//! label bfa-vs-dram-locker
//! geometry tiny
//! engine serial
//! budget activations=20000 check=8 iterations=10
//! eval-batch 64
//! target 0
//! victim model home=0 protect=1 kind=tiny seed=42 base=0x400
//! attack progressive-bfa rate=0.096 seed=8 candidates=5 bits=6,7
//! defense graphene capacity=64 threshold=8
//! ```
//!
//! [`Scenario::from_spec`](crate::Scenario::from_spec) is the one
//! construction path from a spec to a runnable pipeline;
//! [`ScenarioBuilder`](crate::ScenarioBuilder) is sugar that assembles
//! a spec.

use std::cell::Cell;

use dlk_attacks::bfa::BfaConfig;
use dlk_defenses::SwapPolicy;
use dlk_dnn::models::ModelKind;
use dlk_engine::{EngineConfig, Workload};
use dlk_locker::{LockTarget, LockerConfig};
use dlk_memctrl::trace::parse_u64;
use dlk_memctrl::{MemCtrlConfig, Trace};

use crate::error::SimError;
use crate::scenario::Budget;
use crate::victim::{SpecKind, VictimSpec};

/// A named device/controller configuration preset. Geometry is keyed
/// (not free-form) so specs stay diffable and the codec stays exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum GeometrySpec {
    /// The tiny test geometry, TRH 16 (`MemCtrlConfig::tiny_for_tests`).
    #[default]
    Tiny,
    /// The paper-scale default geometry (`MemCtrlConfig::default`).
    Paper,
    /// Paper-scale organization on DDR4 datasheet timing/energy.
    Ddr4,
    /// Paper-scale organization on LPDDR4 datasheet timing/energy.
    Lpddr4,
}

impl GeometrySpec {
    const ALL: [GeometrySpec; 4] =
        [GeometrySpec::Tiny, GeometrySpec::Paper, GeometrySpec::Ddr4, GeometrySpec::Lpddr4];

    /// Materializes the preset.
    pub fn config(self) -> MemCtrlConfig {
        match self {
            GeometrySpec::Tiny => MemCtrlConfig::tiny_for_tests(),
            GeometrySpec::Paper => MemCtrlConfig::default(),
            GeometrySpec::Ddr4 => MemCtrlConfig { dram: dlk_dram::DramConfig::ddr4() },
            GeometrySpec::Lpddr4 => MemCtrlConfig { dram: dlk_dram::DramConfig::lpddr4() },
        }
    }

    /// The stable spec-file token.
    pub fn token(self) -> &'static str {
        match self {
            GeometrySpec::Tiny => "tiny",
            GeometrySpec::Paper => "paper",
            GeometrySpec::Ddr4 => "ddr4",
            GeometrySpec::Lpddr4 => "lpddr4",
        }
    }

    /// Parses a [`token`](GeometrySpec::token) back into a preset.
    pub fn from_token(token: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|g| g.token() == token)
    }
}

/// An attack (or benign driver) as enum-keyed data. A built scenario
/// runs it through one `match` (`AttackSpec::execute`), against the
/// victim [`AttackSpec::check_victim`] names.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackSpec {
    /// Raw RowHammer campaign against the victim row's bit `bit`.
    Hammer {
        /// Bit within the victim row to flip.
        bit: usize,
    },
    /// Untrusted probing of the victim's own data address.
    RowProbe {
        /// Number of untrusted read attempts.
        accesses: u64,
    },
    /// Gradient-ranked edge-row MSB realized by a physical hammer.
    BfaHammer {
        /// Batch size for the white-box gradient scan.
        batch: usize,
    },
    /// The progressive bit search of Fig. 8.
    ProgressiveBfa {
        /// Probability each iteration's flip lands.
        success_rate: f64,
        /// RNG seed for the landing draw.
        seed: u64,
        /// Bit-search configuration.
        config: BfaConfig,
    },
    /// Uniformly random weight-bit flips (Fig. 1(a) baseline).
    RandomFlip {
        /// RNG seed for bit selection.
        seed: u64,
    },
    /// The §V page-table attack.
    PageTable {
        /// Which PFN bit to flip.
        pfn_bit: u32,
        /// XOR mask applied to the staged payload.
        payload_xor: u8,
    },
    /// Benign victim inference traffic (overhead runs).
    InferenceStream {
        /// Inference batches (full passes over the weight image).
        batches: u64,
        /// Bytes per read request.
        chunk: usize,
    },
    /// Workload replay through the whole engine; one tenant is a plain
    /// workload replay, several are interleaved round-robin.
    Replay {
        /// The tenants' workload patterns.
        tenants: Vec<Workload>,
    },
    /// Replay of a recorded trace (embedded in the spec through the
    /// trace codec).
    ReplayTrace {
        /// The recorded trace.
        trace: Trace,
    },
    /// The target victim's own weight-fetch trace, recorded against its
    /// layout when the attack runs and replayed through the engine homed
    /// on `channel` — derived inference traffic without embedding a trace.
    WeightFetch {
        /// Input samples per recorded inference pass.
        samples: usize,
        /// Bytes per read request.
        chunk: usize,
        /// Channel the globalized trace is homed on.
        channel: usize,
    },
}

impl AttackSpec {
    /// Replays one generated workload pattern.
    pub fn replay(workload: Workload) -> Self {
        AttackSpec::Replay { tenants: vec![workload] }
    }

    /// Replays several tenants' workloads interleaved round-robin.
    pub fn tenants(tenants: Vec<Workload>) -> Self {
        AttackSpec::Replay { tenants }
    }

    /// Replays a recorded trace.
    pub fn trace(trace: Trace) -> Self {
        AttackSpec::ReplayTrace { trace }
    }

    /// Replays the target victim's weight-fetch trace homed on
    /// `channel`.
    pub fn weight_fetch(samples: usize, chunk: usize, channel: usize) -> Self {
        AttackSpec::WeightFetch { samples, chunk, channel }
    }

    /// The stable spec-file token (also the sweep-axis label).
    pub fn token(&self) -> &'static str {
        match self {
            AttackSpec::Hammer { .. } => "hammer",
            AttackSpec::RowProbe { .. } => "row-probe",
            AttackSpec::BfaHammer { .. } => "bfa-hammer",
            AttackSpec::ProgressiveBfa { .. } => "progressive-bfa",
            AttackSpec::RandomFlip { .. } => "random-flip",
            AttackSpec::PageTable { .. } => "page-table",
            AttackSpec::InferenceStream { .. } => "inference",
            AttackSpec::Replay { .. } => "replay",
            AttackSpec::ReplayTrace { .. } => "replay-trace",
            AttackSpec::WeightFetch { .. } => "weight-fetch",
        }
    }
}

/// A defense as enum-keyed data. When the scenario is built, each
/// variant mounts as one controller hook per channel through
/// [`DefenseSpec::mount`].
#[derive(Debug, Clone, PartialEq)]
pub enum DefenseSpec {
    /// DRAM-Locker over the guarded ranges.
    Locker {
        /// The full locker configuration.
        config: LockerConfig,
        /// Which rows the protection plan locks.
        target: LockTarget,
        /// Lock radius (2 covers Half-Double distance-2 disturbance).
        radius: u32,
    },
    /// Graphene's Misra-Gries tracker.
    Graphene {
        /// Tracked-entry capacity.
        capacity: usize,
        /// Targeted-refresh threshold.
        threshold: u64,
    },
    /// Hydra's hybrid group/row tracker.
    Hydra {
        /// Rows per counting group.
        group_size: u64,
        /// Group-counter split threshold.
        group_threshold: u64,
        /// Per-row refresh threshold.
        row_threshold: u64,
    },
    /// TWiCE's pruned counter table.
    Twice {
        /// Targeted-refresh threshold.
        threshold: u64,
        /// Activations between prune passes.
        prune_interval: u64,
        /// Prune cutoff count.
        prune_rate: u64,
    },
    /// Exact per-row counters (upper bound).
    CounterPerRow {
        /// Targeted-refresh threshold.
        threshold: u64,
    },
    /// RRS / SRS swap-based row remapping.
    RowSwap {
        /// Randomized (RRS) or Secure (SRS).
        policy: SwapPolicy,
        /// Swap threshold in activations.
        threshold: u64,
        /// RNG seed for swap-partner selection.
        seed: u64,
    },
    /// SHADOW intra-subarray shuffling.
    Shadow {
        /// Shuffle threshold in activations.
        threshold: u64,
        /// RNG seed for the shuffle.
        seed: u64,
    },
}

impl DefenseSpec {
    /// DRAM-Locker in the paper's configuration: lock the rows
    /// adjacent to the guarded data.
    pub fn locker_adjacent() -> Self {
        DefenseSpec::Locker {
            config: LockerConfig::default(),
            target: LockTarget::AdjacentRows,
            radius: 1,
        }
    }

    /// DRAM-Locker locking the guarded data rows themselves (ablation).
    pub fn locker_data_rows() -> Self {
        DefenseSpec::Locker {
            config: LockerConfig::default(),
            target: LockTarget::DataRows,
            radius: 1,
        }
    }

    /// Graphene with `capacity` tracked entries refreshing at
    /// `threshold`.
    pub fn graphene(capacity: usize, threshold: u64) -> Self {
        DefenseSpec::Graphene { capacity, threshold }
    }

    /// Hydra with the given group/row thresholds.
    pub fn hydra(group_size: u64, group_threshold: u64, row_threshold: u64) -> Self {
        DefenseSpec::Hydra { group_size, group_threshold, row_threshold }
    }

    /// TWiCE with the given threshold and pruning schedule.
    pub fn twice(threshold: u64, prune_interval: u64, prune_rate: u64) -> Self {
        DefenseSpec::Twice { threshold, prune_interval, prune_rate }
    }

    /// Exact per-row counters refreshing at `threshold`.
    pub fn counter_per_row(threshold: u64) -> Self {
        DefenseSpec::CounterPerRow { threshold }
    }

    /// Randomized Row-Swap at `threshold` activations.
    pub fn rrs(threshold: u64, seed: u64) -> Self {
        DefenseSpec::RowSwap { policy: SwapPolicy::Randomized, threshold, seed }
    }

    /// Secure Row-Swap at `threshold` activations.
    pub fn srs(threshold: u64, seed: u64) -> Self {
        DefenseSpec::RowSwap { policy: SwapPolicy::Secure, threshold, seed }
    }

    /// SHADOW shuffling at `threshold` activations.
    pub fn shadow(threshold: u64, seed: u64) -> Self {
        DefenseSpec::Shadow { threshold, seed }
    }

    /// The mounted defense's report name (also the sweep-axis label).
    pub fn name(&self) -> &'static str {
        match self {
            DefenseSpec::Locker { .. } => "dram-locker",
            DefenseSpec::Graphene { .. } => "graphene",
            DefenseSpec::Hydra { .. } => "hydra",
            DefenseSpec::Twice { .. } => "twice",
            DefenseSpec::CounterPerRow { .. } => "counter-per-row",
            DefenseSpec::RowSwap { policy: SwapPolicy::Randomized, .. } => "rrs",
            DefenseSpec::RowSwap { policy: SwapPolicy::Secure, .. } => "srs",
            DefenseSpec::Shadow { .. } => "shadow",
        }
    }
}

/// The fully declarative description of one experiment.
///
/// `PartialEq` is intentional infrastructure: specs are compared by
/// sweep dedup logic and the codec round-trip tests; a spec plus the
/// workspace version pins a run completely (victim training, attacks
/// and engine merge are all deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario label (shows up in the report).
    pub label: String,
    /// Device/controller preset, per channel.
    pub geometry: GeometrySpec,
    /// Execution engine shape.
    pub engine: EngineConfig,
    /// Victims and their home channels, in deployment order.
    pub victims: Vec<(VictimSpec, usize)>,
    /// The attack (or benign driver), if any.
    pub attack: Option<AttackSpec>,
    /// The defense stack, in mount order.
    pub defenses: Vec<DefenseSpec>,
    /// The attack-side resource budget.
    pub budget: Budget,
    /// Held-out sample size for accuracy measurements.
    pub eval_batch: usize,
    /// Index of the victim under attack.
    pub target: usize,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        Self {
            label: "unnamed".to_owned(),
            geometry: GeometrySpec::Tiny,
            engine: EngineConfig::serial(),
            victims: Vec::new(),
            attack: None,
            defenses: Vec::new(),
            budget: Budget::default(),
            eval_batch: 64,
            target: 0,
        }
    }
}

impl ScenarioSpec {
    /// A default spec with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), ..Self::default() }
    }

    /// Serializes the spec to the line-oriented spec-file format (this
    /// codec *is* the on-disk representation).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# dlk-scenario v1\n");
        // The label record is one line and the parser trims it, so
        // normalize here: every to_text output is parseable, and a
        // non-normalized label round-trips to its normalized form.
        let label = self.label.replace(['\n', '\r'], " ");
        out.push_str(&format!("label {}\n", label.trim()));
        out.push_str(&format!("geometry {}\n", self.geometry.token()));
        out.push_str(&format!("engine {}\n", self.engine));
        out.push_str(&format!(
            "budget activations={} check={} iterations={}\n",
            self.budget.max_activations, self.budget.check_interval, self.budget.iterations
        ));
        out.push_str(&format!("eval-batch {}\n", self.eval_batch));
        out.push_str(&format!("target {}\n", self.target));
        for (victim, home) in &self.victims {
            write_victim(&mut out, victim, *home);
        }
        if let Some(attack) = &self.attack {
            write_attack(&mut out, attack);
        }
        for defense in &self.defenses {
            write_defense(&mut out, defense);
        }
        out
    }

    /// Parses the format produced by [`to_text`](ScenarioSpec::to_text).
    /// Blank lines and `#` comments are skipped; any recognized record
    /// overrides the default-constructed field, so partial spec files
    /// are valid. Within a `key=value` record each key its kind takes
    /// appears once, and no other key appears.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SpecParse`] with the offending 1-based line
    /// number *and* the offending line's content, so front ends (the
    /// `dlk` CLI) can print actionable parse failures.
    pub fn from_text(text: &str) -> Result<Self, SimError> {
        let mut reader = SpecReader::new(text);
        while let Some(record) = reader.records.next() {
            reader.feed(&record)?;
        }
        Ok(reader.finish())
    }

    /// Loads one spec from a `.dlk` file on disk.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] when the file cannot be read and
    /// [`SimError::SpecParse`] (line number + offending line) when it
    /// cannot be parsed.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self, SimError> {
        Self::from_text(&read_spec_file(path.as_ref())?)
    }

    /// Parses a *spec list*: one file holding any number of specs,
    /// formed by concatenating [`to_text`](ScenarioSpec::to_text)
    /// outputs. Every `label` record after the first starts a new spec
    /// (exactly the boundary `to_text` emits first), so `dlk sweep`
    /// grids and spool files are plain concatenations. The list is read
    /// in one pass, each line once. Identical `op` blocks (the `op`
    /// records after an `attack replay-trace` record) in one list are
    /// parsed once and share one trace: a repeat is compared with the
    /// block already read instead of parsed, and each spec keeps its
    /// own trust flag. Parse errors keep whole-file line numbers. Files
    /// holding only comments and blank lines parse to an empty list.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SpecParse`] with the offending line.
    pub fn list_from_text(text: &str) -> Result<Vec<Self>, SimError> {
        Ok(Self::list_from_text_with_lines(text)?.into_iter().map(|(_, spec)| spec).collect())
    }

    /// [`list_from_text`](ScenarioSpec::list_from_text), with each
    /// spec paired to the 1-based whole-file line its chunk starts on.
    /// Static analyzers (`dlk check`) use the offsets to report
    /// per-spec findings with real file spans.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SpecParse`] with the offending line.
    pub fn list_from_text_with_lines(text: &str) -> Result<Vec<(usize, Self)>, SimError> {
        let mut specs = Vec::new();
        let mut reader = SpecReader::new(text);
        let (mut start, mut labelled, mut any_record) = (1, false, false);
        while let Some(record) = reader.records.next() {
            if record.key == "label" {
                if labelled {
                    specs.push((start, reader.finish()));
                    start = record.line;
                }
                labelled = true;
            }
            reader.feed(&record)?;
            any_record = true;
        }
        if any_record {
            specs.push((start, reader.finish()));
        }
        Ok(specs)
    }

    /// Loads a spec list (see
    /// [`list_from_text`](ScenarioSpec::list_from_text)) from a `.dlk`
    /// file on disk.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] when the file cannot be read and
    /// [`SimError::SpecParse`] when any spec in it cannot be parsed.
    pub fn list_from_file(path: impl AsRef<std::path::Path>) -> Result<Vec<Self>, SimError> {
        Self::list_from_text(&read_spec_file(path.as_ref())?)
    }
}

fn read_spec_file(path: &std::path::Path) -> Result<String, SimError> {
    std::fs::read_to_string(path)
        .map_err(|error| SimError::Io { path: path.display().to_string(), error })
}

/// One record line of a spec text.
struct Record<'a> {
    /// 1-based line number.
    line: usize,
    /// Byte offset of the line in the text.
    start: usize,
    /// The whole record, trimmed.
    text: &'a str,
    /// Its first token.
    key: &'a str,
    /// Everything after the key, trimmed.
    rest: &'a str,
}

/// The records of a spec text: every line that is not blank or a `#`
/// comment, in order. Lines are framed by bytes, and a line that
/// starts and ends in printable ASCII is taken as it is, unscanned.
#[derive(Clone)]
struct Records<'a> {
    text: &'a str,
    /// Byte offset of the next line.
    at: usize,
    /// Lines before `at`.
    lines: usize,
}

impl<'a> Iterator for Records<'a> {
    type Item = Record<'a>;

    fn next(&mut self) -> Option<Record<'a>> {
        while self.at < self.text.len() {
            let start = self.at;
            let rest = &self.text[start..];
            let (raw, next) = match rest.bytes().position(|byte| byte == b'\n') {
                Some(end) => (&rest[..end], start + end + 1),
                None => (rest, self.text.len()),
            };
            self.at = next;
            self.lines += 1;
            let text = trim_end(trim_start(raw));
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            // `op` records outnumber every other record.
            let (key, rest) = match text.strip_prefix("op ") {
                Some(rest) => ("op", rest),
                None => text.split_once(char::is_whitespace).unwrap_or((text, "")),
            };
            return Some(Record { line: self.lines, start, text, key, rest: trim_start(rest) });
        }
        None
    }
}

impl Records<'_> {
    /// Whether the text from `record`'s line on starts with `parsed`'s
    /// text, and no `op` record follows that text.
    fn repeats(&self, record: &Record<'_>, parsed: &ParsedBlock<'_>) -> bool {
        self.text[record.start..].starts_with(parsed.text) && {
            let mut after = Records { at: record.start + parsed.text.len(), ..self.clone() };
            after.next().is_none_or(|next| next.key != "op")
        }
    }
}

/// [`str::trim_start`], which a leading printable ASCII byte makes a
/// no-op.
fn trim_start(text: &str) -> &str {
    match text.as_bytes().first() {
        Some(byte) if byte.is_ascii_graphic() => text,
        _ => text.trim_start(),
    }
}

/// [`str::trim_end`], which a trailing printable ASCII byte makes a
/// no-op.
fn trim_end(text: &str) -> &str {
    match text.as_bytes().last() {
        Some(byte) if byte.is_ascii_graphic() => text,
        _ => text.trim_end(),
    }
}

/// Reads the specs of one text, record by record.
struct SpecReader<'a> {
    records: Records<'a>,
    /// The spec being read.
    spec: ScenarioSpec,
    /// The `attack replay-trace` block being read, which its `op`
    /// records extend until any other record closes it.
    block: Option<OpBlock>,
    /// Every `op` block parsed so far in this text.
    parsed: Vec<ParsedBlock<'a>>,
}

/// An open `attack replay-trace` block.
struct OpBlock {
    untrusted: bool,
    trace: Trace,
    /// Where its `op` lines run, once the first is read.
    span: Option<Span>,
}

/// The `op` lines of a block: from the start of the first to the end
/// of the last, line break included.
struct Span {
    start: usize,
    end: usize,
    first_line: usize,
    last_line: usize,
}

/// An `op` block already parsed: its text and its trace.
struct ParsedBlock<'a> {
    /// The block's `op` lines, as [`Span`] bounds them.
    text: &'a str,
    /// How many lines `text` holds.
    lines: usize,
    trace: Trace,
}

impl<'a> SpecReader<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            records: Records { text, at: 0, lines: 0 },
            spec: ScenarioSpec::default(),
            block: None,
            parsed: Vec::new(),
        }
    }

    /// Applies one record. A parse error names and quotes its line:
    /// every error is the current record's.
    fn feed(&mut self, record: &Record<'a>) -> Result<(), SimError> {
        self.apply(record).map_err(|err| match err {
            SimError::SpecParse { line, reason, .. } => {
                SimError::SpecParse { line, text: record.text.to_owned(), reason }
            }
            other => other,
        })
    }

    fn apply(&mut self, record: &Record<'a>) -> Result<(), SimError> {
        let Record { line, key, rest, .. } = *record;
        if key == "op" {
            return self.op(record);
        }
        self.close_block();
        let spec = &mut self.spec;
        let mut tokens = rest.split_whitespace();
        match key {
            // Empty labels are constructible, so they must parse back
            // (`label` with no value).
            "label" => spec.label = rest.to_owned(),
            "geometry" => {
                let token = one_token(line, &mut tokens)?;
                spec.geometry = GeometrySpec::from_token(token)
                    .ok_or_else(|| parse_error(line, &format!("unknown geometry '{token}'")))?;
            }
            "engine" => {
                let token = one_token(line, &mut tokens)?;
                spec.engine = token.parse().map_err(|e: String| parse_error(line, &e))?;
            }
            "budget" => {
                let fields = Fields::parse(line, tokens)?;
                spec.budget = Budget {
                    max_activations: fields.num("activations")?,
                    check_interval: fields.num("check")?,
                    iterations: fields.num("iterations")?,
                };
                fields.finish()?;
            }
            "eval-batch" => spec.eval_batch = parse_num(line, one_token(line, &mut tokens)?)?,
            "target" => spec.target = parse_num(line, one_token(line, &mut tokens)?)?,
            "victim" => {
                let kind = one_token(line, &mut tokens)?;
                let fields = Fields::parse(line, tokens)?;
                spec.victims.push(parse_victim(line, kind, &fields)?);
                fields.finish()?;
            }
            "attack" => {
                let kind = one_token(line, &mut tokens)?;
                let fields = Fields::parse(line, tokens)?;
                if kind == "replay-trace" {
                    let untrusted = fields.num::<u8>("untrusted")? != 0;
                    self.block = Some(OpBlock { untrusted, trace: Trace::new(), span: None });
                } else {
                    spec.attack = Some(parse_attack(line, kind, &fields)?);
                }
                fields.finish()?;
            }
            "tenant" => {
                let kind = one_token(line, &mut tokens)?;
                let fields = Fields::parse(line, tokens)?;
                let workload = parse_workload(line, kind, &fields)?;
                fields.finish()?;
                match &mut spec.attack {
                    Some(AttackSpec::Replay { tenants }) => tenants.push(workload),
                    _ => {
                        return Err(parse_error(
                            line,
                            "tenant record outside an 'attack replay' block",
                        ))
                    }
                }
            }
            "defense" => {
                let kind = one_token(line, &mut tokens)?;
                let fields = Fields::parse(line, tokens)?;
                spec.defenses.push(parse_defense(line, kind, &fields)?);
                fields.finish()?;
            }
            other => return Err(parse_error(line, &format!("unknown record '{other}'"))),
        }
        Ok(())
    }

    /// Reads one `op` record into the open block. The block's first
    /// record may start a repeat of a block already parsed: when the text
    /// from here on starts with that block's text and no `op` record
    /// follows it, the spec shares that block's trace, and reading
    /// resumes after it with whole-file line numbers kept.
    fn op(&mut self, record: &Record<'a>) -> Result<(), SimError> {
        let Some(block) = &mut self.block else {
            return Err(parse_error(
                record.line,
                "op record outside an 'attack replay-trace' block",
            ));
        };
        if block.span.is_none() {
            let records = &mut self.records;
            let repeated = self.parsed.iter().find(|parsed| records.repeats(record, parsed));
            if let Some(parsed) = repeated {
                self.spec.attack = Some(finish_trace(parsed.trace.clone(), block.untrusted));
                self.block = None;
                records.at = record.start + parsed.text.len();
                records.lines = record.line - 1 + parsed.lines;
                return Ok(());
            }
        }
        // An `op` line holds one trace record; a bare `op` holds none.
        if !record.rest.is_empty() {
            block
                .trace
                .push_record(record.rest)
                .map_err(|e| parse_error(record.line, &format!("embedded trace: {e}")))?;
        }
        let (end, line) = (self.records.at, record.line);
        let span = block.span.get_or_insert(Span {
            start: record.start,
            end,
            first_line: line,
            last_line: line,
        });
        (span.end, span.last_line) = (end, line);
        Ok(())
    }

    /// Closes the open block, if any, into the spec's attack and keeps
    /// its text for the blocks after it.
    fn close_block(&mut self) {
        let Some(block) = self.block.take() else {
            return;
        };
        let trace = block.trace;
        if let Some(span) = block.span {
            self.parsed.push(ParsedBlock {
                text: &self.records.text[span.start..span.end],
                lines: span.last_line + 1 - span.first_line,
                trace: trace.clone(),
            });
        }
        self.spec.attack = Some(finish_trace(trace, block.untrusted));
    }

    /// The spec read so far; the next record starts a default one.
    fn finish(&mut self) -> ScenarioSpec {
        self.close_block();
        std::mem::take(&mut self.spec)
    }
}

fn parse_error(line: usize, reason: &str) -> SimError {
    SimError::SpecParse { line, text: String::new(), reason: reason.to_owned() }
}

fn one_token<'a>(
    line: usize,
    tokens: &mut impl Iterator<Item = &'a str>,
) -> Result<&'a str, SimError> {
    tokens.next().ok_or_else(|| parse_error(line, "record is missing its value"))
}

/// The most `key=value` fields one record may hold, one bit of
/// [`Fields::read`] each. No record kind takes more than 9, so a longer
/// record is rejected before it is read.
const MAX_FIELDS: usize = 16;

/// `key=value` fields of one record, in line order. The record's
/// reader [`get`](Fields::get)s the keys its kind takes, and
/// [`finish`](Fields::finish) then rejects every field it left unread.
struct Fields<'a> {
    line: usize,
    pairs: Vec<(&'a str, &'a str)>,
    /// Bit `i` is set once pair `i` has been read.
    read: Cell<u16>,
}

impl<'a> Fields<'a> {
    fn parse(line: usize, tokens: impl Iterator<Item = &'a str>) -> Result<Self, SimError> {
        let mut pairs = Vec::new();
        for token in tokens {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| parse_error(line, &format!("expected key=value, got '{token}'")))?;
            pairs.push((key, value));
        }
        if pairs.len() > MAX_FIELDS {
            let reason = format!("{} fields, more than any record takes", pairs.len());
            return Err(parse_error(line, &reason));
        }
        Ok(Self { line, pairs, read: Cell::new(0) })
    }

    /// The value of `key`'s first occurrence, which is marked read.
    fn get(&self, key: &str) -> Result<&'a str, SimError> {
        let at = self
            .pairs
            .iter()
            .position(|(k, _)| *k == key)
            .ok_or_else(|| parse_error(self.line, &format!("missing field '{key}'")))?;
        self.read.set(self.read.get() | 1 << at);
        Ok(self.pairs[at].1)
    }

    /// Fails, naming each field left unread, unless the reader read
    /// them all: an unread key is repeated when an earlier field has
    /// it, and unknown otherwise.
    fn finish(&self) -> Result<(), SimError> {
        let read = self.read.get();
        if read.count_ones() as usize == self.pairs.len() {
            return Ok(());
        }
        let offenders: Vec<String> = (0..self.pairs.len())
            .filter(|&i| read & 1 << i == 0)
            .map(|i| {
                let key = self.pairs[i].0;
                let kind = if self.pairs[..i].iter().any(|(k, _)| *k == key) {
                    "repeated"
                } else {
                    "unknown"
                };
                format!("{kind} field '{key}'")
            })
            .collect();
        Err(parse_error(self.line, &offenders.join(", ")))
    }

    fn num<T: TryFrom<u64>>(&self, key: &str) -> Result<T, SimError> {
        parse_num(self.line, self.get(key)?)
    }

    fn float(&self, key: &str) -> Result<f64, SimError> {
        let raw = self.get(key)?;
        raw.parse().map_err(|_| parse_error(self.line, &format!("bad float '{raw}'")))
    }
}

/// Parses a number in the trace records' grammar ([`parse_u64`]) into
/// any unsigned width.
fn parse_num<T: TryFrom<u64>>(line: usize, raw: &str) -> Result<T, SimError> {
    parse_u64(raw)
        .and_then(|v| T::try_from(v).ok())
        .ok_or_else(|| parse_error(line, &format!("bad number '{raw}'")))
}

fn write_victim(out: &mut String, victim: &VictimSpec, home: usize) {
    let protect = u8::from(victim.os_protect);
    match victim.kind {
        SpecKind::RowSpan { first_row, rows, fill } => out.push_str(&format!(
            "victim rows home={home} protect={protect} first={first_row} count={rows} fill={fill:#x}\n"
        )),
        SpecKind::Model { model, seed, base_phys } => out.push_str(&format!(
            "victim model home={home} protect={protect} kind={} seed={seed} base={base_phys:#x}\n",
            model.token()
        )),
        SpecKind::Paged { model, seed, page_size, first_pfn, table_base } => out.push_str(&format!(
            "victim paged home={home} protect={protect} kind={} seed={seed} page={page_size} pfn={first_pfn} table={table_base:#x}\n",
            model.token()
        )),
    }
}

fn parse_victim(
    line: usize,
    kind: &str,
    fields: &Fields<'_>,
) -> Result<(VictimSpec, usize), SimError> {
    let home = fields.num("home")?;
    let os_protect = fields.num::<u8>("protect")? != 0;
    let model_kind = |key: &str| -> Result<ModelKind, SimError> {
        let token = fields.get(key)?;
        ModelKind::from_token(token)
            .ok_or_else(|| parse_error(line, &format!("unknown model kind '{token}'")))
    };
    let spec_kind = match kind {
        "rows" => SpecKind::RowSpan {
            first_row: fields.num("first")?,
            rows: fields.num("count")?,
            fill: fields.num("fill")?,
        },
        "model" => SpecKind::Model {
            model: model_kind("kind")?,
            seed: fields.num("seed")?,
            base_phys: fields.num("base")?,
        },
        "paged" => SpecKind::Paged {
            model: model_kind("kind")?,
            seed: fields.num("seed")?,
            page_size: fields.num("page")?,
            first_pfn: fields.num("pfn")?,
            table_base: fields.num("table")?,
        },
        other => return Err(parse_error(line, &format!("unknown victim kind '{other}'"))),
    };
    Ok((VictimSpec { kind: spec_kind, os_protect }, home))
}

fn write_attack(out: &mut String, attack: &AttackSpec) {
    match attack {
        AttackSpec::Hammer { bit } => out.push_str(&format!("attack hammer bit={bit}\n")),
        AttackSpec::RowProbe { accesses } => {
            out.push_str(&format!("attack row-probe accesses={accesses}\n"));
        }
        AttackSpec::BfaHammer { batch } => {
            out.push_str(&format!("attack bfa-hammer batch={batch}\n"));
        }
        AttackSpec::ProgressiveBfa { success_rate, seed, config } => {
            let bits = match config.bits_considered {
                Some([lo, hi]) => format!("{lo},{hi}"),
                None => "all".to_owned(),
            };
            out.push_str(&format!(
                "attack progressive-bfa rate={success_rate} seed={seed} candidates={} bits={bits}\n",
                config.candidates_per_layer
            ));
        }
        AttackSpec::RandomFlip { seed } => {
            out.push_str(&format!("attack random-flip seed={seed}\n"));
        }
        AttackSpec::PageTable { pfn_bit, payload_xor } => {
            out.push_str(&format!("attack page-table pfn-bit={pfn_bit} xor={payload_xor:#x}\n"));
        }
        AttackSpec::InferenceStream { batches, chunk } => {
            out.push_str(&format!("attack inference batches={batches} chunk={chunk}\n"));
        }
        AttackSpec::WeightFetch { samples, chunk, channel } => out.push_str(&format!(
            "attack weight-fetch samples={samples} chunk={chunk} channel={channel}\n"
        )),
        AttackSpec::Replay { tenants } => {
            out.push_str("attack replay\n");
            for tenant in tenants {
                write_workload(out, tenant);
            }
        }
        AttackSpec::ReplayTrace { trace } => {
            out.push_str(&format!("attack replay-trace untrusted={}\n", u8::from(trace.untrusted)));
            // One trace-file record per `op` line; the trust flag, the
            // trace file's header, rides on the attack line.
            trace.write_records(out, "op ");
        }
    }
}

fn parse_attack(line: usize, kind: &str, fields: &Fields<'_>) -> Result<AttackSpec, SimError> {
    Ok(match kind {
        "hammer" => AttackSpec::Hammer { bit: fields.num("bit")? },
        "row-probe" => AttackSpec::RowProbe { accesses: fields.num("accesses")? },
        "bfa-hammer" => AttackSpec::BfaHammer { batch: fields.num("batch")? },
        "progressive-bfa" => {
            let bits = fields.get("bits")?;
            let bits_considered = if bits == "all" {
                None
            } else {
                let (lo, hi) = bits
                    .split_once(',')
                    .ok_or_else(|| parse_error(line, &format!("bad bits '{bits}'")))?;
                Some([parse_num(line, lo)?, parse_num(line, hi)?])
            };
            AttackSpec::ProgressiveBfa {
                success_rate: fields.float("rate")?,
                seed: fields.num("seed")?,
                config: BfaConfig {
                    candidates_per_layer: fields.num("candidates")?,
                    bits_considered,
                },
            }
        }
        "random-flip" => AttackSpec::RandomFlip { seed: fields.num("seed")? },
        "page-table" => AttackSpec::PageTable {
            pfn_bit: fields.num("pfn-bit")?,
            payload_xor: fields.num("xor")?,
        },
        "inference" => AttackSpec::InferenceStream {
            batches: fields.num("batches")?,
            chunk: fields.num("chunk")?,
        },
        "weight-fetch" => AttackSpec::WeightFetch {
            samples: fields.num("samples")?,
            chunk: fields.num("chunk")?,
            channel: fields.num("channel")?,
        },
        "replay" => AttackSpec::Replay { tenants: Vec::new() },
        other => return Err(parse_error(line, &format!("unknown attack '{other}'"))),
    })
}

/// The `attack replay-trace` block's attack, once its `op` records end:
/// their trace, under the block's own trust flag.
fn finish_trace(mut trace: Trace, untrusted: bool) -> AttackSpec {
    trace.untrusted = untrusted;
    AttackSpec::ReplayTrace { trace }
}

fn write_workload(out: &mut String, workload: &Workload) {
    match *workload {
        Workload::Sequential { base, len, count } => {
            out.push_str(&format!("tenant sequential base={base:#x} len={len} count={count}\n"));
        }
        Workload::Strided { base, stride, len, count } => out.push_str(&format!(
            "tenant strided base={base:#x} stride={stride} len={len} count={count}\n"
        )),
        Workload::PointerChase { base, span, len, count, seed } => out.push_str(&format!(
            "tenant chase base={base:#x} span={span} len={len} count={count} seed={seed}\n"
        )),
        Workload::HammerLoop { addr_a, addr_b, iterations } => out.push_str(&format!(
            "tenant hammer-loop a={addr_a:#x} b={addr_b:#x} iterations={iterations}\n"
        )),
    }
}

fn parse_workload(line: usize, kind: &str, fields: &Fields<'_>) -> Result<Workload, SimError> {
    Ok(match kind {
        "sequential" => Workload::Sequential {
            base: fields.num("base")?,
            len: fields.num("len")?,
            count: fields.num("count")?,
        },
        "strided" => Workload::Strided {
            base: fields.num("base")?,
            stride: fields.num("stride")?,
            len: fields.num("len")?,
            count: fields.num("count")?,
        },
        "chase" => Workload::PointerChase {
            base: fields.num("base")?,
            span: fields.num("span")?,
            len: fields.num("len")?,
            count: fields.num("count")?,
            seed: fields.num("seed")?,
        },
        "hammer-loop" => Workload::HammerLoop {
            addr_a: fields.num("a")?,
            addr_b: fields.num("b")?,
            iterations: fields.num("iterations")?,
        },
        other => return Err(parse_error(line, &format!("unknown workload '{other}'"))),
    })
}

fn lock_target_token(target: LockTarget) -> &'static str {
    match target {
        LockTarget::AdjacentRows => "adjacent",
        LockTarget::DataRows => "data",
        LockTarget::Both => "both",
    }
}

fn parse_lock_target(line: usize, token: &str) -> Result<LockTarget, SimError> {
    match token {
        "adjacent" => Ok(LockTarget::AdjacentRows),
        "data" => Ok(LockTarget::DataRows),
        "both" => Ok(LockTarget::Both),
        other => Err(parse_error(line, &format!("unknown lock target '{other}'"))),
    }
}

fn write_defense(out: &mut String, defense: &DefenseSpec) {
    match defense {
        DefenseSpec::Locker { config, target, radius } => out.push_str(&format!(
            "defense dram-locker target={} radius={radius} relock={} table={} entry={} \
             check={} copy-err={} free={} seed={}\n",
            lock_target_token(*target),
            config.relock_interval,
            config.table_capacity_bytes,
            config.entry_bytes,
            config.check_cycles,
            config.copy_error_rate,
            config.free_rows_per_subarray,
            config.seed,
        )),
        DefenseSpec::Graphene { capacity, threshold } => out.push_str(&format!(
            "defense graphene capacity={capacity} threshold={threshold}\n"
        )),
        DefenseSpec::Hydra { group_size, group_threshold, row_threshold } => out.push_str(&format!(
            "defense hydra group={group_size} group-threshold={group_threshold} row-threshold={row_threshold}\n"
        )),
        DefenseSpec::Twice { threshold, prune_interval, prune_rate } => out.push_str(&format!(
            "defense twice threshold={threshold} prune-interval={prune_interval} prune-rate={prune_rate}\n"
        )),
        DefenseSpec::CounterPerRow { threshold } => {
            out.push_str(&format!("defense counter-per-row threshold={threshold}\n"));
        }
        DefenseSpec::RowSwap { policy, threshold, seed } => {
            let kind = match policy {
                SwapPolicy::Randomized => "rrs",
                SwapPolicy::Secure => "srs",
            };
            out.push_str(&format!("defense {kind} threshold={threshold} seed={seed}\n"));
        }
        DefenseSpec::Shadow { threshold, seed } => {
            out.push_str(&format!("defense shadow threshold={threshold} seed={seed}\n"));
        }
    }
}

fn parse_defense(line: usize, kind: &str, fields: &Fields<'_>) -> Result<DefenseSpec, SimError> {
    Ok(match kind {
        "dram-locker" => DefenseSpec::Locker {
            config: LockerConfig {
                relock_interval: fields.num("relock")?,
                table_capacity_bytes: fields.num("table")?,
                entry_bytes: fields.num("entry")?,
                check_cycles: fields.num("check")?,
                copy_error_rate: fields.float("copy-err")?,
                free_rows_per_subarray: fields.num("free")?,
                seed: fields.num("seed")?,
            },
            target: parse_lock_target(line, fields.get("target")?)?,
            radius: fields.num("radius")?,
        },
        "graphene" => DefenseSpec::Graphene {
            capacity: fields.num("capacity")?,
            threshold: fields.num("threshold")?,
        },
        "hydra" => DefenseSpec::Hydra {
            group_size: fields.num("group")?,
            group_threshold: fields.num("group-threshold")?,
            row_threshold: fields.num("row-threshold")?,
        },
        "twice" => DefenseSpec::Twice {
            threshold: fields.num("threshold")?,
            prune_interval: fields.num("prune-interval")?,
            prune_rate: fields.num("prune-rate")?,
        },
        "counter-per-row" => DefenseSpec::CounterPerRow { threshold: fields.num("threshold")? },
        "rrs" => DefenseSpec::RowSwap {
            policy: SwapPolicy::Randomized,
            threshold: fields.num("threshold")?,
            seed: fields.num("seed")?,
        },
        "srs" => DefenseSpec::RowSwap {
            policy: SwapPolicy::Secure,
            threshold: fields.num("threshold")?,
            seed: fields.num("seed")?,
        },
        "shadow" => {
            DefenseSpec::Shadow { threshold: fields.num("threshold")?, seed: fields.num("seed")? }
        }
        other => return Err(parse_error(line, &format!("unknown defense '{other}'"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::victim::VictimSpec;

    fn rich_spec() -> ScenarioSpec {
        ScenarioSpec {
            label: "codec coverage".to_owned(),
            geometry: GeometrySpec::Paper,
            engine: EngineConfig::sharded(4),
            victims: vec![
                (VictimSpec::row(20, 0xA5), 0),
                (VictimSpec::model(ModelKind::TinyCnn, 7, 0x400), 1),
                (VictimSpec::paged(ModelKind::Tiny, 21).with_paging(128, 9, 0x2000), 2),
            ],
            attack: Some(AttackSpec::tenants(vec![
                Workload::Sequential { base: 0, len: 8, count: 400 },
                Workload::Strided { base: 64, stride: 256, len: 4, count: 200 },
                Workload::PointerChase { base: 0, span: 32768, len: 8, count: 400, seed: 11 },
                Workload::HammerLoop { addr_a: 4864, addr_b: 5376, iterations: 200 },
            ])),
            defenses: vec![DefenseSpec::locker_adjacent(), DefenseSpec::graphene(64, 8)],
            budget: Budget { max_activations: 123, check_interval: 4, iterations: 9 },
            eval_batch: 48,
            target: 1,
        }
    }

    #[test]
    fn rich_spec_round_trips() {
        let spec = rich_spec();
        let text = spec.to_text();
        let parsed = ScenarioSpec::from_text(&text).unwrap();
        assert_eq!(parsed, spec, "{text}");
    }

    #[test]
    fn embedded_trace_round_trips() {
        let mut trace = Workload::Sequential { base: 0, len: 8, count: 3 }.trace();
        trace.untrusted = true;
        let spec =
            ScenarioSpec { attack: Some(AttackSpec::trace(trace)), ..ScenarioSpec::new("trace") };
        let parsed = ScenarioSpec::from_text(&spec.to_text()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn progressive_bfa_floats_round_trip_exactly() {
        for rate in [0.096_f64, 1.0, 0.5, 1.0 / 3.0, f64::MIN_POSITIVE] {
            let spec = ScenarioSpec {
                attack: Some(AttackSpec::ProgressiveBfa {
                    success_rate: rate,
                    seed: 8,
                    config: BfaConfig::default(),
                }),
                ..ScenarioSpec::new("float")
            };
            let parsed = ScenarioSpec::from_text(&spec.to_text()).unwrap();
            assert_eq!(parsed, spec, "rate {rate}");
        }
    }

    #[test]
    fn partial_files_fill_in_defaults() {
        let spec = ScenarioSpec::from_text("label only-a-label\n").unwrap();
        assert_eq!(spec.label, "only-a-label");
        assert_eq!(spec.geometry, GeometrySpec::Tiny);
        assert_eq!(spec.engine, EngineConfig::serial());
        assert!(spec.victims.is_empty() && spec.attack.is_none());
        assert_eq!(ScenarioSpec::from_text("").unwrap(), ScenarioSpec::default());
    }

    #[test]
    fn pathological_labels_serialize_to_parseable_normalized_form() {
        for (label, normalized) in [
            ("", ""),
            ("   ", ""),
            ("two\nlines\r\n", "two lines"),
            ("# looks like a comment", "# looks like a comment"),
            ("  padded  ", "padded"),
        ] {
            let spec = ScenarioSpec::new(label);
            let parsed = ScenarioSpec::from_text(&spec.to_text())
                .unwrap_or_else(|e| panic!("label {label:?} must stay parseable: {e}"));
            assert_eq!(parsed.label, normalized, "label {label:?}");
            // Normalized labels are a codec fixed point.
            assert_eq!(ScenarioSpec::from_text(&parsed.to_text()).unwrap(), parsed);
        }
    }

    #[test]
    fn spec_lists_split_on_label_records() {
        let specs = vec![rich_spec(), ScenarioSpec::new("second"), ScenarioSpec::new("third")];
        let text: String = specs.iter().map(ScenarioSpec::to_text).collect();
        let parsed = ScenarioSpec::list_from_text(&text).unwrap();
        assert_eq!(parsed, specs);
        // A single spec with its label mid-file stays one spec.
        let parsed = ScenarioSpec::list_from_text("geometry paper\nlabel late\n").unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].label, "late");
        assert_eq!(parsed[0].geometry, GeometrySpec::Paper);
        // Comment-only files are an empty list, not a default spec.
        assert_eq!(ScenarioSpec::list_from_text("# nothing here\n\n").unwrap(), vec![]);
    }

    #[test]
    fn spec_list_errors_keep_whole_file_line_numbers() {
        let mut text = ScenarioSpec::new("one").to_text();
        text.push_str(&ScenarioSpec::new("two").to_text());
        text.push_str("defense bogus\n");
        let err = ScenarioSpec::list_from_text(&text).unwrap_err();
        let expected_line = text.lines().count();
        match err {
            SimError::SpecParse { line, ref text, .. } => {
                assert_eq!(line, expected_line);
                assert_eq!(text, "defense bogus");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = ScenarioSpec::from_text("label x\nbogus record\n").unwrap_err();
        assert!(matches!(err, SimError::SpecParse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("2 | bogus record"), "{err}");
        let err = ScenarioSpec::from_text("victim rows home=0\n").unwrap_err();
        assert!(err.to_string().contains("protect"), "{err}");
        let err = ScenarioSpec::from_text("tenant sequential base=0 len=8 count=1\n").unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
        let err = ScenarioSpec::from_text("op R 0x0 1\n").unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
    }

    /// The record framer before `Records`: `str::lines`, `trim` and
    /// `split_once(char::is_whitespace)`.
    fn lines_reference(text: &str) -> Vec<(usize, &str, &str, &str)> {
        let records = text.lines().enumerate().filter_map(|(index, raw)| {
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                return None;
            }
            let (key, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
            Some((index + 1, text, key, rest.trim_start()))
        });
        records.collect()
    }

    #[test]
    fn records_agree_with_the_lines_reference() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        const PIECES: &[&str] = &[
            "op", "op ", "opx", "label", " ", "\t", "\u{b}", "\r", "\n", "\n", "\r\n", "\u{3000}",
            "\u{a0}", "\u{200b}", "#", "R", "0x1", "\u{e9}",
        ];
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..5_000 {
            let text: String = (0..rng.random_range(0usize..24))
                .map(|_| PIECES[rng.random_range(0..PIECES.len())])
                .collect();
            let records: Vec<Record<'_>> = Records { text: &text, at: 0, lines: 0 }.collect();
            for record in &records {
                let raw = text[record.start..].lines().next().unwrap_or("");
                assert_eq!(raw.trim(), record.text, "{text:?}");
            }
            let got: Vec<_> = records.iter().map(|r| (r.line, r.text, r.key, r.rest)).collect();
            assert_eq!(got, lines_reference(&text), "{text:?}");
        }
    }

    #[test]
    fn geometry_tokens_cover_every_preset() {
        for preset in GeometrySpec::ALL {
            assert_eq!(GeometrySpec::from_token(preset.token()), Some(preset));
        }
        assert_eq!(GeometrySpec::from_token("huge"), None);
    }

    /// The `{`-to-`}` block of the item whose first line contains
    /// `header`, in rustfmt's layout: it ends at the first `}` line
    /// indented like the header.
    fn block<'a>(source: &'a str, header: &str) -> &'a str {
        let start = source.find(header).unwrap_or_else(|| panic!("no `{header}`"));
        let start = source[..start].rfind('\n').map_or(0, |at| at + 1);
        let indent = &source[start..start + source[start..].find(|c| c != ' ').unwrap_or(0)];
        let end = source[start..].find(&format!("\n{indent}}}\n")).expect("closing brace");
        &source[start..start + end]
    }

    /// DLK004, the reading direction: the reader of each codec enum
    /// builds every variant. The writers are `match`es without a
    /// wildcard arm, so rustc checks the writing direction. Variants are
    /// read off the enum's rustfmt layout (one indent step in, a
    /// capitalized name), which `cargo fmt --check` keeps canonical.
    #[test]
    fn every_codec_variant_has_a_reader() {
        let spec = include_str!("spec.rs");
        let workload = include_str!("../../engine/src/workload.rs");
        let trace = include_str!("../../memctrl/src/trace.rs");
        let codecs: [(&str, &str, &str, &[&str]); 5] = [
            ("AttackSpec", spec, spec, &["fn parse_attack(", "fn finish_trace("]),
            ("DefenseSpec", spec, spec, &["fn parse_defense("]),
            ("SpecKind", include_str!("victim.rs"), spec, &["fn parse_victim("]),
            ("Workload", workload, spec, &["fn parse_workload("]),
            ("TraceOp", trace, trace, &["fn parse_record("]),
        ];
        for (name, enum_source, reader_source, readers) in codecs {
            let read: String = readers.iter().map(|header| block(reader_source, header)).collect();
            let mut variants = 0;
            for line in block(enum_source, &format!("enum {name} {{")).lines() {
                let Some(line) = line.strip_prefix("    ") else { continue };
                if !line.starts_with(|c: char| c.is_ascii_uppercase()) {
                    continue;
                }
                let variant = line.split(|c: char| !c.is_ascii_alphanumeric()).next().unwrap_or("");
                let path = format!("{name}::{variant}");
                let built = read.match_indices(&path).any(|(at, _)| {
                    !read[at + path.len()..].starts_with(|c: char| c.is_ascii_alphanumeric())
                });
                assert!(built, "{path} is never built by its reader ({})", readers.join(", "));
                variants += 1;
            }
            assert!(variants >= 2, "{name}: only {variants} variants read off its layout");
        }
    }
}
