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
//! The vendored `serde` is marker-only, so the line-oriented
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

use dlk_attacks::bfa::BfaConfig;
use dlk_defenses::SwapPolicy;
use dlk_dnn::models::ModelKind;
use dlk_engine::{EngineConfig, Workload};
use dlk_locker::{LockTarget, LockerConfig};
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
            GeometrySpec::Ddr4 => {
                MemCtrlConfig { dram: dlk_dram::DramConfig::ddr4(), ..MemCtrlConfig::default() }
            }
            GeometrySpec::Lpddr4 => {
                MemCtrlConfig { dram: dlk_dram::DramConfig::lpddr4(), ..MemCtrlConfig::default() }
            }
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

    /// Serializes the spec to the line-oriented spec-file format (the
    /// vendored `serde` is marker-only, so this codec *is* the on-disk
    /// representation).
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
    /// are valid.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SpecParse`] with the offending 1-based line
    /// number *and* the offending line's content, so front ends (the
    /// `dlk` CLI) can print actionable parse failures.
    pub fn from_text(text: &str) -> Result<Self, SimError> {
        Self::parse_text(text).map_err(|err| attach_line_text(err, text))
    }

    fn parse_text(text: &str) -> Result<Self, SimError> {
        let mut spec = ScenarioSpec::default();
        // `tenant`/`op` continuation lines attach to the most recent
        // `attack replay` / `attack replay-trace` record.
        let mut pending_trace: Option<(usize, bool, String)> = None;
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let record = raw.trim();
            if record.is_empty() || record.starts_with('#') {
                continue;
            }
            let mut tokens = record.split_whitespace();
            let key = tokens.next().expect("non-empty record");
            if key != "op" {
                // Any other record closes an embedded trace.
                if let Some((at, untrusted, body)) = pending_trace.take() {
                    spec.attack = Some(finish_trace(at, untrusted, &body)?);
                }
            }
            match key {
                "label" => {
                    // Empty labels are constructible, so they must
                    // parse back (`label` with no value).
                    let rest = record.strip_prefix("label").expect("checked").trim();
                    spec.label = rest.to_owned();
                }
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
                }
                "eval-batch" => spec.eval_batch = parse_num(line, one_token(line, &mut tokens)?)?,
                "target" => spec.target = parse_num(line, one_token(line, &mut tokens)?)?,
                "victim" => {
                    let kind = one_token(line, &mut tokens)?;
                    let fields = Fields::parse(line, tokens)?;
                    spec.victims.push(parse_victim(line, kind, &fields)?);
                }
                "attack" => {
                    let kind = one_token(line, &mut tokens)?;
                    let fields = Fields::parse(line, tokens)?;
                    if kind == "replay-trace" {
                        let untrusted = fields.num::<u8>("untrusted")? != 0;
                        pending_trace = Some((line, untrusted, String::new()));
                    } else {
                        spec.attack = Some(parse_attack(line, kind, &fields)?);
                    }
                }
                "tenant" => {
                    let kind = one_token(line, &mut tokens)?;
                    let fields = Fields::parse(line, tokens)?;
                    let workload = parse_workload(line, kind, &fields)?;
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
                "op" => match &mut pending_trace {
                    Some((_, _, body)) => {
                        let rest = record.strip_prefix("op").expect("checked").trim();
                        body.push_str(rest);
                        body.push('\n');
                    }
                    None => {
                        return Err(parse_error(
                            line,
                            "op record outside an 'attack replay-trace' block",
                        ))
                    }
                },
                "defense" => {
                    let kind = one_token(line, &mut tokens)?;
                    let fields = Fields::parse(line, tokens)?;
                    spec.defenses.push(parse_defense(line, kind, &fields)?);
                }
                other => {
                    return Err(parse_error(line, &format!("unknown record '{other}'")));
                }
            }
        }
        if let Some((at, untrusted, body)) = pending_trace.take() {
            spec.attack = Some(finish_trace(at, untrusted, &body)?);
        }
        Ok(spec)
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
    /// grids and spool files are plain concatenations. Parse errors
    /// keep whole-file line numbers. Files holding only comments and
    /// blank lines parse to an empty list.
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
        let mut chunks: Vec<(usize, String)> = Vec::new(); // (0-based start line, body)
        let mut current = String::new();
        let mut start = 0usize;
        let mut has_label = false;
        let mut has_record = false;
        for (index, raw) in text.lines().enumerate() {
            let record = raw.trim();
            let is_record = !record.is_empty() && !record.starts_with('#');
            if is_record && record.split_whitespace().next() == Some("label") {
                if has_label {
                    chunks.push((start, std::mem::take(&mut current)));
                    start = index;
                    has_record = false;
                }
                has_label = true;
            }
            current.push_str(raw);
            current.push('\n');
            has_record |= is_record;
        }
        if has_record {
            chunks.push((start, current));
        }
        chunks
            .into_iter()
            .map(|(start, body)| {
                // Left-pad with the chunk's offset so errors report
                // whole-file line numbers (the padding lines are blank
                // and skipped by the parser).
                let padded = "\n".repeat(start) + &body;
                Self::from_text(&padded).map(|spec| (start + 1, spec))
            })
            .collect()
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

/// Fills an empty [`SimError::SpecParse`] `text` field with the
/// offending line's (trimmed) content from the source being parsed.
fn attach_line_text(err: SimError, source: &str) -> SimError {
    match err {
        SimError::SpecParse { line, text, reason } if text.is_empty() => {
            let content = source.lines().nth(line.saturating_sub(1)).unwrap_or("").trim();
            SimError::SpecParse { line, text: content.to_owned(), reason }
        }
        other => other,
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

/// `key=value` fields of one record, in line order.
struct Fields<'a> {
    line: usize,
    pairs: Vec<(&'a str, &'a str)>,
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
        Ok(Self { line, pairs })
    }

    fn get(&self, key: &str) -> Result<&'a str, SimError> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| parse_error(self.line, &format!("missing field '{key}'")))
    }

    fn num<T: TryFrom<u64>>(&self, key: &str) -> Result<T, SimError> {
        parse_num(self.line, self.get(key)?)
    }

    fn float(&self, key: &str) -> Result<f64, SimError> {
        let raw = self.get(key)?;
        raw.parse().map_err(|_| parse_error(self.line, &format!("bad float '{raw}'")))
    }
}

/// Parses a decimal or `0x`-prefixed integer into any unsigned width.
fn parse_num<T: TryFrom<u64>>(line: usize, raw: &str) -> Result<T, SimError> {
    let value = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    };
    value
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
            // Reuse the trace codec, re-keyed line by line (its header
            // carries only the trust flag, already on the attack line).
            for line in trace.to_text().lines().skip(1) {
                out.push_str("op ");
                out.push_str(line);
                out.push('\n');
            }
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

fn finish_trace(line: usize, untrusted: bool, body: &str) -> Result<AttackSpec, SimError> {
    let text = format!("# dlk-trace v1 untrusted={}\n{body}", u8::from(untrusted));
    let trace =
        Trace::from_text(&text).map_err(|e| parse_error(line, &format!("embedded trace: {e}")))?;
    Ok(AttackSpec::ReplayTrace { trace })
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

    #[test]
    fn geometry_tokens_cover_every_preset() {
        for preset in GeometrySpec::ALL {
            assert_eq!(GeometrySpec::from_token(preset.token()), Some(preset));
        }
        assert_eq!(GeometrySpec::from_token("huge"), None);
    }
}
