//! The spec rules: which [`ScenarioSpec`]s may run.
//!
//! [`ScenarioSpec::check`] is the one statement of the rules a single
//! spec must meet, each under a stable [`RuleCode`]:
//!
//! - DLK101: every victim's home channel, and a `weight-fetch`
//!   channel, exists on the engine;
//! - DLK103: the budget fields the attack reads let its loop run (and
//!   are plausibly sized), accuracy has a sample and a read a byte;
//! - DLK104: the target names a deployed victim, the attack runs
//!   against it ([`AttackSpec::check_victim`]), and a `progressive-bfa`
//!   search has candidates and an 8-bit window;
//! - DLK105: a defense stack mounts each mitigation at most once.
//!
//! [`ScenarioBuilder::build`](crate::ScenarioBuilder::build) refuses a
//! spec at its first error-severity [`Finding`], so the library,
//! `dlk run`, `dlk sweep`, `dlk serve` and `dlk check` accept and
//! refuse a spec alike. `dlk check` prints every finding at its
//! record's `file:line:col`, and adds DLK102 (duplicate labels across a
//! spec list), which no single spec can break.

use crate::spec::{AttackSpec, ScenarioSpec};
use crate::victim::VictimSpec;

/// Budgets above these bounds are almost certainly a typo'd unit
/// (warnings, not errors: someone may really mean them).
const ABSURD_ACTIVATIONS: u64 = 1_000_000_000;
const ABSURD_ITERATIONS: u64 = 100_000;

/// Every spec rule, with a stable code. Codes are part of the stable
/// interface: build errors, `dlk check` output and CI logs name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleCode {
    /// Victim home channel (or weight-fetch channel) out of range for
    /// the spec's engine configuration.
    Dlk101,
    /// Duplicate labels in a spec list file (`dlk check` only).
    Dlk102,
    /// A zero (error) or absurd (warning) budget field that the attack
    /// reads, a zero eval batch, or a zero read chunk.
    Dlk103,
    /// Target index out of range, an attack aimed at a victim it does
    /// not run against, or a bad `progressive-bfa` search window.
    Dlk104,
    /// Duplicate mitigation in a defense stack.
    Dlk105,
}

impl RuleCode {
    /// The stable code string (`DLK101`…), as printed.
    pub fn code(self) -> &'static str {
        match self {
            RuleCode::Dlk101 => "DLK101",
            RuleCode::Dlk102 => "DLK102",
            RuleCode::Dlk103 => "DLK103",
            RuleCode::Dlk104 => "DLK104",
            RuleCode::Dlk105 => "DLK105",
        }
    }
}

impl std::fmt::Display for RuleCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// How bad a finding is. Only errors stop a build or fail `dlk check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; never blocks.
    Warning,
    /// A spec that cannot mean what its author wanted; never runs.
    Error,
}

impl Severity {
    /// The rendered tag (`error` / `warning`).
    pub fn tag(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One rule a spec breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule.
    pub code: RuleCode,
    /// Error or warning.
    pub severity: Severity,
    /// The record the finding names: its spec-file key and which
    /// occurrence of that key, e.g. `("defense", 1)` for the second
    /// defense.
    pub record: (&'static str, usize),
    /// What is wrong, in one sentence.
    pub message: String,
}

impl Finding {
    fn error(code: RuleCode, record: (&'static str, usize), message: String) -> Self {
        Self { code, severity: Severity::Error, record, message }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Which [`Budget`](crate::Budget) fields `attack` reads when it runs:
/// `(activations and check, iterations)`. The hammer campaigns read
/// the first two (`hammer_config`), the flip campaigns the third
/// (`flip_campaign`).
fn budget_reads(attack: &AttackSpec) -> (bool, bool) {
    match attack {
        AttackSpec::Hammer { .. } | AttackSpec::BfaHammer { .. } | AttackSpec::PageTable { .. } => {
            (true, false)
        }
        AttackSpec::ProgressiveBfa { .. } | AttackSpec::RandomFlip { .. } => (false, true),
        AttackSpec::RowProbe { .. }
        | AttackSpec::InferenceStream { .. }
        | AttackSpec::Replay { .. }
        | AttackSpec::ReplayTrace { .. }
        | AttackSpec::WeightFetch { .. } => (false, false),
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

impl ScenarioSpec {
    /// Every rule this spec breaks, in rule order: empty for a spec
    /// that may run, and then nothing is allocated. A spec with an
    /// error-severity finding never builds.
    pub fn check(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        let channels = self.engine.channels;

        // DLK101: every home channel must exist on the engine.
        for (at, (_, home)) in self.victims.iter().enumerate() {
            if *home >= channels {
                findings.push(Finding::error(
                    RuleCode::Dlk101,
                    ("victim", at),
                    format!(
                        "victim home={home} out of range: engine '{}' has {channels} channel{}",
                        self.engine,
                        plural(channels)
                    ),
                ));
            }
        }
        if let Some(AttackSpec::WeightFetch { channel, .. }) = &self.attack {
            if *channel >= channels {
                findings.push(Finding::error(
                    RuleCode::Dlk101,
                    ("attack", 0),
                    format!(
                        "weight-fetch channel={channel} out of range: engine '{}' has {channels} channel{}",
                        self.engine,
                        plural(channels)
                    ),
                ));
            }
        }

        // DLK103: the budget fields the attack reads must let its loop
        // run, and be plausibly sized; accuracy needs a sample and a
        // read a byte.
        let (hammers, flips) = self.attack.as_ref().map_or((false, false), budget_reads);
        let budget = &self.budget;
        for (read, field, value, absurd) in [
            (hammers, "activations", budget.max_activations, ABSURD_ACTIVATIONS),
            // `check` has no upper bound.
            (hammers, "check", budget.check_interval, u64::MAX),
            (flips, "iterations", budget.iterations as u64, ABSURD_ITERATIONS),
        ] {
            if read && value == 0 {
                findings.push(Finding::error(
                    RuleCode::Dlk103,
                    ("budget", 0),
                    format!("budget {field}=0: the attack loop would never run"),
                ));
            } else if read && value > absurd {
                findings.push(Finding {
                    code: RuleCode::Dlk103,
                    severity: Severity::Warning,
                    record: ("budget", 0),
                    message: format!("budget {field}={value} exceeds {absurd}: likely a unit typo"),
                });
            }
        }
        if self.eval_batch == 0 {
            findings.push(Finding::error(
                RuleCode::Dlk103,
                ("eval-batch", 0),
                "eval-batch 0: accuracy would be measured on no samples".to_owned(),
            ));
        }
        if let Some(
            attack @ (AttackSpec::InferenceStream { chunk: 0, .. }
            | AttackSpec::WeightFetch { chunk: 0, .. }),
        ) = &self.attack
        {
            findings.push(Finding::error(
                RuleCode::Dlk103,
                ("attack", 0),
                format!("{} chunk=0: every read would be empty", attack.token()),
            ));
        }

        // DLK104: the target index must name a deployed victim, and the
        // attack must run against it.
        let target_victim = self.victims.get(self.target).map(|(victim, _)| victim);
        if target_victim.is_none() {
            findings.push(Finding::error(
                RuleCode::Dlk104,
                ("target", 0),
                format!(
                    "target {} out of range: spec deploys {} victim{}",
                    self.target,
                    self.victims.len(),
                    plural(self.victims.len())
                ),
            ));
        }
        if let Some(attack) = &self.attack {
            if let Some(Err(mismatch)) = target_victim.map(|victim| attack.check_victim(victim)) {
                findings.push(Finding::error(
                    RuleCode::Dlk104,
                    ("attack", 0),
                    format!("target {}: {mismatch}", self.target),
                ));
            }
            if let AttackSpec::ProgressiveBfa { config, .. } = attack {
                if config.candidates_per_layer == 0 {
                    let pool = target_victim
                        .and_then(VictimSpec::model_kind)
                        .map(|kind| {
                            format!(
                                " ({} has {} weighted layers)",
                                kind.token(),
                                kind.weighted_layers()
                            )
                        })
                        .unwrap_or_default();
                    findings.push(Finding::error(
                        RuleCode::Dlk104,
                        ("attack", 0),
                        format!("progressive-bfa candidates=0: no bits per weighted layer{pool}"),
                    ));
                }
                if let Some([lo, hi]) = config.bits_considered {
                    if lo > hi || hi > 7 {
                        findings.push(Finding::error(
                            RuleCode::Dlk104,
                            ("attack", 0),
                            format!(
                                "progressive-bfa bits={lo},{hi}: weights are 8-bit (bits 0..=7)"
                            ),
                        ));
                    }
                }
            }
        }

        // DLK105: a defense stack mounts each mitigation at most once.
        for (at, defense) in self.defenses.iter().enumerate() {
            if self.defenses[..at].iter().any(|earlier| earlier.name() == defense.name()) {
                findings.push(Finding::error(
                    RuleCode::Dlk105,
                    ("defense", at),
                    format!("defense '{}' mounted twice in the stack", defense.name()),
                ));
            }
        }

        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, SimError};

    /// Planted specs, each with the findings `check` must report: one
    /// per way to break each error rule, the victimless spec, budget
    /// warnings, and clean shapes the rules must pass, fig8's
    /// `activations=0` among them. `from_spec` refuses a spec exactly
    /// when `check` holds an error, with that error's text.
    #[test]
    fn build_refuses_exactly_the_specs_with_an_error() {
        let rows = "victim rows home=0 protect=0 first=20 count=1 fill=0xa5";
        let model = "victim model home=0 protect=1 kind=tiny seed=42 base=0x400";
        let hammer =
            format!("budget activations=4000 check=8 iterations=1\n{rows}\nattack hammer bit=7");
        let flips = format!("budget activations=0 check=1 iterations=3\n{model}");
        let bfa = format!("{flips}\nattack progressive-bfa rate=1 seed=8");
        let random = "attack random-flip seed=1";
        let replay = "attack replay\ntenant sequential base=0x0 len=8 count=4";
        let swaps = "defense rrs threshold=800 seed=1\ndefense srs threshold=800 seed=1";
        let graphene = "defense graphene capacity=64 threshold=8";
        let doubled = format!("{hammer}\n{graphene}\n{graphene}");
        let huge = "activations=2000000000";
        let table: [(String, &[&str]); 20] = [
            (hammer.clone(), &[]),
            (format!("{bfa} candidates=5 bits=6,7"), &[]),
            (format!("budget activations=0 check=0 iterations=0\n{rows}\n{replay}"), &[]),
            (format!("{hammer}\n{swaps}"), &[]),
            (format!("{flips}\n{random}").replace("activations=0", huge), &[]),
            (hammer.replace("activations=4000", huge), &["warning[DLK103]"]),
            (hammer.replace("home=0", "home=2"), &["error[DLK101]"]),
            (
                format!("{model}\nattack weight-fetch samples=1 chunk=32 channel=1"),
                &["error[DLK101]"],
            ),
            (hammer.replace("activations=4000", "activations=0"), &["error[DLK103]"]),
            (hammer.replace("check=8", "check=0"), &["error[DLK103]"]),
            (
                format!("{flips}\n{random}").replace("iterations=3", "iterations=0"),
                &["error[DLK103]"],
            ),
            (format!("{hammer}\neval-batch 0"), &["error[DLK103]"]),
            (format!("{model}\nattack inference batches=1 chunk=0"), &["error[DLK103]"]),
            ("attack hammer bit=7".to_owned(), &["error[DLK104]"]),
            (format!("{hammer}\ntarget 1"), &["error[DLK104]"]),
            (format!("{rows}\n{random}"), &["error[DLK104]"]),
            (format!("{bfa} candidates=0 bits=all"), &["error[DLK104]"]),
            (format!("{bfa} candidates=5 bits=6,9"), &["error[DLK104]"]),
            (doubled.replace("home=0", "home=1"), &["error[DLK101]", "error[DLK105]"]),
            (doubled, &["error[DLK105]"]),
        ];
        for (text, expected) in table {
            let spec = ScenarioSpec::from_text(&format!("label planted\n{text}\n")).unwrap();
            let findings = spec.check();
            let got: Vec<String> =
                findings.iter().map(|f| format!("{}[{}]", f.severity.tag(), f.code)).collect();
            assert_eq!(got, expected, "{text}");
            let first_error = findings.iter().find(|f| f.severity == Severity::Error);
            match (Scenario::from_spec(&spec), first_error) {
                (Ok(_), None) => {}
                (Err(SimError::Build(why)), Some(error)) => {
                    assert_eq!(why, error.to_string(), "{text}");
                }
                (built, _) => panic!("{text}\n{:?}", built.err()),
            }
        }
    }

    #[test]
    fn clean_specs_allocate_no_findings() {
        for entry in crate::catalog() {
            let findings = entry.spec.check();
            assert!(findings.is_empty(), "{}: {findings:?}", entry.name);
            assert_eq!(findings.capacity(), 0, "{}", entry.name);
        }
    }

    #[test]
    fn dlk104_fires_exactly_where_the_run_rejects_the_pairing() {
        // Every attack kind against a raw row span, a contiguous model
        // and a paged model, on a 64-activation budget.
        let attacks = [
            "hammer bit=7",
            "row-probe accesses=4",
            "bfa-hammer batch=8",
            "progressive-bfa rate=1 seed=1 candidates=2 bits=6,7",
            "random-flip seed=1",
            "page-table pfn-bit=1 xor=0x80",
            "inference batches=1 chunk=32",
            "replay\ntenant sequential base=0x0 len=8 count=4",
            "replay-trace untrusted=1\nop R 0x0 8\nop R 0x40 8",
            "weight-fetch samples=1 chunk=32 channel=0",
        ];
        let victims = [
            "victim rows home=0 protect=0 first=20 count=1 fill=0xa5",
            "victim model home=0 protect=1 kind=tiny seed=42 base=0x400",
            "victim paged home=0 protect=1 kind=tiny seed=42 page=256 pfn=8 table=0x1000",
        ];
        let mut rejected = 0;
        for attack in attacks {
            for victim in victims {
                let text = format!(
                    "label pair\nbudget activations=64 check=8 iterations=1\n{victim}\nattack {attack}\n"
                );
                let spec = ScenarioSpec::from_text(&text).unwrap();
                let token = spec.attack.as_ref().map_or("", AttackSpec::token);
                let flagged = spec.check().iter().any(|f| f.code == RuleCode::Dlk104);
                match Scenario::from_spec(&spec).and_then(|mut run| run.run()) {
                    Ok(report) => {
                        assert!(!flagged, "{token} vs `{victim}` runs but DLK104 fires");
                        assert_eq!(report.attack, token);
                    }
                    Err(SimError::Build(why)) => {
                        assert!(flagged, "{token} vs `{victim}` fails to build ({why}) unflagged");
                        rejected += 1;
                    }
                    Err(other) => panic!("{token} vs `{victim}`: {other}"),
                }
            }
        }
        assert_eq!(rejected, 14);
    }
}
