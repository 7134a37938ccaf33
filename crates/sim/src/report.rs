//! The unified run report.

use dlk_dnn::BitIndex;
use dlk_memctrl::ControllerStats;

/// Per-victim outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VictimReport {
    /// Accuracy (%) before the attack (model-backed victims).
    pub accuracy_before_pct: Option<f64>,
    /// Accuracy (%) after the attack, measured by reloading the model
    /// from the device through the controller.
    pub accuracy_after_pct: Option<f64>,
    /// Raw-row victims: the data pattern survived (read back through
    /// the controller, following defense redirects).
    pub data_intact: Option<bool>,
}

impl VictimReport {
    /// Accuracy lost to the attack, in percentage points (0 when not
    /// applicable).
    pub fn accuracy_delta_pct(&self) -> f64 {
        match (self.accuracy_before_pct, self.accuracy_after_pct) {
            (Some(before), Some(after)) => before - after,
            _ => 0.0,
        }
    }

    /// `true` if this victim was observably harmed.
    pub fn harmed(&self) -> bool {
        self.data_intact == Some(false) || self.accuracy_delta_pct() > 5.0
    }
}

/// Defensive actions one mounted mitigation took during the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MitigationReport {
    /// The mitigation's name.
    pub name: String,
    /// The mounted hooks' [`DefenseHook::actions`](dlk_memctrl::DefenseHook::actions),
    /// summed over channels (denies + swaps for DRAM-Locker, targeted
    /// refreshes for counter trackers, row swaps for RRS/SRS/SHADOW).
    pub actions: u64,
}

/// The unified report every scenario run produces.
///
/// `PartialEq` is intentional infrastructure: a sharded multi-channel
/// run must produce a report *equal* to its serial reference, and the
/// determinism suite asserts exactly that.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scenario label.
    pub scenario: String,
    /// The attack's spec token ([`AttackSpec::token`](crate::AttackSpec::token)),
    /// empty when the scenario ran without one.
    pub attack: String,
    /// DRAM channels the scenario ran over (shards of the engine).
    pub channels: usize,
    /// Flips the attack landed.
    pub landed_flips: u64,
    /// Attacker-side requests issued.
    pub requests: u64,
    /// Attacker requests denied.
    pub denied: u64,
    /// A page translation was corrupted.
    pub redirected: bool,
    /// Weight bits the attack targeted.
    pub target_bits: Vec<BitIndex>,
    /// Weight bits whose flips landed.
    pub flipped_bits: Vec<BitIndex>,
    /// Accuracy trajectory of progressive attacks.
    pub curve: Vec<(f64, f64)>,
    /// Device cycles consumed up to the end of the attack phase
    /// (measurement probes excluded).
    pub cycles: u64,
    /// DRAM energy in picojoules up to the end of the attack phase.
    pub energy_pj: f64,
    /// Controller statistics at the end of the attack phase.
    pub controller: ControllerStats,
    /// Per-victim outcomes, in deployment order.
    pub victims: Vec<VictimReport>,
    /// The mounted defenses with their action counts, in mount order.
    pub mitigations: Vec<MitigationReport>,
}

impl RunReport {
    /// The first (primary) victim's report.
    pub fn victim(&self) -> &VictimReport {
        &self.victims[0]
    }

    /// `true` if the defense blocked every attacker request.
    pub fn fully_denied(&self) -> bool {
        self.denied > 0 && self.denied == self.requests
    }

    /// Accuracy lost by the primary victim, percentage points.
    pub fn accuracy_delta_pct(&self) -> f64 {
        self.victims.first().map(VictimReport::accuracy_delta_pct).unwrap_or(0.0)
    }

    /// Total defensive actions across all mounted mitigations.
    pub fn mitigation_total(&self) -> u64 {
        self.mitigations.iter().map(|m| m.actions).sum()
    }

    /// The mounted defenses' names joined by `+`, in mount order
    /// (empty when none was mounted).
    fn defense_stack(&self) -> String {
        self.mitigations.iter().map(|m| m.name.as_str()).collect::<Vec<_>>().join("+")
    }

    /// `true` if any victim was observably harmed (data corrupted,
    /// accuracy down more than 5 points, or a translation redirected).
    pub fn harmed(&self) -> bool {
        self.redirected || self.victims.iter().any(VictimReport::harmed)
    }

    /// The scalar column names of [`to_csv_row`](RunReport::to_csv_row),
    /// comma-joined. Per-defense action counts are folded into the one
    /// `mitigations` column (`name:count` pairs); the sweep-level
    /// [`metrics::Table`](crate::metrics::Table) splits them into real
    /// columns instead.
    pub fn csv_header() -> &'static str {
        "scenario,attack,channels,defenses,requests,denied,landed_flips,redirected,\
         accuracy_before_pct,accuracy_after_pct,accuracy_delta_pct,data_intact,\
         cycles,energy_pj,mitigations"
    }

    /// This report as one CSV row matching
    /// [`csv_header`](RunReport::csv_header).
    pub fn to_csv_row(&self) -> String {
        self.csv_cells().iter().map(|cell| csv_escape(cell)).collect::<Vec<_>>().join(",")
    }

    /// The cells of [`to_csv_row`](RunReport::to_csv_row), raw and
    /// unjoined (shared with the sweep metrics table, which escapes —
    /// like `to_csv_row` — only at CSV-serialization time).
    pub(crate) fn csv_cells(&self) -> Vec<String> {
        let victim = self.victims.first();
        let opt_pct = |v: Option<f64>| v.map(|p| format!("{p:.2}")).unwrap_or_default();
        let mitigations = self
            .mitigations
            .iter()
            .map(|m| format!("{}:{}", m.name, m.actions))
            .collect::<Vec<_>>()
            .join("+");
        vec![
            self.scenario.clone(),
            self.attack.clone(),
            self.channels.to_string(),
            self.defense_stack(),
            self.requests.to_string(),
            self.denied.to_string(),
            self.landed_flips.to_string(),
            self.redirected.to_string(),
            opt_pct(victim.and_then(|v| v.accuracy_before_pct)),
            opt_pct(victim.and_then(|v| v.accuracy_after_pct)),
            format!("{:.2}", self.accuracy_delta_pct()),
            victim.and_then(|v| v.data_intact).map(|intact| intact.to_string()).unwrap_or_default(),
            self.cycles.to_string(),
            format!("{:.1}", self.energy_pj),
            mitigations,
        ]
    }
}

/// Quotes a CSV cell when it contains a delimiter or quote.
pub(crate) fn csv_escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_owned()
    }
}

/// An aligned, human-readable rendering of the whole report — what the
/// examples print instead of hand-formatting fields.
impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let defenses =
            if self.mitigations.is_empty() { "none".to_owned() } else { self.defense_stack() };
        writeln!(f, "scenario        {}", self.scenario)?;
        writeln!(f, "attack          {}", if self.attack.is_empty() { "-" } else { &self.attack })?;
        writeln!(f, "channels        {}", self.channels)?;
        writeln!(f, "defenses        {defenses}")?;
        writeln!(
            f,
            "requests        {} ({} denied, {} flips landed)",
            self.requests, self.denied, self.landed_flips
        )?;
        writeln!(f, "redirected      {}", self.redirected)?;
        writeln!(f, "cycles          {}", self.cycles)?;
        writeln!(f, "energy          {:.2} nJ", self.energy_pj / 1000.0)?;
        for (index, victim) in self.victims.iter().enumerate() {
            let accuracy = match (victim.accuracy_before_pct, victim.accuracy_after_pct) {
                (Some(before), Some(after)) => format!("accuracy {before:.1}% -> {after:.1}%"),
                _ => match victim.data_intact {
                    Some(true) => "data intact".to_owned(),
                    Some(false) => "data corrupted".to_owned(),
                    None => "no measurement".to_owned(),
                },
            };
            writeln!(f, "victim {index}        {accuracy}")?;
        }
        for mitigation in &self.mitigations {
            writeln!(f, "defense actions {} = {}", mitigation.name, mitigation.actions)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harm_combines_victims_and_redirects() {
        let mut report = RunReport {
            scenario: "t".into(),
            attack: "a".into(),
            channels: 1,
            landed_flips: 0,
            requests: 0,
            denied: 0,
            redirected: false,
            target_bits: vec![],
            flipped_bits: vec![],
            curve: vec![],
            cycles: 0,
            energy_pj: 0.0,
            controller: ControllerStats::default(),
            victims: vec![VictimReport {
                accuracy_before_pct: Some(90.0),
                accuracy_after_pct: Some(88.0),
                data_intact: None,
            }],
            mitigations: vec![],
        };
        assert!(!report.harmed(), "2-point wobble is not harm");
        report.victims[0].accuracy_after_pct = Some(40.0);
        assert!(report.harmed());
        report.victims[0].accuracy_after_pct = Some(90.0);
        report.redirected = true;
        assert!(report.harmed());
    }

    fn sample_report() -> RunReport {
        RunReport {
            scenario: "csv, quoted".into(),
            attack: "hammer".into(),
            channels: 2,
            landed_flips: 0,
            requests: 100,
            denied: 100,
            redirected: false,
            target_bits: vec![],
            flipped_bits: vec![],
            curve: vec![],
            cycles: 1234,
            energy_pj: 5678.9,
            controller: ControllerStats::default(),
            victims: vec![VictimReport {
                accuracy_before_pct: None,
                accuracy_after_pct: None,
                data_intact: Some(true),
            }],
            mitigations: vec![
                MitigationReport { name: "dram-locker".into(), actions: 7 },
                MitigationReport { name: "graphene".into(), actions: 0 },
            ],
        }
    }

    #[test]
    fn csv_row_matches_header_arity_and_escapes() {
        let report = sample_report();
        let header_cols = RunReport::csv_header().split(',').count();
        // The quoted scenario cell contains a comma; count via cells.
        assert_eq!(report.csv_cells().len(), header_cols);
        let row = report.to_csv_row();
        assert!(row.starts_with("\"csv, quoted\",hammer,2,dram-locker+graphene,100,100,0,false"));
        assert!(row.contains("dram-locker:7"));
    }

    #[test]
    fn display_is_aligned_and_complete() {
        let text = sample_report().to_string();
        assert!(text.contains("scenario        csv, quoted"), "{text}");
        assert!(text.contains("defenses        dram-locker+graphene"));
        assert!(text.contains("victim 0        data intact"));
        assert!(text.contains("defense actions dram-locker = 7"));
    }
}
