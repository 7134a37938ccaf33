//! The scenario pipeline: spec in, report out.
//!
//! One object owns a run: device geometry, deployed victims, the
//! mounted defense stack, the attack and its budget. Everything the
//! workspace previously hand-wired (`MemCtrlConfig` →
//! `MemoryController` → `WeightLayout::deploy` → `os_protect_range` →
//! attack driver → ad-hoc defense mounting) goes through here.
//!
//! [`Scenario::from_spec`] is the one construction path: it resolves a
//! declarative [`ScenarioSpec`] — geometry preset, engine shape,
//! victims, attack, defense stack, budget — into a deployed
//! [`ScenarioRun`]. [`ScenarioBuilder`] is sugar that assembles a spec
//! method by method. Each [`DefenseSpec`] mounts itself through
//! [`DefenseSpec::mount`]; the [`AttackSpec`] runs when the scenario
//! does. Traffic that is code rather than data (a one-off experiment
//! workload) goes through [`ScenarioRun::controller_mut`] or
//! [`ScenarioRun::engine_mut`] after `build()`.
//!
//! ```
//! use dlk_sim::{AttackSpec, Budget, DefenseSpec, Scenario, VictimSpec};
//!
//! # fn main() -> Result<(), dlk_sim::SimError> {
//! let mut run = Scenario::builder()
//!     .label("doc")
//!     .victim(VictimSpec::row(20, 0xA5))
//!     .attack(AttackSpec::Hammer { bit: 7 })
//!     .defense(DefenseSpec::locker_adjacent())
//!     .budget(Budget { max_activations: 1_000, check_interval: 8, iterations: 1 })
//!     .build()?;
//! let report = run.run()?;
//! assert!(report.fully_denied());
//! assert_eq!(report.victims[0].data_intact, Some(true));
//! # Ok(())
//! # }
//! ```
//!
//! The builder above assembles exactly the spec a file would:
//!
//! ```
//! use dlk_sim::{Scenario, ScenarioSpec};
//!
//! # fn main() -> Result<(), dlk_sim::SimError> {
//! let spec = ScenarioSpec::from_text(
//!     "label doc\n\
//!      victim rows home=0 protect=0 first=20 count=1 fill=0xa5\n\
//!      attack hammer bit=7\n\
//!      defense graphene capacity=64 threshold=8\n\
//!      budget activations=1000 check=8 iterations=1\n",
//! )?;
//! let report = Scenario::from_spec(&spec)?.run()?;
//! assert_eq!(report.landed_flips, 0);
//! # Ok(())
//! # }
//! ```

use dlk_dnn::QuantizedMlp;
use dlk_engine::{EngineConfig, ShardedEngine};
use dlk_locker::DramLocker;
use dlk_memctrl::{DefenseHook, MemoryController};
use dlk_obs::{Registry, SpanRecorder, SpanTree};

use crate::attack::{AttackOutcome, RunEnv};
use crate::error::SimError;
use crate::mitigation::HookChain;
use crate::report::{MitigationReport, RunReport, VictimReport};
use crate::spec::{AttackSpec, DefenseSpec, GeometrySpec, ScenarioSpec};
use crate::victim::{DeployedVictim, VictimSpec};

/// The attack-side resource budget of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum aggressor activations per hammer campaign.
    pub max_activations: u64,
    /// Hammer loop checks the victim bit every this many activations.
    pub check_interval: u64,
    /// Iterations for progressive attacks (BFA, random flips).
    pub iterations: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Self { max_activations: 20_000, check_interval: 8, iterations: 10 }
    }
}

/// Entry point of the unified simulation API: `Scenario::builder()` or
/// [`Scenario::from_spec`].
pub struct Scenario;

impl Scenario {
    /// Starts building a scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// The one construction path from a declarative spec to a deployed,
    /// runnable pipeline: resolves the geometry preset, instantiates
    /// the engine, trains/deploys the victims and mounts the defense
    /// stack on every channel shard.
    ///
    /// # Errors
    ///
    /// As [`ScenarioBuilder::build`].
    pub fn from_spec(spec: &ScenarioSpec) -> Result<ScenarioRun, SimError> {
        ScenarioBuilder::from_spec(spec.clone()).build()
    }
}

/// Assembles a [`ScenarioSpec`] method by method, then builds it.
///
/// The builder *is* spec assembly: every declarative method writes one
/// spec field, [`ScenarioBuilder::spec`] hands the assembled value
/// back, and [`ScenarioBuilder::build`] routes through the same
/// resolution path as [`Scenario::from_spec`].
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    fn new() -> Self {
        Self::from_spec(ScenarioSpec::default())
    }

    /// A builder pre-loaded with `spec` (the catalog's path from an
    /// entry to a tweakable builder).
    pub fn from_spec(spec: ScenarioSpec) -> Self {
        Self { spec }
    }

    /// The assembled spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Names the scenario (shows up in the report).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.spec.label = label.into();
        self
    }

    /// Sets the *per-channel* device/controller preset (default:
    /// [`GeometrySpec::Tiny`], the tiny test geometry with TRH 16).
    pub fn geometry(mut self, geometry: GeometrySpec) -> Self {
        self.spec.geometry = geometry;
        self
    }

    /// Sets the execution engine configuration (default:
    /// [`EngineConfig::serial`], one channel, no threads). With
    /// [`EngineConfig::sharded`], the scenario instantiates one channel
    /// shard per DRAM channel — each with its own controller, device
    /// and mounted defense chain — and steps them on scoped threads.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.spec.engine = engine;
        self
    }

    /// Adds a victim on channel 0. Repeatable: later victims share the
    /// device (multi-tenant scenarios).
    pub fn victim(mut self, spec: VictimSpec) -> Self {
        self.spec.victims.push((spec, 0));
        self
    }

    /// Adds a victim homed on a specific channel of a multi-channel
    /// engine — cross-channel multi-tenant scenarios. The victim's
    /// data, OS protection and defense coverage all live on that
    /// channel's shard.
    pub fn victim_on(mut self, spec: VictimSpec, channel: usize) -> Self {
        self.spec.victims.push((spec, channel));
        self
    }

    /// Sets the attack (or benign workload).
    pub fn attack(mut self, attack: AttackSpec) -> Self {
        self.spec.attack = Some(attack);
        self
    }

    /// Mounts a defense. Repeatable: multiple defenses stack into a
    /// [`HookChain`] consulted in mount order.
    pub fn defense(mut self, defense: DefenseSpec) -> Self {
        self.spec.defenses.push(defense);
        self
    }

    /// Sets the attack budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.spec.budget = budget;
        self
    }

    /// Held-out sample size for accuracy measurements (default 64;
    /// [`ScenarioBuilder::build`] rejects 0).
    pub fn eval_batch(mut self, n: usize) -> Self {
        self.spec.eval_batch = n;
        self
    }

    /// Which victim the attack targets (default 0, the first).
    pub fn target_victim(mut self, index: usize) -> Self {
        self.spec.target = index;
        self
    }

    /// Deploys the victims on their home shards, mounts the defense
    /// stack on every channel, and returns the executable pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Build`] for an empty victim list, a bad
    /// target index, a zero channel count, an out-of-range home
    /// channel, a zero eval batch, an attack aimed at a victim it does
    /// not run against ([`AttackSpec::check_victim`]) or a zero read
    /// chunk, and propagates deployment/mount failures.
    pub fn build(self) -> Result<ScenarioRun, SimError> {
        let spec = self.spec;
        if spec.victims.is_empty() {
            return Err(SimError::Build(format!("scenario '{}' has no victim", spec.label)));
        }
        if spec.eval_batch == 0 {
            return Err(SimError::Build(format!(
                "scenario '{}' has eval batch 0; accuracy needs at least one sample",
                spec.label
            )));
        }
        if spec.target >= spec.victims.len() {
            return Err(SimError::Build(format!(
                "target victim {} out of range ({} victims)",
                spec.target,
                spec.victims.len()
            )));
        }
        if let Some(attack) = &spec.attack {
            attack.check_victim(&spec.victims[spec.target].0).map_err(SimError::Build)?;
            if let AttackSpec::InferenceStream { chunk: 0, .. }
            | AttackSpec::WeightFetch { chunk: 0, .. } = attack
            {
                return Err(SimError::Build(format!(
                    "scenario '{}' reads chunk=0 bytes per request; a read needs at least one",
                    spec.label
                )));
            }
        }
        let channels = spec.engine.channels;
        if let Some(&(_, bad)) = spec.victims.iter().find(|&&(_, channel)| channel >= channels) {
            return Err(SimError::Build(format!(
                "victim homed on channel {bad}, but the engine has {channels} channels"
            )));
        }
        let mut engine = ShardedEngine::new(spec.engine, spec.geometry.config())?;

        // Deploy every victim on its home shard (shard-local
        // addressing: each channel is its own device).
        let mut victims = Vec::with_capacity(spec.victims.len());
        let mut homes = Vec::with_capacity(spec.victims.len());
        for &(victim_spec, home) in &spec.victims {
            victims.push(victim_spec.deploy(engine.shard_mut(home).controller_mut())?);
            homes.push(home);
        }

        // Each channel guards the ranges of the victims homed on it —
        // the per-channel slice of the defense state (for DRAM-Locker,
        // the shard's lock-table slice).
        let mut guarded_per_channel: Vec<Vec<(u64, u64)>> = vec![Vec::new(); channels];
        for (victim, &home) in victims.iter().zip(&homes) {
            guarded_per_channel[home].extend(victim.guarded_ranges().iter().copied());
        }
        for (channel, guarded) in guarded_per_channel.iter().enumerate() {
            let ctrl = engine.shard_mut(channel).controller_mut();
            let mut hooks = spec
                .defenses
                .iter()
                .map(|defense| defense.mount(ctrl.mapper(), guarded))
                .collect::<Result<Vec<_>, _>>()?;
            match hooks.len() {
                0 => {}
                1 => {
                    ctrl.set_hook(hooks.pop().expect("one hook"));
                }
                _ => {
                    ctrl.set_hook(Box::new(HookChain::new(hooks)));
                }
            }
        }
        Ok(ScenarioRun {
            label: spec.label,
            engine,
            victims,
            homes,
            attack: spec.attack,
            defenses: spec.defenses.iter().map(DefenseSpec::name).collect(),
            budget: spec.budget,
            eval_batch: spec.eval_batch,
            target: spec.target,
            obs: None,
        })
    }
}

/// A built, deployed pipeline, ready to run.
pub struct ScenarioRun {
    label: String,
    engine: ShardedEngine,
    victims: Vec<DeployedVictim>,
    /// Each victim's home channel, parallel to `victims`.
    homes: Vec<usize>,
    attack: Option<AttackSpec>,
    /// Names of the mounted defenses, in mount order.
    defenses: Vec<&'static str>,
    budget: Budget,
    eval_batch: usize,
    target: usize,
    /// Metrics registry the run reports into, if observed.
    obs: Option<Registry>,
}

impl std::fmt::Debug for ScenarioRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRun")
            .field("label", &self.label)
            .field("channels", &self.engine.channels())
            .field("victims", &self.victims.len())
            .field("attack", &self.attack.as_ref().map(AttackSpec::token))
            .field("hook", &self.engine.primary().controller().hook().name())
            .field("budget", &self.budget)
            .finish()
    }
}

impl ScenarioRun {
    /// The scenario label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The scenario's budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The sharded execution engine (read-only).
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Mutable access to the engine — for demonstrations and tests
    /// that route extra global traffic through the same pipeline.
    pub fn engine_mut(&mut self) -> &mut ShardedEngine {
        &mut self.engine
    }

    /// Channel 0's memory controller (read-only). For the default
    /// serial engine this is *the* controller, exactly as before the
    /// engine migration.
    pub fn controller(&self) -> &MemoryController {
        self.engine.primary().controller()
    }

    /// Mutable access to channel 0's controller — for demonstrations
    /// and tests that drive extra shard-local traffic.
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        self.engine.primary_mut().controller_mut()
    }

    /// The deployed victims.
    pub fn victims(&self) -> &[DeployedVictim] {
        &self.victims
    }

    /// One deployed victim.
    pub fn victim(&self, index: usize) -> &DeployedVictim {
        &self.victims[index]
    }

    /// Victim `index`'s home channel.
    pub fn home(&self, index: usize) -> usize {
        self.homes[index]
    }

    /// Reloads victim `index`'s model from its home shard through the
    /// controller (trusted reads, following defense redirects).
    ///
    /// # Errors
    ///
    /// Propagates controller errors; `Ok(None)` for raw-row victims.
    pub fn reload_model(&mut self, index: usize) -> Result<Option<QuantizedMlp>, SimError> {
        let victim = &self.victims[index];
        victim.reload_model(self.engine.shard_mut(self.homes[index]).controller_mut())
    }

    /// Executes the attack phase, then measures every victim and
    /// assembles the unified report. Cycle/energy/controller statistics
    /// are snapshotted at the end of the attack phase, before the
    /// measurement probes. Calling `run` again re-executes the attack
    /// on the already-attacked device (useful for benchmarking a
    /// steady-state defended campaign); accuracy baselines always refer
    /// to the pristine deployment.
    ///
    /// # Errors
    ///
    /// Propagates attack and measurement failures.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        self.run_inner(None)
    }

    /// Connects the run to a metrics registry: the engine's per-channel
    /// drain/merge timings, the controllers' per-kind service latencies
    /// and denial/fault counters, and (at the end of each run) any
    /// mounted DRAM-Locker's lock-table lookup/hit counters all report
    /// into `registry`. Idempotent per run: counter exports are deltas.
    pub fn observe(&mut self, registry: &Registry) {
        self.engine.observe(registry);
        self.obs = Some(registry.clone());
    }

    /// Like [`ScenarioRun::run`], but records the phase spans of the
    /// pipeline (baseline accuracy, attack, measurement, mitigation
    /// stats) into `recorder`. The attack span is annotated with the
    /// engine's cycle count for the attack phase.
    ///
    /// # Errors
    ///
    /// Propagates attack and measurement failures.
    pub fn run_with_spans(&mut self, recorder: &mut SpanRecorder) -> Result<RunReport, SimError> {
        self.run_inner(Some(recorder))
    }

    /// Runs the scenario under a fresh span recorder and returns the
    /// report together with the finished span tree (rooted at the
    /// scenario label).
    ///
    /// # Errors
    ///
    /// Propagates attack and measurement failures.
    pub fn run_traced(&mut self) -> Result<(RunReport, SpanTree), SimError> {
        let mut recorder = SpanRecorder::new(format!("scenario '{}'", self.label));
        let report = self.run_inner(Some(&mut recorder))?;
        Ok((report, recorder.finish()))
    }

    fn run_inner(&mut self, mut spans: Option<&mut SpanRecorder>) -> Result<RunReport, SimError> {
        let span_baseline = spans.as_deref_mut().map(|rec| rec.enter("baseline-accuracy"));
        let accuracy_before: Vec<Option<f64>> = self
            .victims
            .iter()
            .map(|v| v.victim().and_then(|vic| v.accuracy_pct(&vic.model, self.eval_batch)))
            .collect();
        if let (Some(rec), Some(id)) = (spans.as_deref_mut(), span_baseline) {
            rec.exit(id);
        }

        let span_attack = spans.as_deref_mut().map(|rec| rec.enter("attack"));
        let outcome = match &self.attack {
            Some(attack) => attack.execute(&mut RunEnv {
                engine: &mut self.engine,
                victim: &self.victims[self.target],
                home: self.homes[self.target],
                budget: self.budget,
                eval_batch: self.eval_batch,
            })?,
            None => AttackOutcome::default(),
        };

        // Snapshot attack-phase costs before the measurement probes
        // drive their own traffic. The snapshot is merged in channel-id
        // order, so it is identical whether the shards just ran on
        // threads or serially.
        let snapshot = self.engine.snapshot();
        if let (Some(rec), Some(id)) = (spans.as_deref_mut(), span_attack) {
            rec.cycles(id, snapshot.cycles);
            rec.exit(id);
        }

        let span_measure = spans.as_deref_mut().map(|rec| rec.enter("measure"));
        let mut victim_reports = Vec::with_capacity(self.victims.len());
        for (index, victim) in self.victims.iter().enumerate() {
            let ctrl = self.engine.shard_mut(self.homes[index]).controller_mut();
            let reloaded = victim.reload_model(ctrl)?;
            let accuracy_after_pct =
                reloaded.and_then(|model| victim.accuracy_pct(&model, self.eval_batch));
            let data_intact = victim.data_intact(ctrl)?;
            victim_reports.push(VictimReport {
                accuracy_before_pct: accuracy_before[index],
                accuracy_after_pct,
                data_intact,
            });
        }
        if let (Some(rec), Some(id)) = (spans.as_deref_mut(), span_measure) {
            rec.exit(id);
        }

        let span_stats = spans.as_deref_mut().map(|rec| rec.enter("mitigation-stats"));
        // Per-defense action counts, summed over channels in channel-id
        // order: every shard mounted the same stack, so defense `i` is
        // mounted hook `i` of every shard.
        let mut mitigations: Vec<MitigationReport> = self
            .defenses
            .iter()
            .map(|&name| MitigationReport { name: name.to_owned(), actions: 0 })
            .collect();
        for shard in self.engine.shards() {
            for (report, hook) in mitigations.iter_mut().zip(mounted_hooks(shard.controller())) {
                report.actions += hook.actions();
            }
        }
        if let (Some(rec), Some(id)) = (spans, span_stats) {
            rec.exit(id);
        }

        if let Some(registry) = self.obs.clone() {
            // Hammer attacks drive controllers per-request and never
            // pass through `run_to_completion`, so flush the shards'
            // locally recorded controller metrics here too.
            self.engine.export_obs();
            self.export_defense_obs(&registry);
        }

        Ok(RunReport {
            scenario: self.label.clone(),
            attack: self.attack.as_ref().map_or("", AttackSpec::token).to_owned(),
            channels: self.engine.channels(),
            landed_flips: outcome.landed_flips,
            requests: outcome.requests,
            denied: outcome.denied,
            redirected: outcome.redirected,
            target_bits: outcome.target_bits,
            flipped_bits: outcome.flipped_bits,
            curve: outcome.curve,
            cycles: snapshot.cycles,
            energy_pj: snapshot.energy_pj,
            controller: snapshot.controller,
            victims: victim_reports,
            mitigations,
        })
    }

    /// Pushes the defense-side interior counters (currently the
    /// DRAM-Locker lock-table lookups/hits, summed over channels) into
    /// the observed registry as `locker.locktable.*` deltas.
    fn export_defense_obs(&self, registry: &Registry) {
        for shard in self.engine.shards() {
            for hook in mounted_hooks(shard.controller()) {
                if let Some(locker) = hook.as_any().and_then(|any| any.downcast_ref::<DramLocker>())
                {
                    locker.export_obs(registry, "locker");
                }
            }
        }
    }
}

/// The defenses mounted on one controller, in mount order: a
/// [`HookChain`]'s members, or the single mounted hook.
fn mounted_hooks(ctrl: &MemoryController) -> Vec<&dyn DefenseHook> {
    let hook = ctrl.hook();
    match hook.as_any().and_then(|any| any.downcast_ref::<HookChain>()) {
        Some(chain) => chain.hooks().iter().map(Box::as_ref).collect(),
        None => vec![hook],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hammer_budget() -> Budget {
        Budget { max_activations: 4_000, check_interval: 8, iterations: 1 }
    }

    #[test]
    fn builder_rejects_empty_scenarios() {
        assert!(matches!(Scenario::builder().build(), Err(SimError::Build(_))));
        let bad_target = Scenario::builder().victim(VictimSpec::row(5, 1)).target_victim(3).build();
        assert!(matches!(bad_target, Err(SimError::Build(_))));
    }

    #[test]
    fn zero_eval_batch_is_rejected_through_both_entry_points() {
        let builder = Scenario::builder().victim(VictimSpec::row(5, 1)).eval_batch(0);
        assert!(matches!(builder.build(), Err(SimError::Build(_))));
        // The model-backed catalog entry would otherwise report 0.0%
        // accuracy before and after the attack.
        let mut spec = crate::catalog::find("bfa-vs-none").unwrap().spec;
        spec.eval_batch = 0;
        let err = Scenario::from_spec(&spec).unwrap_err();
        assert!(err.to_string().contains("eval batch 0"), "{err}");
    }

    #[test]
    fn zero_read_chunk_is_rejected_through_both_entry_points() {
        let model = VictimSpec::model(crate::ModelKind::Tiny, 3, 0x400);
        let builder = Scenario::builder()
            .victim(model)
            .attack(AttackSpec::InferenceStream { batches: 1, chunk: 0 });
        assert!(matches!(builder.build(), Err(SimError::Build(_))));
        let spec = ScenarioSpec {
            victims: vec![(model, 0)],
            attack: Some(AttackSpec::weight_fetch(1, 0, 0)),
            ..ScenarioSpec::new("fetch")
        };
        let err = Scenario::from_spec(&spec).unwrap_err();
        assert!(err.to_string().contains("chunk=0"), "{err}");
    }

    #[test]
    fn undefended_hammer_harms_the_row_victim() {
        let mut run = Scenario::builder()
            .label("undefended")
            .victim(VictimSpec::row(20, 0xA5))
            .attack(AttackSpec::Hammer { bit: 77 })
            .budget(hammer_budget())
            .build()
            .unwrap();
        let report = run.run().unwrap();
        assert_eq!(report.landed_flips, 1);
        assert_eq!(report.denied, 0);
        assert_eq!(report.victims[0].data_intact, Some(false));
        assert!(report.harmed());
    }

    #[test]
    fn locker_denies_the_same_campaign() {
        let mut run = Scenario::builder()
            .label("defended")
            .victim(VictimSpec::row(20, 0xA5))
            .attack(AttackSpec::Hammer { bit: 77 })
            .defense(DefenseSpec::locker_adjacent())
            .budget(hammer_budget())
            .build()
            .unwrap();
        let report = run.run().unwrap();
        assert!(report.fully_denied(), "{report:?}");
        assert_eq!(report.victims[0].data_intact, Some(true));
        assert!(!report.harmed());
        assert_eq!(report.mitigations.len(), 1);
        assert_eq!(report.mitigations[0].name, "dram-locker");
        assert!(report.mitigation_total() > 0);
    }

    #[test]
    fn stacked_defenses_report_individually() {
        let mut run = Scenario::builder()
            .label("stacked")
            .victim(VictimSpec::row(20, 0xA5))
            .attack(AttackSpec::Hammer { bit: 77 })
            .defense(DefenseSpec::locker_adjacent())
            .defense(DefenseSpec::graphene(64, 8))
            .budget(hammer_budget())
            .build()
            .unwrap();
        let report = run.run().unwrap();
        assert_eq!(report.mitigations.len(), 2);
        assert_eq!(report.mitigations[0].name, "dram-locker");
        assert_eq!(report.mitigations[1].name, "graphene");
        // The locker denies everything, so the tracker sees nothing.
        assert!(report.fully_denied());
        assert!(report.mitigations[0].actions > 0);
    }

    #[test]
    fn probe_against_data_locked_row_is_denied_but_data_flows_for_victim() {
        let mut run = Scenario::builder()
            .label("probe")
            .victim(VictimSpec::row(10, 0x42))
            .attack(AttackSpec::RowProbe { accesses: 100 })
            .defense(DefenseSpec::locker_data_rows())
            .build()
            .unwrap();
        let report = run.run().unwrap();
        assert_eq!(report.denied, 100);
        // The integrity probe (trusted) was served via SWAP + redirect.
        assert_eq!(report.victims[0].data_intact, Some(true));
    }

    #[test]
    fn builder_is_sugar_over_the_spec() {
        let builder = Scenario::builder()
            .label("spec-sugar")
            .victim(VictimSpec::row(20, 0xA5))
            .attack(AttackSpec::Hammer { bit: 77 })
            .defense(DefenseSpec::locker_adjacent())
            .budget(hammer_budget());
        let spec = builder.spec().clone();
        assert_eq!(spec.label, "spec-sugar");
        assert_eq!(spec.attack, Some(AttackSpec::Hammer { bit: 77 }));
        assert_eq!(spec.defenses.len(), 1);
        // The same spec, round-tripped through the codec, reproduces
        // the builder's run bit for bit.
        let reparsed = ScenarioSpec::from_text(&spec.to_text()).unwrap();
        let spec_report = Scenario::from_spec(&reparsed).unwrap().run().unwrap();
        let builder_report = builder.build().unwrap().run().unwrap();
        assert_eq!(spec_report, builder_report);
    }

    #[test]
    fn observed_run_exports_engine_and_locker_metrics() {
        let registry = Registry::new();
        let mut run = Scenario::builder()
            .label("observed")
            .victim(VictimSpec::row(20, 0xA5))
            .attack(AttackSpec::Hammer { bit: 77 })
            .defense(DefenseSpec::locker_adjacent())
            .budget(hammer_budget())
            .build()
            .unwrap();
        run.observe(&registry);
        let report = run.run().unwrap();
        assert!(report.fully_denied());
        // Controller-side counters flowed through the shared handles.
        assert!(registry.counter("memctrl.denied").get() > 0);
        assert!(registry.counter("memctrl.served").get() > 0);
        assert!(registry.histogram("memctrl.latency_cycles.read").count() > 0);
        // The engine's drain metrics registered (a hammer campaign
        // drives the controllers per-request, so the count stays 0 —
        // workload drains through `run_to_completion` would bump it).
        assert!(registry.get("engine.drains").is_some());
        // The locker's interior lock-table counters were exported.
        assert!(registry.counter("locker.locktable.lookups").get() > 0);
        assert!(registry.counter("locker.locktable.hits").get() > 0);
        // Running again adds deltas, it does not double-count backwards.
        let lookups_after_one = registry.counter("locker.locktable.lookups").get();
        run.run().unwrap();
        assert!(registry.counter("locker.locktable.lookups").get() > lookups_after_one);
    }

    #[test]
    fn run_traced_records_phase_spans() {
        let mut run = Scenario::builder()
            .label("traced")
            .victim(VictimSpec::row(20, 0xA5))
            .attack(AttackSpec::Hammer { bit: 3 })
            .budget(hammer_budget())
            .build()
            .unwrap();
        let (report, tree) = run.run_traced().unwrap();
        assert!(report.cycles > 0);
        // Root + the four pipeline phases.
        assert_eq!(tree.len(), 5);
        let rendered = tree.to_string();
        assert!(rendered.contains("scenario 'traced'"), "{rendered}");
        for phase in ["baseline-accuracy", "attack", "measure", "mitigation-stats"] {
            assert!(rendered.contains(phase), "missing {phase} in:\n{rendered}");
        }
        assert!(rendered.contains("cycles"), "{rendered}");
    }

    #[test]
    fn report_snapshots_attack_phase_costs() {
        let mut run = Scenario::builder()
            .victim(VictimSpec::row(20, 0xA5))
            .attack(AttackSpec::Hammer { bit: 3 })
            .budget(hammer_budget())
            .build()
            .unwrap();
        let report = run.run().unwrap();
        assert!(report.cycles > 0);
        assert!(report.energy_pj > 0.0);
        // The trailing integrity read is excluded from the snapshot.
        assert!(run.controller().dram().stats().cycles > report.cycles);
    }
}
