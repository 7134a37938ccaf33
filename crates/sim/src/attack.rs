//! How each [`AttackSpec`] drives a built scenario.
//!
//! An attack is data; [`AttackSpec::execute`] is the one place each
//! variant exercises the pipeline against the target victim and reports
//! what it achieved. Benign workloads (inference traffic, replays) run
//! through the same match — drivers with zero malice, which is what
//! lets one scenario API measure both damage and overhead.
//! [`AttackSpec::check_victim`] states which victim each variant runs
//! against; rule DLK104 of [`ScenarioSpec::check`](crate::ScenarioSpec::check)
//! applies it.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dlk_attacks::bfa::BitSearch;
use dlk_attacks::hammer::{HammerConfig, HammerDriver};
use dlk_attacks::pta::{PtaAttack, PtaConfig};
use dlk_attacks::RandomAttack;
use dlk_dnn::models::{self, Victim};
use dlk_dnn::{BitIndex, QuantNetwork, Tensor, WeightLayout};
use dlk_dram::RowAddr;
use dlk_engine::{ShardedEngine, Trace, Workload};
use dlk_memctrl::{MemRequest, MemoryController};

use crate::error::SimError;
use crate::scenario::Budget;
use crate::spec::AttackSpec;
use crate::victim::{DeployedVictim, SpecKind, VictimSpec};

/// The attack's view of a running scenario.
pub(crate) struct RunEnv<'a> {
    /// The scenario's sharded execution engine (defenses already
    /// mounted on every channel shard).
    pub(crate) engine: &'a mut ShardedEngine,
    /// The victim under attack.
    pub(crate) victim: &'a DeployedVictim,
    /// The target victim's home channel.
    pub(crate) home: usize,
    /// The scenario's activation/iteration budget.
    pub(crate) budget: Budget,
    /// Held-out sample size for accuracy trajectories.
    pub(crate) eval_batch: usize,
}

impl<'a> RunEnv<'a> {
    /// The target's trained model and its contiguous weight layout.
    fn model(&self) -> Result<(&'a Victim, &'a WeightLayout), SimError> {
        self.victim.victim().zip(self.victim.layout()).ok_or_else(unfit)
    }

    /// The target victim's home-channel controller — where the
    /// per-request attacks run, addressed in that shard's local address
    /// space. Engine-wide replays use [`RunEnv::engine`] directly with
    /// global addresses.
    fn ctrl(&mut self) -> &mut MemoryController {
        self.engine.shard_mut(self.home).controller_mut()
    }
}

/// What the attack itself observed.
#[derive(Debug, Default)]
pub(crate) struct AttackOutcome {
    /// Bit flips the attack actually landed.
    pub(crate) landed_flips: u64,
    /// Attacker-side requests issued.
    pub(crate) requests: u64,
    /// Attacker requests denied by the defense (hardware hook or OS).
    pub(crate) denied: u64,
    /// A page translation was corrupted (page-table attacks).
    pub(crate) redirected: bool,
    /// Weight bits the attack targeted (chosen, whether or not landed).
    pub(crate) target_bits: Vec<BitIndex>,
    /// Weight bits whose flips landed.
    pub(crate) flipped_bits: Vec<BitIndex>,
    /// Accuracy trajectory: `(iteration, accuracy %)` per iteration,
    /// for progressive attacks.
    pub(crate) curve: Vec<(f64, f64)>,
}

impl AttackSpec {
    /// Checks that this attack runs against `victim`: the pairing that
    /// rule DLK104 of [`ScenarioSpec::check`](crate::ScenarioSpec::check)
    /// applies, so every build and `dlk check` refuse a mismatch.
    /// Weight-bit attacks and inference traffic need a contiguously
    /// deployed model ([`VictimSpec::model`]); the page-table attack
    /// needs a paged one ([`VictimSpec::paged`]); `hammer` and
    /// `row-probe` need a data row (raw rows or a contiguous model);
    /// replays run against any victim.
    ///
    /// # Errors
    ///
    /// Returns a message naming the victim this attack needs and the
    /// one it was given.
    pub fn check_victim(&self, victim: &VictimSpec) -> Result<(), String> {
        let (fits, needs) = match self {
            AttackSpec::BfaHammer { .. }
            | AttackSpec::ProgressiveBfa { .. }
            | AttackSpec::RandomFlip { .. }
            | AttackSpec::InferenceStream { .. }
            | AttackSpec::WeightFetch { .. } => {
                (matches!(victim.kind, SpecKind::Model { .. }), "a contiguous model")
            }
            AttackSpec::PageTable { .. } => {
                (matches!(victim.kind, SpecKind::Paged { .. }), "a paged model")
            }
            AttackSpec::Hammer { .. } | AttackSpec::RowProbe { .. } => (
                !matches!(victim.kind, SpecKind::Paged { .. }),
                "a raw row span or a contiguous model",
            ),
            AttackSpec::Replay { .. } | AttackSpec::ReplayTrace { .. } => (true, "any victim"),
        };
        if fits {
            return Ok(());
        }
        let given = match victim.kind {
            SpecKind::RowSpan { .. } => "a raw row span",
            SpecKind::Model { .. } => "a contiguous model",
            SpecKind::Paged { .. } => "a paged model",
        };
        Err(format!("attack {} runs against {needs}, not {given}", self.token()))
    }

    /// Exercises the pipeline against the target victim.
    ///
    /// # Errors
    ///
    /// Propagates controller/layout errors; attacks never fail just
    /// because a defense stopped them (that is a reported outcome).
    pub(crate) fn execute(&self, env: &mut RunEnv<'_>) -> Result<AttackOutcome, SimError> {
        let victim = env.victim;
        match self {
            // The raw RowHammer campaign: hammer the victim's first data
            // row until `bit` flips or the budget runs out.
            AttackSpec::Hammer { bit } => {
                let start = victim.data_start().ok_or_else(unfit)?;
                let (row, _) = env.ctrl().mapper().to_dram(start)?;
                hammer(env, row, *bit)
            }
            // Direct untrusted probing of the victim's own data address.
            AttackSpec::RowProbe { accesses } => {
                let start = victim.data_start().ok_or_else(unfit)?;
                let mut outcome = AttackOutcome::default();
                for _ in 0..*accesses {
                    let done = env.ctrl().service(MemRequest::read(start, 1).untrusted())?;
                    outcome.requests += 1;
                    outcome.denied += u64::from(done.denied);
                }
                Ok(outcome)
            }
            // The BFA realized physically: gradient-rank the weight bits
            // in the image's edge row (the only row whose aggressor an
            // OS-isolated attacker can activate), then hammer the best.
            AttackSpec::BfaHammer { batch } => {
                let (model, layout) = env.model()?;
                let (x, y) = model.dataset.test_sample(*batch, 0);
                let target = models::best_edge_target(&model.model, layout, &x, &y)
                    .or_else(|| {
                        // No edge-row flip increases the loss: fall back
                        // to the image's first MSB so the campaign runs.
                        let (layer, weight) = model.model.locate_byte(0)?;
                        Some(BitIndex { layer, weight, bit: 7 })
                    })
                    .ok_or_else(|| SimError::Build("victim model is empty".to_owned()))?;
                let (row, bit) = layout.bit_location(&model.model, target)?;
                let mut outcome = hammer(env, row, bit)?;
                outcome.target_bits = vec![target];
                if outcome.landed_flips > 0 {
                    outcome.flipped_bits = vec![target];
                }
                Ok(outcome)
            }
            // The progressive bit search of Fig. 8: each iteration's
            // most damaging flip lands with probability `success_rate`
            // (1.0 undefended; 0.096 under DRAM-Locker at ±20% process
            // variation, §IV-D).
            AttackSpec::ProgressiveBfa { success_rate, seed, config } => {
                let mut search = BitSearch::new(*config);
                let mut rng = StdRng::seed_from_u64(*seed);
                let success_rate = *success_rate;
                flip_campaign(
                    env,
                    move || success_rate >= 1.0 || rng.random_bool(success_rate),
                    move |model, x, y| search.next_flip(model, x, y),
                )
            }
            // The Fig. 1(a) baseline: one uniformly random weight-bit
            // flip per iteration.
            AttackSpec::RandomFlip { seed } => {
                let mut random = RandomAttack::new(*seed);
                flip_campaign(env, || true, move |model, _, _| Some(random.next_flip(model)))
            }
            // The §V Page Table Attack: stage a poisoned copy of weight
            // page 0 at the frame one PFN-bit flip away, then hammer the
            // PTE row.
            AttackSpec::PageTable { pfn_bit, payload_xor } => {
                let model = victim.victim().ok_or_else(unfit)?;
                let table = *victim.page_table().ok_or_else(unfit)?;
                let attack = PtaAttack::new(PtaConfig {
                    pfn_bit: *pfn_bit,
                    hammer: hammer_config(env.budget),
                });
                let mut payload = model.model.weight_bytes();
                payload.truncate(table.config().page_size as usize);
                for byte in &mut payload {
                    *byte ^= payload_xor;
                }
                attack.stage_payload(env.ctrl(), &table, 0, &payload)?;
                let outcome = attack.execute(env.ctrl(), &table, 0)?;
                Ok(AttackOutcome {
                    landed_flips: u64::from(outcome.redirected),
                    requests: outcome.hammer.requests,
                    denied: outcome.hammer.denied,
                    redirected: outcome.redirected,
                    ..AttackOutcome::default()
                })
            }
            // Benign victim traffic: stream the weight image through the
            // home controller `batches` times, `chunk` bytes per read,
            // as the victim's inference loop would.
            AttackSpec::InferenceStream { batches, chunk } => {
                let (model, layout) = env.model()?;
                let (start, end) = layout.phys_range(&model.model);
                let mapper = *env.ctrl().mapper();
                let row_bytes = mapper.geometry().row_bytes;
                let mut outcome = AttackOutcome::default();
                for _ in 0..*batches {
                    let mut addr = start;
                    while addr < end {
                        let (_, col) = mapper.to_dram(addr)?;
                        let take = (*chunk).min((end - addr) as usize).min(row_bytes - col);
                        let done = env.ctrl().service(MemRequest::read(addr, take))?;
                        outcome.requests += 1;
                        outcome.denied += u64::from(done.denied);
                        addr += take as u64;
                    }
                }
                Ok(outcome)
            }
            AttackSpec::Replay { tenants } => match tenants.as_slice() {
                [workload] => replay(env, &workload.trace()),
                many => replay(env, &Workload::multi_tenant(many)),
            },
            AttackSpec::ReplayTrace { trace } => replay(env, trace),
            // The target's weight-fetch trace, recorded against its
            // shard-local layout and lifted to global addresses homed on
            // `channel`.
            AttackSpec::WeightFetch { samples, chunk, channel } => {
                let (model, layout) = env.model()?;
                let local = layout.fetch_trace(&model.model, *samples, *chunk)?;
                let trace = env.engine.router().globalize_trace(&local, *channel)?;
                replay(env, &trace)
            }
        }
    }
}

/// The error for a target an attack cannot run against. Scenario build
/// refuses such pairings first (rule DLK104).
fn unfit() -> SimError {
    SimError::Build("the target victim does not fit the attack".to_owned())
}

fn hammer_config(budget: Budget) -> HammerConfig {
    HammerConfig { max_activations: budget.max_activations, check_interval: budget.check_interval }
}

/// Hammers `bit` of `row` on the target's home controller within the
/// budget.
fn hammer(env: &mut RunEnv<'_>, row: RowAddr, bit: usize) -> Result<AttackOutcome, SimError> {
    let outcome = HammerDriver::new(hammer_config(env.budget)).hammer_bit(env.ctrl(), row, bit)?;
    Ok(AttackOutcome {
        landed_flips: u64::from(outcome.flipped),
        requests: outcome.requests,
        denied: outcome.denied,
        ..AttackOutcome::default()
    })
}

/// Replays `trace` through the *whole* engine: requests carry global
/// addresses, the router fans them out across every channel shard, and
/// shards execute in parallel when the scenario's engine config says so.
fn replay(env: &mut RunEnv<'_>, trace: &Trace) -> Result<AttackOutcome, SimError> {
    let counts = env.engine.replay(trace)?;
    Ok(AttackOutcome {
        requests: counts.requests,
        denied: counts.denied,
        ..AttackOutcome::default()
    })
}

/// Shared skeleton of the progressive flip attacks: each iteration
/// draws whether the flip lands, selects it on the *current* model
/// state, realizes it in the DRAM-resident image, and records the
/// accuracy trajectory. Selection is skipped for non-landing
/// iterations (the white-box search only pays off when the flip can be
/// realized), and so is the accuracy pass: with no flip the model and
/// batch are unchanged, so the point repeats the last accuracy, bit for
/// bit. The model is read back functionally: no controller requests, no
/// hook interaction.
fn flip_campaign(
    env: &mut RunEnv<'_>,
    mut lands: impl FnMut() -> bool,
    mut select: impl FnMut(&QuantNetwork, &Tensor, &[usize]) -> Option<BitIndex>,
) -> Result<AttackOutcome, SimError> {
    let (victim, layout) = env.model()?;
    let (x, y) = victim.dataset.test_sample(env.eval_batch, 0);
    let mut model = victim.model.clone();
    layout.load(&mut model, env.ctrl().dram())?;
    let mut outcome = AttackOutcome::default();
    let mut accuracy = model.accuracy(&x, &y)? * 100.0;
    outcome.curve.push((0.0, accuracy));
    for iteration in 1..=env.budget.iterations {
        if lands() {
            if let Some(flip) = select(&model, &x, &y) {
                let (row, bit) = layout.bit_location(&model, flip)?;
                env.ctrl().dram_mut().flip_bit(row, bit)?;
                model.flip_bit(flip)?;
                outcome.landed_flips += 1;
                outcome.target_bits.push(flip);
                outcome.flipped_bits.push(flip);
                accuracy = model.accuracy(&x, &y)? * 100.0;
            }
        }
        outcome.curve.push((iteration as f64, accuracy));
    }
    Ok(outcome)
}
