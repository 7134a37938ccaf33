//! Mounting declarative defenses on a controller.
//!
//! [`DefenseSpec::mount`] turns one defense into the [`DefenseHook`] a
//! channel's controller consults on every request, and [`HookChain`]
//! stacks several mounted hooks on one controller. After the run every
//! hook reports its own count through [`DefenseHook::actions`], which
//! is how the unified [`RunReport`](crate::RunReport) carries
//! per-defense action counts without knowing any concrete defense type.

// DLK001: the request path returns typed errors instead of panicking,
// because a panic there takes down a whole sweep worker. Test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use dlk_defenses::{
    CounterDefenseHook, CounterPerRow, Graphene, Hydra, RowSwapDefense, Shadow, Twice,
};
use dlk_dram::{DramDevice, RowAddr};
use dlk_locker::{DramLocker, ProtectionPlan};
use dlk_memctrl::{AddressMapper, DefenseHook, HookAction, MemRequest};

use crate::error::SimError;
use crate::spec::DefenseSpec;

impl DefenseSpec {
    /// Builds this defense's hook for one channel. `guarded` lists the
    /// physical byte ranges the channel's victims asked to have
    /// guarded; DRAM-Locker locks rows around them through a
    /// [`ProtectionPlan`], and every other defense ignores them.
    ///
    /// # Errors
    ///
    /// Returns an error when the locker cannot cover the guarded ranges
    /// (lock-table capacity, unmappable ranges, …).
    pub fn mount(
        &self,
        mapper: &AddressMapper,
        guarded: &[(u64, u64)],
    ) -> Result<Box<dyn DefenseHook>, SimError> {
        Ok(match *self {
            DefenseSpec::Locker { config, target, radius } => {
                let mut locker = DramLocker::new(config, *mapper.geometry());
                let mut plan = ProtectionPlan::new(target).with_radius(radius);
                for &(start, end) in guarded {
                    plan.protect_range(mapper, start, end)?;
                }
                plan.apply(&mut locker)?;
                Box::new(locker)
            }
            DefenseSpec::Graphene { capacity, threshold } => {
                Box::new(CounterDefenseHook::new(Graphene::new(capacity, threshold)))
            }
            DefenseSpec::Hydra { group_size, group_threshold, row_threshold } => Box::new(
                CounterDefenseHook::new(Hydra::new(group_size, group_threshold, row_threshold)),
            ),
            DefenseSpec::Twice { threshold, prune_interval, prune_rate } => {
                Box::new(CounterDefenseHook::new(Twice::new(threshold, prune_interval, prune_rate)))
            }
            DefenseSpec::CounterPerRow { threshold } => {
                Box::new(CounterDefenseHook::new(CounterPerRow::new(threshold)))
            }
            DefenseSpec::RowSwap { policy, threshold, seed } => {
                Box::new(RowSwapDefense::new(policy, threshold, seed))
            }
            DefenseSpec::Shadow { threshold, seed } => Box::new(Shadow::new(threshold, seed)),
        })
    }
}

/// Several hooks stacked on one controller: the first non-`Allow`
/// verdict wins, every hook observes every activation, and lookup
/// latencies add up (each defense is separate hardware on the request
/// path).
pub struct HookChain {
    hooks: Vec<Box<dyn DefenseHook>>,
    name: String,
}

impl HookChain {
    /// Chains hooks in consultation order.
    pub fn new(hooks: Vec<Box<dyn DefenseHook>>) -> Self {
        let name = hooks.iter().map(|h| h.name().to_owned()).collect::<Vec<_>>().join("+");
        Self { hooks, name }
    }

    /// The chained hooks, in consultation order.
    pub fn hooks(&self) -> &[Box<dyn DefenseHook>] {
        &self.hooks
    }
}

impl DefenseHook for HookChain {
    fn before_access(
        &mut self,
        request: &MemRequest,
        target: RowAddr,
        dram: &mut DramDevice,
    ) -> HookAction {
        let mut verdict = HookAction::Allow;
        for hook in &mut self.hooks {
            match hook.before_access(request, target, dram) {
                HookAction::Allow => {}
                action => {
                    verdict = action;
                    break;
                }
            }
        }
        verdict
    }

    fn on_activate(&mut self, row: RowAddr, dram: &mut DramDevice) {
        for hook in &mut self.hooks {
            hook.on_activate(row, dram);
        }
    }

    fn check_latency(&self) -> u64 {
        self.hooks.iter().map(|h| h.check_latency()).sum()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dram::{DramConfig, DramGeometry};

    fn mapper() -> AddressMapper {
        AddressMapper::new(DramGeometry::tiny())
    }

    #[test]
    fn mounted_hooks_carry_the_spec_names() {
        let specs = [
            DefenseSpec::locker_adjacent(),
            DefenseSpec::graphene(64, 8),
            DefenseSpec::hydra(16, 4, 8),
            DefenseSpec::twice(8, 64, 1),
            DefenseSpec::counter_per_row(8),
            DefenseSpec::rrs(8, 1),
            DefenseSpec::srs(8, 1),
            DefenseSpec::shadow(8, 1),
        ];
        for spec in specs {
            let hook = spec.mount(&mapper(), &[]).unwrap();
            assert_eq!(hook.name(), spec.name());
            assert_eq!(hook.actions(), 0, "{} acted before any traffic", spec.name());
        }
    }

    #[test]
    fn locker_guards_ranges_through_the_plan() {
        let guarded = [(10 * 64u64, 11 * 64u64)];
        let hook = DefenseSpec::locker_adjacent().mount(&mapper(), &guarded).unwrap();
        let locker = hook.as_any().unwrap().downcast_ref::<DramLocker>().unwrap();
        assert_eq!(locker.lock_table().len(), 2, "two neighbours of row 10");
    }

    #[test]
    fn tracker_hook_reports_refreshes() {
        let mut hook = DefenseSpec::graphene(64, 4).mount(&mapper(), &[]).unwrap();
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let row = RowAddr::new(0, 0, 5);
        for _ in 0..16 {
            hook.on_activate(row, &mut dram);
        }
        assert!(hook.actions() > 0);
    }

    #[test]
    fn chain_first_verdict_wins_and_latency_sums() {
        let mapper = mapper();
        let guarded = [(10 * 64u64, 11 * 64u64)];
        let locker = DefenseSpec::locker_data_rows().mount(&mapper, &guarded).unwrap();
        let graphene = DefenseSpec::graphene(64, 4).mount(&mapper, &guarded).unwrap();
        let mut chain = HookChain::new(vec![locker, graphene]);
        assert_eq!(chain.name(), "dram-locker+graphene");
        assert_eq!(chain.check_latency(), 2);
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let locked = RowAddr::new(0, 0, 10);
        let request = MemRequest::read(10 * 64, 1).untrusted();
        assert_eq!(chain.before_access(&request, locked, &mut dram), HookAction::Deny);
    }
}
