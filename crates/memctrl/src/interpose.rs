//! Defense interposition.
//!
//! A [`DefenseHook`] sits on the controller's request path. Before every
//! access the hook may allow it, deny it (DRAM-Locker's lock-table
//! behaviour: the instruction is skipped, costing only the lock-table
//! lookup), or redirect it to a different physical address (the
//! indirection DRAM-Locker installs after a SWAP). Hooks also observe
//! every row activation, which is how counter-based baselines
//! (Graphene, Hydra, TWiCE, ...) drive their trackers.

use dlk_dram::{DramDevice, RowAddr};

use crate::request::MemRequest;

/// The hook's decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookAction {
    /// Serve the request unchanged.
    Allow,
    /// Skip the request (locked row; no DRAM command issued).
    Deny,
    /// Serve the request from a different row (same column offset) —
    /// the indirection DRAM-Locker installs after a SWAP moves data.
    Redirect(RowAddr),
}

/// A defense mechanism interposed on the memory controller.
///
/// Implementations receive mutable access to the DRAM device so they
/// can issue mitigation commands (swaps, targeted refreshes) inline,
/// exactly where a hardware defense would act.
///
/// Hooks must be `Send`: the sharded execution engine mounts one hook
/// chain per DRAM channel and deals the channels over the worker
/// [`pool`](crate::pool), so a mounted hook (inside its controller)
/// crosses thread boundaries.
pub trait DefenseHook: Send {
    /// Inspects a request before it is served. Called once per request
    /// with its mapped DRAM row.
    fn before_access(
        &mut self,
        request: &MemRequest,
        target: RowAddr,
        dram: &mut DramDevice,
    ) -> HookAction;

    /// Observes a row activation caused by a served request (row-buffer
    /// miss). Counter-based defenses update trackers here and may issue
    /// mitigations.
    fn on_activate(&mut self, _row: RowAddr, _dram: &mut DramDevice) {}

    /// Extra cycles the hook adds to every request (e.g. a lock-table
    /// lookup). Charged whether the request is allowed or denied.
    fn check_latency(&self) -> u64 {
        0
    }

    /// Short name for reports.
    fn name(&self) -> &str;

    /// Defensive actions taken so far (denies and swaps for
    /// DRAM-Locker, targeted refreshes for counter trackers, row swaps
    /// or shuffles for the remapping defenses). The default reports
    /// zero for hooks that take none.
    fn actions(&self) -> u64 {
        0
    }

    /// Downcasting support for harnesses that need a mounted hook's
    /// concrete type after a run (a hook chain's members, a locker's
    /// lock-table counters). The default hides the hook.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// The identity hook: no protection, no overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoDefense;

impl DefenseHook for NoDefense {
    fn before_access(
        &mut self,
        _request: &MemRequest,
        _target: RowAddr,
        _dram: &mut DramDevice,
    ) -> HookAction {
        HookAction::Allow
    }

    fn name(&self) -> &str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dram::DramConfig;

    #[test]
    fn no_defense_allows_everything() {
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mut hook = NoDefense;
        let req = MemRequest::read(0, 1);
        let action = hook.before_access(&req, RowAddr::new(0, 0, 0), &mut dram);
        assert_eq!(action, HookAction::Allow);
        assert_eq!(hook.check_latency(), 0);
        assert_eq!(hook.actions(), 0);
        assert_eq!(hook.name(), "none");
    }

    #[test]
    fn hook_is_object_safe() {
        let hook: Box<dyn DefenseHook> = Box::new(NoDefense);
        assert_eq!(hook.name(), "none");
    }
}
