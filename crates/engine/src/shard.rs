//! One channel's execution shard.

use dlk_memctrl::{CompletedRequest, ControllerStats, MemRequest, MemoryController, Trace};

use crate::engine::ReplayCounts;
use crate::error::EngineError;
use crate::route::ChannelRouter;

/// A self-contained execution unit for one DRAM channel: its own
/// [`MemoryController`] (device, mapper) with the channel's slice of
/// the defense state mounted as the controller hook — for DRAM-Locker,
/// the lock-table entries of the victims homed on this channel.
///
/// Shards share nothing, which is what lets the engine deal them over
/// the worker pool and still merge results deterministically.
#[derive(Debug)]
pub struct ChannelShard {
    channel: usize,
    ctrl: MemoryController,
}

impl ChannelShard {
    /// Wraps a controller as channel `channel`'s shard.
    pub fn new(channel: usize, ctrl: MemoryController) -> Self {
        Self { channel, ctrl }
    }

    /// This shard's channel id.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// The shard's controller (read-only).
    pub fn controller(&self) -> &MemoryController {
        &self.ctrl
    }

    /// Mutable access to the shard's controller (defense mounting,
    /// victim deployment, direct traffic).
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.ctrl
    }

    /// This shard's controller statistics.
    pub fn stats(&self) -> ControllerStats {
        self.ctrl.stats()
    }

    /// Serves one shard-local request immediately.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Shard`] tagged with this channel.
    pub fn service(&mut self, request: MemRequest) -> Result<CompletedRequest, EngineError> {
        self.ctrl
            .service(request)
            .map_err(|source| EngineError::Shard { channel: self.channel, source })
    }

    /// Serves, in trace order, every op of the global-address `trace`
    /// that `router` homes on this shard — one job of the engine's deal
    /// over the worker pool. Ops homed elsewhere are skipped without being
    /// built into requests.
    ///
    /// # Errors
    ///
    /// Stops at the first failing op, tagged with this channel.
    pub(crate) fn replay(
        &mut self,
        trace: &Trace,
        router: &ChannelRouter,
    ) -> Result<ReplayCounts, EngineError> {
        let mut counts = ReplayCounts::default();
        let channel = self.channel;
        let requests = trace.routed_requests(|addr| {
            let (home, local) = router.to_local(addr);
            (home == channel).then_some(local)
        });
        for request in requests {
            let done = self.service(request)?;
            counts.requests += 1;
            counts.denied += u64::from(done.denied);
        }
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_memctrl::{MemCtrlConfig, TraceOp};

    fn shard(channel: usize) -> ChannelShard {
        ChannelShard::new(channel, MemoryController::new(MemCtrlConfig::tiny_for_tests()))
    }

    #[test]
    fn shard_replays_only_its_own_ops() {
        let mut shard = shard(1);
        let router = ChannelRouter::new(2, shard.controller().mapper());
        let row_bytes = shard.controller().geometry().row_bytes as u64;
        let mut trace = Trace::new();
        for row in 0..4 {
            trace.push(TraceOp::Write { addr: row * row_bytes + 3, payload: vec![row as u8] });
        }
        let counts = shard.replay(&trace, &router).unwrap();
        // Global rows 1 and 3 are channel 1's local rows 0 and 1.
        assert_eq!(counts, ReplayCounts { requests: 2, denied: 0 });
        let read = |shard: &mut ChannelShard, addr| {
            shard.service(MemRequest::read(addr, 1)).unwrap().data.unwrap()[0]
        };
        assert_eq!((read(&mut shard, 3), read(&mut shard, row_bytes + 3)), (1, 3));
    }

    #[test]
    fn shard_errors_carry_the_channel_id() {
        let mut shard = shard(5);
        let capacity = shard.controller().mapper().capacity();
        let err = shard.service(MemRequest::read(capacity, 1)).unwrap_err();
        assert!(matches!(err, EngineError::Shard { channel: 5, .. }));
    }
}
