//! One channel's execution shard.

use dlk_memctrl::{CompletedRequest, ControllerStats, MemRequest, MemoryController};

use crate::error::EngineError;

/// A self-contained execution unit for one DRAM channel: its own
/// [`MemoryController`] (device, mapper, queue) with the channel's
/// slice of the defense state mounted as the controller hook — for
/// DRAM-Locker, the lock-table entries of the victims homed on this
/// channel.
///
/// Shards share nothing, which is what lets the engine step them on
/// scoped threads and still merge results deterministically.
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

    /// Number of queued requests on this shard.
    pub fn pending(&self) -> usize {
        self.ctrl.pending()
    }

    /// This shard's controller statistics.
    pub fn stats(&self) -> ControllerStats {
        self.ctrl.stats()
    }

    /// Enqueues a shard-local request.
    pub fn submit(&mut self, request: MemRequest) {
        self.ctrl.submit(request);
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

    /// Serves every queued request in scheduling order — the unit of
    /// work one engine step thread performs.
    ///
    /// # Errors
    ///
    /// Stops at the first failing request, tagged with this channel.
    pub fn drain(&mut self) -> Result<Vec<CompletedRequest>, EngineError> {
        self.ctrl
            .run_to_completion()
            .map_err(|source| EngineError::Shard { channel: self.channel, source })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_memctrl::MemCtrlConfig;

    #[test]
    fn shard_drains_its_own_queue() {
        let mut shard =
            ChannelShard::new(3, MemoryController::new(MemCtrlConfig::tiny_for_tests()));
        shard.submit(MemRequest::write(0, vec![7]));
        shard.submit(MemRequest::read(0, 1));
        assert_eq!(shard.pending(), 2);
        let done = shard.drain().unwrap();
        assert_eq!(done[1].data.as_deref(), Some(&[7u8][..]));
        assert_eq!(shard.stats().served, 2);
    }

    #[test]
    fn shard_errors_carry_the_channel_id() {
        let mut shard =
            ChannelShard::new(5, MemoryController::new(MemCtrlConfig::tiny_for_tests()));
        let capacity = shard.controller().mapper().capacity();
        let err = shard.service(MemRequest::read(capacity, 1)).unwrap_err();
        assert!(matches!(err, EngineError::Shard { channel: 5, .. }));
    }
}
