//! Global-address routing across channel shards.
//!
//! The engine models an `n`-channel memory system as `n` independent
//! per-channel devices behind one *global* physical address space of
//! `n × per-channel capacity` bytes. Rows interleave across channels at
//! row granularity (the common controller default — consecutive rows
//! land on different channels, so sequential traffic spreads over all
//! shards), and within a channel the shard's own
//! [`AddressMapper`] takes over:
//!
//! ```text
//! global row g  →  channel  g mod n,  local row  g div n
//! ```
//!
//! With `n = 1` the routing is the identity, which is what makes a
//! single-channel engine bit-identical to the bare controller pipeline
//! it replaced.

use dlk_memctrl::{AddressMapper, Trace};

use crate::error::EngineError;

/// Routes global physical byte addresses to `(channel, local address)`
/// pairs and back.
///
/// # Example
///
/// ```
/// use dlk_dram::DramGeometry;
/// use dlk_engine::ChannelRouter;
/// use dlk_memctrl::AddressMapper;
///
/// let mapper = AddressMapper::new(DramGeometry::tiny());
/// let router = ChannelRouter::new(2, &mapper);
/// let row_bytes = mapper.geometry().row_bytes as u64;
/// // Global rows 0 and 1 land on different channels, same local row.
/// assert_eq!(router.to_local(0), (0, 0));
/// assert_eq!(router.to_local(row_bytes + 5), (1, 5));
/// assert_eq!(router.to_global(1, 5), Ok(row_bytes + 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelRouter {
    channels: u64,
    row_bytes: u64,
    channel_capacity: u64,
}

impl ChannelRouter {
    /// Creates a router over `channels` shards whose local address
    /// spaces are described by `mapper` (one per-channel device each).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero; the engine constructor reports
    /// [`EngineError::NoChannels`]
    /// before this can be reached.
    pub fn new(channels: usize, mapper: &AddressMapper) -> Self {
        assert!(channels > 0, "router needs at least one channel");
        Self {
            channels: channels as u64,
            row_bytes: mapper.geometry().row_bytes as u64,
            channel_capacity: mapper.capacity(),
        }
    }

    /// Number of channels routed over.
    pub fn channels(&self) -> usize {
        self.channels as usize
    }

    /// Total global capacity in bytes across all channels.
    pub fn capacity(&self) -> u64 {
        self.channels * self.channel_capacity
    }

    /// Routes a global physical address to `(channel, local address)`.
    /// Addresses beyond [`capacity`](ChannelRouter::capacity) still
    /// route (to an out-of-range local address); the shard's controller
    /// reports them at service time, exactly as the single-controller
    /// pipeline did.
    pub fn to_local(&self, phys: u64) -> (usize, u64) {
        let global_row = phys / self.row_bytes;
        let offset = phys % self.row_bytes;
        let channel = (global_row % self.channels) as usize;
        let local_row = global_row / self.channels;
        (channel, local_row * self.row_bytes + offset)
    }

    /// Inverse of [`ChannelRouter::to_local`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadChannel`] for a channel index outside
    /// the configured width.
    pub fn to_global(&self, channel: usize, local: u64) -> Result<u64, EngineError> {
        if channel as u64 >= self.channels {
            return Err(EngineError::BadChannel { channel, channels: self.channels as usize });
        }
        let local_row = local / self.row_bytes;
        let offset = local % self.row_bytes;
        let global_row = local_row * self.channels + channel as u64;
        Ok(global_row * self.row_bytes + offset)
    }

    /// Lifts a *shard-local* trace (e.g. a victim's weight-fetch
    /// stream recorded against its home device) into the global
    /// address space, homing every access on `channel`. Replaying the
    /// result through the engine routes each access back to exactly
    /// the local addresses the trace named.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadChannel`] for a channel index outside
    /// the configured width.
    pub fn globalize_trace(&self, trace: &Trace, channel: usize) -> Result<Trace, EngineError> {
        trace.try_map_addrs(|addr| self.to_global(channel, addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dram::DramGeometry;

    fn router(channels: usize) -> ChannelRouter {
        let mapper = AddressMapper::new(DramGeometry::tiny());
        ChannelRouter::new(channels, &mapper)
    }

    #[test]
    fn single_channel_routing_is_identity() {
        let router = router(1);
        for phys in [0u64, 1, 63, 64, 12345] {
            assert_eq!(router.to_local(phys), (0, phys));
            assert_eq!(router.to_global(0, phys).unwrap(), phys);
        }
    }

    #[test]
    fn roundtrip_is_bijective_over_capacity() {
        for channels in [2usize, 3, 4] {
            let router = router(channels);
            let mut seen = std::collections::HashSet::new();
            for phys in (0..router.capacity()).step_by(37) {
                let (channel, local) = router.to_local(phys);
                assert!(channel < channels);
                assert!(local < router.capacity() / channels as u64);
                assert_eq!(router.to_global(channel, local).unwrap(), phys);
                assert!(seen.insert((channel, local)), "collision at {phys:#x}");
            }
        }
    }

    #[test]
    fn consecutive_rows_stripe_across_channels() {
        let router = router(4);
        let row_bytes = 64u64;
        let channels: Vec<usize> = (0..8).map(|row| router.to_local(row * row_bytes).0).collect();
        assert_eq!(channels, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn globalized_trace_routes_back_to_its_local_addresses() {
        use dlk_memctrl::{Trace, TraceOp};
        let router = router(2);
        let mut local = Trace::sequential_reads(64, 64, 8, 4);
        local.untrusted = true;
        let global = router.globalize_trace(&local, 1).unwrap();
        assert!(global.untrusted);
        for (g, l) in global.ops().iter().zip(local.ops()) {
            let (TraceOp::Read { addr: ga, len: gl }, TraceOp::Read { addr: la, len: ll }) = (g, l)
            else {
                panic!("reads only")
            };
            assert_eq!(gl, ll);
            assert_eq!(router.to_local(ga), (1, la));
        }
        assert!(router.globalize_trace(&local, 2).is_err());
    }

    #[test]
    fn bad_channel_rejected() {
        let router = router(2);
        assert!(matches!(
            router.to_global(2, 0),
            Err(EngineError::BadChannel { channel: 2, channels: 2 })
        ));
    }
}
