//! Error type for the sharded execution engine.

use std::error::Error;
use std::fmt;

use dlk_memctrl::MemCtrlError;

/// Errors returned by the sharded execution engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The engine was configured with zero channels.
    NoChannels,
    /// A channel index outside the configured shard count.
    BadChannel {
        /// The offending channel index.
        channel: usize,
        /// The configured channel count.
        channels: usize,
    },
    /// A shard's controller has a different geometry than channel 0's —
    /// the router's interleave math would silently misroute on
    /// heterogeneous shards.
    GeometryMismatch {
        /// The first non-matching channel.
        channel: usize,
    },
    /// A shard's controller rejected a request. When several shards
    /// fail in one replay, the lowest channel id is reported —
    /// the same one a serial run would report.
    Shard {
        /// The failing shard's channel id.
        channel: usize,
        /// The controller error.
        source: MemCtrlError,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoChannels => write!(f, "engine needs at least one channel"),
            EngineError::BadChannel { channel, channels } => {
                write!(f, "channel {channel} out of range ({channels} channels)")
            }
            EngineError::GeometryMismatch { channel } => {
                write!(f, "channel {channel}'s controller differs in geometry from channel 0")
            }
            EngineError::Shard { channel, source } => {
                write!(f, "channel {channel}: {source}")
            }
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Shard { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_channel() {
        let err = EngineError::Shard {
            channel: 3,
            source: MemCtrlError::AddressOutOfRange { addr: 16, capacity: 8 },
        };
        assert!(err.to_string().starts_with("channel 3:"));
        assert!(Error::source(&err).is_some());
        assert!(EngineError::NoChannels.to_string().contains("at least one"));
    }
}
