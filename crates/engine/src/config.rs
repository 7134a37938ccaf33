//! Engine configuration.

use dlk_memctrl::trace::parse_u64;

/// How many channel shards an engine runs and whether it deals them
/// over the worker pool.
///
/// The execution model guarantees that `parallel` never changes
/// results: shards share no state, and every merge (stats, completions,
/// reports) is performed in channel-id order. `parallel: true` only
/// changes wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of DRAM channels, each backed by its own shard
    /// (controller + device + mounted defense chain).
    pub channels: usize,
    /// Deal shards over the process's worker
    /// [`pool`](dlk_memctrl::pool) (`true`) or step them one after
    /// another in channel order on the caller's thread (`false`).
    pub parallel: bool,
}

impl EngineConfig {
    /// The classic single-controller pipeline: one channel, no threads.
    pub fn serial() -> Self {
        Self { channels: 1, parallel: false }
    }

    /// `channels` shards stepped in parallel over the worker pool.
    pub fn sharded(channels: usize) -> Self {
        Self { channels, parallel: true }
    }

    /// `channels` shards stepped serially in channel order — the
    /// bit-identical reference for a [`sharded`](EngineConfig::sharded)
    /// run of the same width.
    pub fn serial_reference(channels: usize) -> Self {
        Self { channels, parallel: false }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::serial()
    }
}

/// The canonical one-token form used by spec files: `serial`,
/// `sharded(n)` or `serial-ref(n)`.
impl std::fmt::Display for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.channels, self.parallel) {
            (1, false) => write!(f, "serial"),
            (n, true) => write!(f, "sharded({n})"),
            (n, false) => write!(f, "serial-ref({n})"),
        }
    }
}

/// Parses the [`Display`](EngineConfig#impl-Display-for-EngineConfig)
/// form, the channel count in [`parse_u64`]'s grammar. The error
/// carries the offending token.
impl std::str::FromStr for EngineConfig {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || format!("bad engine config '{s}' (serial | sharded(n) | serial-ref(n))");
        if s == "serial" {
            return Ok(Self::serial());
        }
        let channels = |prefix: &str| -> Option<usize> {
            let digits = s.strip_prefix(prefix)?.strip_suffix(')')?;
            usize::try_from(parse_u64(digits)?).ok().filter(|&n| n > 0)
        };
        if let Some(n) = channels("sharded(") {
            return Ok(Self::sharded(n));
        }
        if let Some(n) = channels("serial-ref(") {
            return Ok(Self::serial_reference(n));
        }
        Err(bad())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_every_shape() {
        for config in [
            EngineConfig::serial(),
            EngineConfig::sharded(1),
            EngineConfig::sharded(4),
            EngineConfig::serial_reference(4),
        ] {
            let token = config.to_string();
            assert_eq!(token.parse::<EngineConfig>().unwrap(), config, "{token}");
        }
        assert_eq!(EngineConfig::serial().to_string(), "serial");
        assert_eq!(EngineConfig::sharded(4).to_string(), "sharded(4)");
        assert_eq!(EngineConfig::serial_reference(4).to_string(), "serial-ref(4)");
        assert!("sharded(0)".parse::<EngineConfig>().is_err());
        assert!("sharded(2".parse::<EngineConfig>().is_err());
        assert!("threads(2)".parse::<EngineConfig>().is_err());
        // The channel count takes the spec files' one number grammar.
        assert!("sharded(+2)".parse::<EngineConfig>().is_err());
        assert_eq!("sharded(0x2)".parse::<EngineConfig>(), Ok(EngineConfig::sharded(2)));
    }

    #[test]
    fn constructors_set_parallelism() {
        assert_eq!(EngineConfig::default(), EngineConfig { channels: 1, parallel: false });
        assert_eq!(EngineConfig::sharded(4), EngineConfig { channels: 4, parallel: true });
        assert_eq!(
            EngineConfig::serial_reference(4),
            EngineConfig { channels: 4, parallel: false }
        );
    }
}
