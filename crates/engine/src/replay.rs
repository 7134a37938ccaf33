//! Trace-driven replay sources.
//!
//! A [`ReplaySource`] feeds recorded or generated request streams
//! through the engine: the engine routes each request to its home
//! shard, then drains all shards (in parallel when configured). The
//! canonical source is [`TraceReplay`] over a
//! [`Trace`] — either generated by a
//! [`Workload`](crate::Workload) or parsed from a trace file with
//! [`Trace::from_text`](dlk_memctrl::Trace::from_text).

use dlk_memctrl::{MemRequest, Trace};

/// A stream of global-address requests for the engine to replay.
pub trait ReplaySource {
    /// The next request, or `None` when the stream is exhausted.
    fn next_request(&mut self) -> Option<MemRequest>;

    /// Remaining requests, when known (queue pre-sizing).
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Replays a recorded [`Trace`] in order, applying the trace's trust
/// level to every request.
///
/// # Example
///
/// ```
/// use dlk_engine::{ReplaySource, TraceReplay};
/// use dlk_memctrl::Trace;
///
/// let mut source = TraceReplay::new(&Trace::sequential_reads(0, 64, 4, 3));
/// assert_eq!(source.size_hint(), Some(3));
/// assert_eq!(source.next_request().unwrap().addr, 0);
/// ```
#[derive(Debug)]
pub struct TraceReplay {
    requests: std::vec::IntoIter<MemRequest>,
}

impl TraceReplay {
    /// A source over the trace's requests.
    pub fn new(trace: &Trace) -> Self {
        Self { requests: trace.requests().collect::<Vec<_>>().into_iter() }
    }
}

impl ReplaySource for TraceReplay {
    fn next_request(&mut self) -> Option<MemRequest> {
        self.requests.next()
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.requests.len())
    }
}

/// Chains several sources into one stream, in order — e.g. a benign
/// tenant trace followed by an attacker loop.
#[derive(Debug, Default)]
pub struct ChainedReplay<S> {
    sources: std::collections::VecDeque<S>,
}

impl<S: ReplaySource> ChainedReplay<S> {
    /// Chains `sources` in replay order.
    pub fn new(sources: impl IntoIterator<Item = S>) -> Self {
        Self { sources: sources.into_iter().collect() }
    }
}

impl<S: ReplaySource> ReplaySource for ChainedReplay<S> {
    fn next_request(&mut self) -> Option<MemRequest> {
        loop {
            let front = self.sources.front_mut()?;
            match front.next_request() {
                Some(request) => return Some(request),
                None => {
                    self.sources.pop_front();
                }
            }
        }
    }

    fn size_hint(&self) -> Option<usize> {
        self.sources.iter().map(ReplaySource::size_hint).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_replay_preserves_order_and_trust() {
        let trace = Trace::hammer_pair(0, 128, 2);
        let mut source = TraceReplay::new(&trace);
        let mut addrs = Vec::new();
        while let Some(request) = source.next_request() {
            assert!(request.untrusted);
            addrs.push(request.addr);
        }
        assert_eq!(addrs, vec![0, 128, 0, 128]);
        assert_eq!(source.size_hint(), Some(0));
    }

    #[test]
    fn chained_replay_runs_sources_in_order() {
        let a = Trace::sequential_reads(0, 8, 1, 2);
        let b = Trace::sequential_reads(1000, 8, 1, 2);
        let mut chain = ChainedReplay::new([TraceReplay::new(&a), TraceReplay::new(&b)]);
        assert_eq!(chain.size_hint(), Some(4));
        let addrs: Vec<u64> = std::iter::from_fn(|| chain.next_request().map(|r| r.addr)).collect();
        assert_eq!(addrs, vec![0, 8, 1000, 1008]);
    }
}
