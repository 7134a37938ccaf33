//! Memory requests.

use std::fmt;

/// Kind of memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Read `len` bytes.
    Read,
    /// Write the attached payload.
    Write,
}

impl RequestKind {
    /// Number of request kinds — the length of per-kind action tables.
    pub const COUNT: usize = 2;

    /// Dense index into per-kind action tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RequestKind::Read => 0,
            RequestKind::Write => 1,
        }
    }

    /// Lower-case label used in metric names, in [`RequestKind::index`]
    /// order.
    pub fn token(self) -> &'static str {
        match self {
            RequestKind::Read => "read",
            RequestKind::Write => "write",
        }
    }

    /// All kinds, in [`RequestKind::index`] order.
    pub const ALL: [RequestKind; RequestKind::COUNT] = [RequestKind::Read, RequestKind::Write];
}

/// A memory request addressed by physical byte address. A request
/// carries no id: the controller serves each one as it arrives, and
/// its position in a trace or a campaign is what names it.
///
/// # Example
///
/// ```
/// use dlk_memctrl::{MemRequest, RequestKind};
/// let write = MemRequest::write(0x1000, vec![0xFF; 8]);
/// let read = MemRequest::read(0x1000, 8);
/// assert_eq!((write.kind, write.len), (RequestKind::Write, 8));
/// assert_eq!(read.len, 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRequest {
    /// Read or write.
    pub kind: RequestKind,
    /// Physical byte address.
    pub addr: u64,
    /// Number of bytes to read or write.
    pub len: usize,
    /// Payload for writes (empty for reads).
    pub payload: Vec<u8>,
    /// `true` if the request was issued by an untrusted process
    /// (attacker-controlled) — defenses may use this only for
    /// accounting; DRAM-Locker itself never needs it (it denies by
    /// address, not by origin).
    pub untrusted: bool,
}

impl MemRequest {
    /// Creates a read request of `len` bytes at `addr`.
    pub fn read(addr: u64, len: usize) -> Self {
        Self { kind: RequestKind::Read, addr, len, payload: Vec::new(), untrusted: false }
    }

    /// Creates a write request with the given payload.
    pub fn write(addr: u64, payload: Vec<u8>) -> Self {
        Self { kind: RequestKind::Write, addr, len: payload.len(), payload, untrusted: false }
    }

    /// Marks the request as attacker-issued.
    pub fn untrusted(mut self) -> Self {
        self.untrusted = true;
        self
    }
}

impl fmt::Display for MemRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            RequestKind::Read => "R",
            RequestKind::Write => "W",
        };
        write!(f, "{kind} {:#x}+{}", self.addr, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_captures_payload_len() {
        let req = MemRequest::write(0x80, vec![1, 2, 3, 4]);
        assert_eq!(req.len, 4);
        assert_eq!(req.kind, RequestKind::Write);
    }

    #[test]
    fn untrusted_flag() {
        let req = MemRequest::read(0, 1).untrusted();
        assert!(req.untrusted);
        assert!(!MemRequest::read(0, 1).untrusted);
    }

    #[test]
    fn display_shows_kind_and_addr() {
        let req = MemRequest::read(0x40, 8);
        assert_eq!(req.to_string(), "R 0x40+8");
        assert_eq!(MemRequest::write(0x80, vec![1, 2]).to_string(), "W 0x80+2");
    }
}
