//! Request traces: generation and the trace-file codec.
//!
//! Traces model the workloads that drive the evaluation — a victim's
//! DNN weight reads, background traffic, and attacker hammer loops. A
//! hammer loop alternates between two rows of the same bank so every
//! access conflicts in the row buffer and forces an ACT, the classic
//! double-sided-free hammer pattern.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::MemCtrlError;
use crate::request::{MemRequest, RequestKind};

/// One operation in a trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOp {
    /// Read `len` bytes at `addr`.
    Read {
        /// Physical byte address.
        addr: u64,
        /// Bytes to read.
        len: usize,
    },
    /// Write `payload` at `addr`.
    Write {
        /// Physical byte address.
        addr: u64,
        /// Bytes to write.
        payload: Vec<u8>,
    },
}

impl TraceOp {
    /// The physical byte address the op names.
    pub fn addr(&self) -> u64 {
        match *self {
            TraceOp::Read { addr, .. } | TraceOp::Write { addr, .. } => addr,
        }
    }

    /// The request this op issues at `addr` — its own address, or the
    /// shard-local one a router translated it to — marked
    /// attacker-issued when `untrusted`.
    pub fn request(&self, addr: u64, untrusted: bool) -> MemRequest {
        let (kind, len, payload) = match self {
            TraceOp::Read { len, .. } => (RequestKind::Read, *len, Vec::new()),
            TraceOp::Write { payload, .. } => (RequestKind::Write, payload.len(), payload.clone()),
        };
        MemRequest { kind, addr, len, payload, untrusted }
    }

    /// Appends the op's trace-file record, without a line break:
    /// `R <addr> <len>` or `W <addr> <payload>`, the address in `0x`
    /// hex, the length in decimal and the payload as two lowercase hex
    /// digits per byte (`-` when empty, so the record keeps three
    /// fields). [`Trace::to_text`] writes one per line, and so does a
    /// spec file's `op` record.
    pub fn write_record(&self, out: &mut String) {
        match self {
            TraceOp::Read { addr, len } => {
                out.push_str("R 0x");
                push_digits(out, *addr, 16);
                out.push(' ');
                push_digits(out, *len as u64, 10);
            }
            TraceOp::Write { addr, payload } => {
                out.push_str("W 0x");
                push_digits(out, *addr, 16);
                out.push(' ');
                if payload.is_empty() {
                    out.push('-');
                }
                for byte in payload {
                    out.push(char::from(HEX_DIGITS[usize::from(byte >> 4)]));
                    out.push(char::from(HEX_DIGITS[usize::from(byte & 0xf)]));
                }
            }
        }
    }

    /// Parses one record in the form [`write_record`](Self::write_record)
    /// writes. Either number may be decimal or `0x` hex (the one
    /// grammar of [`parse_u64`]), the payload's hex digits uppercase,
    /// and fields may be split by any whitespace.
    ///
    /// # Errors
    ///
    /// Returns what is wrong with the record.
    pub fn parse_record(record: &str) -> Result<Self, String> {
        let mut fields = record.split_whitespace();
        let kind = fields.next().ok_or("empty record")?;
        if kind != "R" && kind != "W" {
            return Err(format!("unknown record kind '{kind}', expected R or W"));
        }
        let addr = fields.next().ok_or("missing address field")?;
        let addr = parse_u64(addr).ok_or("address is not a number")?;
        let op = if kind == "R" {
            let len = fields.next().ok_or("missing read length")?;
            let len = parse_u64(len)
                .and_then(|len| usize::try_from(len).ok())
                .ok_or("read length is not a number")?;
            TraceOp::Read { addr, len }
        } else {
            let hex = fields.next().ok_or("missing write payload")?;
            let payload = parse_hex(hex).ok_or("payload is not even-length hex")?;
            TraceOp::Write { addr, payload }
        };
        if fields.next().is_some() {
            return Err("trailing fields".to_owned());
        }
        Ok(op)
    }
}

/// A sequence of memory operations.
///
/// The ops sit behind an [`Arc`]: a clone shares them, and
/// [`push`](Trace::push) or [`extend`](Extend::extend) on a shared
/// trace first copies them out for the trace being changed.
///
/// # Example
///
/// ```
/// use dlk_memctrl::Trace;
/// let trace = Trace::sequential_reads(0, 8, 4, 16);
/// assert_eq!(trace.len(), 16);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    ops: Arc<Vec<TraceOp>>,
    /// Whether replayed requests are marked attacker-issued.
    pub untrusted: bool,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Appends an operation.
    pub fn push(&mut self, op: TraceOp) {
        Arc::make_mut(&mut self.ops).push(op);
    }

    /// `count` reads of `len` bytes each, starting at `base`, advancing
    /// by `stride` bytes.
    pub fn sequential_reads(base: u64, stride: u64, len: usize, count: usize) -> Self {
        (0..count).map(|i| TraceOp::Read { addr: base + i as u64 * stride, len }).collect()
    }

    /// `count` uniformly random reads of `len` bytes inside
    /// `[0, capacity - len]`, deterministic for a given `seed`.
    pub fn random_reads(capacity: u64, len: usize, count: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| TraceOp::Read { addr: rng.random_range(0..capacity - len as u64), len })
            .collect()
    }

    /// A hammer loop: `iterations` alternating 1-byte reads of two
    /// addresses (put them in the same bank, different rows, to force a
    /// row-buffer conflict and thus an ACT per access).
    pub fn hammer_pair(addr_a: u64, addr_b: u64, iterations: usize) -> Self {
        let mut ops = Vec::with_capacity(iterations * 2);
        for _ in 0..iterations {
            ops.push(TraceOp::Read { addr: addr_a, len: 1 });
            ops.push(TraceOp::Read { addr: addr_b, len: 1 });
        }
        Self { ops: Arc::new(ops), untrusted: true }
    }

    /// The requests this trace issues, in order, with the trace's trust
    /// level applied.
    pub fn requests(&self) -> impl Iterator<Item = MemRequest> + '_ {
        self.ops.iter().map(|op| op.request(op.addr(), self.untrusted))
    }

    /// Serializes the trace to the workspace's line-based trace-file
    /// format (the vendored `serde` stub is marker-only, so this codec
    /// *is* the on-disk representation recorded traces replay from):
    ///
    /// ```text
    /// # dlk-trace v1 untrusted=1
    /// R 0x1000 4
    /// W 0x2040 0a0bff
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = format!("# dlk-trace v1 untrusted={}\n", u8::from(self.untrusted));
        for op in self.ops() {
            op.write_record(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a trace from the format produced by [`Trace::to_text`].
    /// Blank lines and `#` comments are skipped (the header comment is
    /// recognized for the `untrusted` flag); every other line is one
    /// [`TraceOp::parse_record`] record.
    ///
    /// # Errors
    ///
    /// Returns [`MemCtrlError::TraceParse`] with the offending line.
    pub fn from_text(text: &str) -> Result<Self, MemCtrlError> {
        let mut ops = Vec::new();
        let mut untrusted = false;
        for (index, raw) in text.lines().enumerate() {
            let record = raw.trim();
            if record.is_empty() {
                continue;
            }
            if let Some(comment) = record.strip_prefix('#') {
                // Only the codec's own header carries the trust flag;
                // free-form comments are never interpreted.
                let mut header = comment.split_whitespace();
                if header.next() == Some("dlk-trace") && header.any(|field| field == "untrusted=1")
                {
                    untrusted = true;
                }
                continue;
            }
            let op = TraceOp::parse_record(record)
                .map_err(|reason| MemCtrlError::TraceParse { line: index + 1, reason })?;
            ops.push(op);
        }
        Ok(Self { ops: Arc::new(ops), untrusted })
    }

    /// Round-robin interleave of several tenants' traces into one
    /// stream, preserving each tenant's internal order — the
    /// multi-tenant workload the sharded engine replays. The result is
    /// untrusted iff any input is.
    pub fn interleave(tenants: &[Trace]) -> Self {
        let total = tenants.iter().map(Trace::len).sum();
        let mut ops = Vec::with_capacity(total);
        let mut cursor = 0;
        while ops.len() < total {
            for tenant in tenants {
                if let Some(op) = tenant.ops.get(cursor) {
                    ops.push(op.clone());
                }
            }
            cursor += 1;
        }
        Self { ops: Arc::new(ops), untrusted: tenants.iter().any(|t| t.untrusted) }
    }
}

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends `value` in `radix` (10 or 16), without leading zeros.
fn push_digits(out: &mut String, mut value: u64, radix: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = HEX_DIGITS[(value % radix) as usize];
        value /= radix;
        if value == 0 {
            break;
        }
    }
    for &digit in &digits[start..] {
        out.push(char::from(digit));
    }
}

/// Parses a number in the one grammar of trace records and spec files:
/// decimal digits, or `0x` followed by hex digits (either case), and
/// nothing else — no sign, no `0X`, no whitespace. `None` when `field`
/// is not in that form or overflows a `u64`.
pub fn parse_u64(field: &str) -> Option<u64> {
    let (digits, radix) = match field.strip_prefix("0x") {
        Some(hex) => (hex, 16),
        None => (field, 10),
    };
    // `from_str_radix` alone would also take a leading `+`.
    if !digits.bytes().all(|byte| char::from(byte).is_digit(radix)) {
        return None;
    }
    u64::from_str_radix(digits, radix).ok()
}

fn parse_hex(hex: &str) -> Option<Vec<u8>> {
    if hex == "-" {
        return Some(Vec::new());
    }
    // Work on bytes: fixed-offset `&str` slicing would panic on
    // multi-byte UTF-8 in a corrupted trace file.
    let digit = |byte: u8| (byte as char).to_digit(16).map(|d| d as u8);
    let mut payload = Vec::with_capacity(hex.len() / 2);
    for pair in hex.as_bytes().chunks(2) {
        match *pair {
            [hi, lo] => payload.push(digit(hi)? << 4 | digit(lo)?),
            _ => return None, // odd-length payload
        }
    }
    Some(payload)
}

impl Extend<TraceOp> for Trace {
    fn extend<T: IntoIterator<Item = TraceOp>>(&mut self, iter: T) {
        Arc::make_mut(&mut self.ops).extend(iter);
    }
}

/// A trusted trace of the collected ops.
impl FromIterator<TraceOp> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceOp>>(iter: T) -> Self {
        Self::from(iter.into_iter().collect::<Vec<_>>())
    }
}

/// A trusted trace of `ops`, without copying them.
impl From<Vec<TraceOp>> for Trace {
    fn from(ops: Vec<TraceOp>) -> Self {
        Self { ops: Arc::new(ops), untrusted: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{CompletedRequest, MemCtrlConfig, MemoryController};

    #[test]
    fn sequential_reads_layout() {
        let trace = Trace::sequential_reads(100, 10, 2, 3);
        assert_eq!(
            trace.ops(),
            &[
                TraceOp::Read { addr: 100, len: 2 },
                TraceOp::Read { addr: 110, len: 2 },
                TraceOp::Read { addr: 120, len: 2 },
            ]
        );
    }

    #[test]
    fn random_reads_are_deterministic_per_seed() {
        let a = Trace::random_reads(1 << 16, 4, 20, 7);
        let b = Trace::random_reads(1 << 16, 4, 20, 7);
        let c = Trace::random_reads(1 << 16, 4, 20, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// Serves every request of `trace` on `ctrl`, in order.
    fn serve_all(ctrl: &mut MemoryController, trace: &Trace) -> Vec<CompletedRequest> {
        trace.requests().map(|request| ctrl.service(request).unwrap()).collect()
    }

    #[test]
    fn hammer_pair_forces_activations() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let row_bytes = ctrl.geometry().row_bytes as u64;
        // Two rows in the same bank/subarray (BankSequential mapping).
        let trace = Trace::hammer_pair(10 * row_bytes, 12 * row_bytes, 50);
        let done = serve_all(&mut ctrl, &trace);
        assert_eq!(done.len(), 100);
        // Every access after the first misses the row buffer.
        assert_eq!(ctrl.dram().stats().row_buffer_misses, 100);
        assert!(done.iter().all(|c| c.request.untrusted));
    }

    #[test]
    fn requests_roundtrip_data() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let mut trace = Trace::new();
        trace.push(TraceOp::Write { addr: 5, payload: vec![1, 2] });
        trace.push(TraceOp::Read { addr: 5, len: 2 });
        let done = serve_all(&mut ctrl, &trace);
        assert_eq!(done[1].data.as_deref(), Some(&[1u8, 2][..]));
    }

    #[test]
    fn requests_carry_each_ops_fields() {
        let mut trace = Trace::sequential_reads(0, 8, 4, 3);
        trace.push(TraceOp::Write { addr: 0x80, payload: vec![7, 8] });
        let requests: Vec<MemRequest> = trace.requests().collect();
        assert_eq!(requests.len(), 4);
        let write = &requests[3];
        assert_eq!(
            (write.kind, write.addr, write.len, write.untrusted),
            (RequestKind::Write, 0x80, 2, false)
        );
        assert_eq!(write.payload, vec![7, 8]);
        let moved = trace.ops()[3].request(0x10, true);
        assert_eq!((moved.addr, moved.untrusted), (0x10, true));
    }

    #[test]
    fn collect_from_iterator() {
        let trace: Trace = (0..4).map(|i| TraceOp::Read { addr: i * 8, len: 1 }).collect();
        assert_eq!(trace.len(), 4);
        assert!(!trace.untrusted);
    }

    #[test]
    fn text_codec_roundtrips() {
        let mut trace = Trace::hammer_pair(0x100, 0x300, 2);
        trace.push(TraceOp::Write { addr: 5, payload: vec![0x0A, 0xFF, 0x00] });
        let text = trace.to_text();
        assert!(text.starts_with("# dlk-trace v1 untrusted=1\n"));
        assert!(text.contains("W 0x5 0aff00"));
        assert_eq!(Trace::from_text(&text).unwrap(), trace);
    }

    #[test]
    fn text_codec_accepts_decimal_and_comments() {
        let parsed = Trace::from_text("# recorded on machine X\n\nR 256 4\nW 0x10 abcd\n").unwrap();
        assert_eq!(
            parsed.ops(),
            &[
                TraceOp::Read { addr: 256, len: 4 },
                TraceOp::Write { addr: 0x10, payload: vec![0xAB, 0xCD] },
            ]
        );
        assert!(!parsed.untrusted);
    }

    #[test]
    fn text_codec_reports_the_offending_line() {
        let err = Trace::from_text("R 0x0 1\nX 0x0 1\n").unwrap_err();
        assert!(matches!(err, MemCtrlError::TraceParse { line: 2, .. }), "{err:?}");
        let err = Trace::from_text("W 0x0 abc\n").unwrap_err();
        assert!(matches!(err, MemCtrlError::TraceParse { line: 1, .. }), "{err:?}");
        assert!(Trace::from_text("R 0x0 1 extra\n").is_err());
    }

    #[test]
    fn empty_text_parses_to_empty_trace() {
        let trace = Trace::from_text("").unwrap();
        assert!(trace.is_empty());
        assert_eq!(Trace::from_text(&trace.to_text()).unwrap(), trace);
    }

    #[test]
    fn empty_write_payload_roundtrips() {
        let mut trace = Trace::new();
        trace.push(TraceOp::Write { addr: 0x40, payload: Vec::new() });
        let text = trace.to_text();
        assert!(text.contains("W 0x40 -"));
        assert_eq!(Trace::from_text(&text).unwrap(), trace);
    }

    #[test]
    fn multibyte_utf8_payload_is_an_error_not_a_panic() {
        let err = Trace::from_text("W 0x0 \u{20AC}a\n").unwrap_err();
        assert!(matches!(err, MemCtrlError::TraceParse { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn only_the_codec_header_sets_the_trust_flag() {
        let text = "# note: untrusted=1 was NOT used for this capture\nR 0x0 1\n";
        assert!(!Trace::from_text(text).unwrap().untrusted);
        assert!(!Trace::from_text("# dlk-trace v1 untrusted=10\nR 0x0 1\n").unwrap().untrusted);
        assert!(Trace::from_text("# dlk-trace v1 untrusted=1\nR 0x0 1\n").unwrap().untrusted);
    }

    #[test]
    fn records_round_trip_one_op_at_a_time() {
        for op in [
            TraceOp::Read { addr: 0, len: 0 },
            TraceOp::Read { addr: u64::MAX, len: usize::MAX },
            TraceOp::Write { addr: 0x2040, payload: vec![0x00, 0x0a, 0xff] },
            TraceOp::Write { addr: 0x40, payload: Vec::new() },
        ] {
            let mut record = String::new();
            op.write_record(&mut record);
            assert_eq!(TraceOp::parse_record(&record), Ok(op), "{record}");
        }
        let mut record = String::new();
        TraceOp::Read { addr: 0xab, len: 12 }.write_record(&mut record);
        assert_eq!(record, "R 0xab 12");
        assert_eq!(
            TraceOp::parse_record("# dlk-trace v1 untrusted=1"),
            Err("unknown record kind '#', expected R or W".to_owned())
        );
        assert!(TraceOp::parse_record("").is_err());
    }

    #[test]
    fn numbers_are_decimal_or_0x_hex_only() {
        for (field, value) in [
            ("0", 0),
            ("007", 7),
            ("0x0", 0),
            ("0xff", 255),
            ("0xFF", 255),
            ("18446744073709551615", u64::MAX),
            ("0xffffffffffffffff", u64::MAX),
        ] {
            assert_eq!(parse_u64(field), Some(value), "{field}");
        }
        for field in [
            "",
            "+5",
            "-5",
            "0x",
            "0X5",
            "0x+10",
            "0x-1",
            " 5",
            "5 ",
            "5_000",
            "1e3",
            "0b101",
            "ff",
            "18446744073709551616",
            "0x10000000000000000",
        ] {
            assert_eq!(parse_u64(field), None, "{field:?}");
        }
        // The read length takes the same grammar as the address.
        assert_eq!(TraceOp::parse_record("R 0x10 0x20"), Ok(TraceOp::Read { addr: 16, len: 32 }));
    }

    #[test]
    fn clones_share_their_ops_until_one_is_changed() {
        let trace = Trace::sequential_reads(0, 8, 4, 3);
        let mut copy = trace.clone();
        assert_eq!(copy.ops().as_ptr(), trace.ops().as_ptr());
        copy.push(TraceOp::Read { addr: 0x80, len: 1 });
        assert_ne!(copy.ops().as_ptr(), trace.ops().as_ptr());
        assert_eq!((trace.len(), copy.len()), (3, 4));
        assert_eq!(copy.ops()[..3], trace.ops()[..]);
    }

    #[test]
    fn interleave_round_robins_tenants() {
        let a = Trace::sequential_reads(0, 8, 1, 3);
        let b = Trace::hammer_pair(100, 200, 1);
        let mix = Trace::interleave(&[a.clone(), b.clone()]);
        assert_eq!(mix.len(), a.len() + b.len());
        assert!(mix.untrusted, "one untrusted tenant taints the mix");
        assert_eq!(mix.ops()[0], a.ops()[0]);
        assert_eq!(mix.ops()[1], b.ops()[0]);
        assert_eq!(mix.ops()[2], a.ops()[1]);
        // Tenant a's internal order is preserved.
        let a_ops: Vec<_> = mix.ops().iter().filter(|op| a.ops().contains(op)).collect();
        assert_eq!(a_ops.len(), a.len());
    }
}
