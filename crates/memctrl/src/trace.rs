//! Request traces: generation and the trace-file codec.
//!
//! Traces model the workloads that drive the evaluation — a victim's
//! DNN weight reads, background traffic, and attacker hammer loops. A
//! hammer loop alternates between two rows of the same bank so every
//! access conflicts in the row buffer and forces an ACT, the classic
//! double-sided-free hammer pattern.

use std::sync::Arc;

use crate::error::MemCtrlError;
use crate::request::{MemRequest, RequestKind};

/// One operation in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// spec file's `op` record. The record is built in one small
    /// buffer and appended at once (a long payload in a few pieces).
    pub fn write_record(&self, out: &mut String) {
        let mut buf = [0u8; 64];
        let (kind, addr) = match *self {
            TraceOp::Read { addr, .. } => (b'R', addr),
            TraceOp::Write { addr, .. } => (b'W', addr),
        };
        buf[..4].copy_from_slice(&[kind, b' ', b'0', b'x']);
        let mut end = 4 + put_hex(&mut buf[4..], addr);
        buf[end] = b' ';
        end += 1;
        match self {
            TraceOp::Read { len, .. } => end += put_decimal(&mut buf[end..], *len as u64),
            TraceOp::Write { payload, .. } => {
                if payload.is_empty() {
                    buf[end] = b'-';
                    end += 1;
                }
                for &byte in payload {
                    if end + 2 > buf.len() {
                        push_ascii(out, &buf[..end]);
                        end = 0;
                    }
                    buf[end] = HEX_DIGITS[usize::from(byte >> 4)];
                    buf[end + 1] = HEX_DIGITS[usize::from(byte & 0xf)];
                    end += 2;
                }
            }
        }
        push_ascii(out, &buf[..end]);
    }

    /// Parses one record in the form [`write_record`](Self::write_record)
    /// writes. Either number may be decimal or `0x` hex (the one
    /// grammar of [`parse_u64`]), the payload's hex digits uppercase,
    /// and fields may be split by any whitespace, as
    /// [`str::split_whitespace`] splits them. One pass over the bytes:
    /// each field is decoded as it is read.
    ///
    /// # Errors
    ///
    /// Returns what is wrong with the record.
    pub fn parse_record(record: &str) -> Result<Self, String> {
        let mut fields = Cursor { text: record, at: 0 };
        if !fields.next_field() {
            return Err("empty record".to_owned());
        }
        let read = match fields.field() {
            "R" => true,
            "W" => false,
            kind => return Err(format!("unknown record kind '{kind}', expected R or W")),
        };
        if !fields.next_field() {
            return Err("missing address field".to_owned());
        }
        let addr = fields.number().ok_or("address is not a number")?;
        let op = if read {
            if !fields.next_field() {
                return Err("missing read length".to_owned());
            }
            let len = fields
                .number()
                .and_then(|len| usize::try_from(len).ok())
                .ok_or("read length is not a number")?;
            TraceOp::Read { addr, len }
        } else {
            if !fields.next_field() {
                return Err("missing write payload".to_owned());
            }
            let payload = fields.payload().ok_or("payload is not even-length hex")?;
            TraceOp::Write { addr, payload }
        };
        if fields.next_field() {
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// format (this codec *is* the on-disk representation recorded
    /// traces replay from):
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

/// Writes `value` in lowercase hex, without leading zeros, at the start
/// of `buf`, taking each digit by shift. Returns the digit count.
fn put_hex(buf: &mut [u8], mut value: u64) -> usize {
    let digits = (64 - value.leading_zeros() as usize).div_ceil(4).max(1);
    for digit in buf[..digits].iter_mut().rev() {
        *digit = HEX_DIGITS[value as usize & 0xf];
        value >>= 4;
    }
    digits
}

/// Writes `value` in decimal, without leading zeros, at the start of
/// `buf`. Returns the digit count.
fn put_decimal(buf: &mut [u8], mut value: u64) -> usize {
    let digits = value.checked_ilog10().map_or(1, |log| log as usize + 1);
    for digit in buf[..digits].iter_mut().rev() {
        *digit = b'0' + (value % 10) as u8;
        value /= 10;
    }
    digits
}

/// Appends `bytes`, which the record writer fills with ASCII only.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    // ASCII is UTF-8, so no byte is ever left out.
    if let Ok(ascii) = std::str::from_utf8(bytes) {
        out.push_str(ascii);
    }
}

/// A position in a record, read left to right. Fields end at
/// whitespace as [`str::split_whitespace`] sees it: an ASCII byte is
/// judged by itself, any other character by decoding it.
struct Cursor<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte.
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Skips whitespace. Whether a field follows.
    fn next_field(&mut self) -> bool {
        while let Some(&byte) = self.text.as_bytes().get(self.at) {
            if !self.ends_at(self.at) {
                return true;
            }
            self.at += if byte.is_ascii() { 1 } else { self.char_len() };
        }
        false
    }

    /// Whether a field ends at byte `at`: the record's end or
    /// whitespace (in ASCII, vertical tab too, as
    /// [`char::is_whitespace`] has it).
    fn ends_at(&self, at: usize) -> bool {
        match self.text.as_bytes().get(at) {
            None => true,
            Some(&byte) if byte.is_ascii() => matches!(byte, b'\t'..=b'\r' | b' '),
            Some(_) => self.text[at..].starts_with(char::is_whitespace),
        }
    }

    /// The UTF-8 length of the character at the cursor.
    fn char_len(&self) -> usize {
        self.text[self.at..].chars().next().map_or(1, char::len_utf8)
    }

    /// The rest of the field at the cursor, whatever it holds.
    fn field(&mut self) -> &'a str {
        let start = self.at;
        while !self.ends_at(self.at) {
            self.at += self.char_len();
        }
        &self.text[start..self.at]
    }

    /// The field at the cursor as a number in [`parse_u64`]'s grammar.
    fn number(&mut self) -> Option<u64> {
        let (value, len) = leading_u64(&self.text.as_bytes()[self.at..])?;
        self.ends_at(self.at + len).then(|| {
            self.at += len;
            value
        })
    }

    /// The field at the cursor as a write payload: `-` for none, or two
    /// hex digits (either case) per byte.
    fn payload(&mut self) -> Option<Vec<u8>> {
        let bytes = &self.text.as_bytes()[self.at..];
        if bytes.first() == Some(&b'-') && self.ends_at(self.at + 1) {
            self.at += 1;
            return Some(Vec::new());
        }
        // The payload is a record's last field, so the rest of the
        // record bounds its length.
        let mut payload = Vec::with_capacity(bytes.len() / 2);
        let mut len = 0;
        while let [hi, lo, ..] = bytes[len..] {
            let (hi, lo) = (nibble(hi), nibble(lo));
            if (hi | lo) > 0xf {
                break;
            }
            payload.push(hi << 4 | lo);
            len += 2;
        }
        // An odd digit or a non-hex byte leaves the field unfinished.
        (len > 0 && self.ends_at(self.at + len)).then(|| {
            self.at += len;
            payload
        })
    }
}

/// Parses a number in the one grammar of trace records and spec files:
/// decimal digits, or `0x` followed by hex digits (either case), and
/// nothing else — no sign, no `0X`, no whitespace. `None` when `field`
/// is not in that form or overflows a `u64`.
pub fn parse_u64(field: &str) -> Option<u64> {
    leading_u64(field.as_bytes()).and_then(|(value, len)| (len == field.len()).then_some(value))
}

/// The number in [`parse_u64`]'s grammar that `bytes` start with, and
/// its length: one pass, each digit checked and added at once. `None`
/// when there is no digit or the number overflows a `u64`.
fn leading_u64(bytes: &[u8]) -> Option<(u64, usize)> {
    let (digits, prefix, radix) = match bytes {
        [b'0', b'x', hex @ ..] => (hex, 2, 16),
        _ => (bytes, 0, 10),
    };
    let mut value = 0u64;
    let mut len = 0;
    for &byte in digits {
        let digit = if radix == 16 { nibble(byte) } else { byte.wrapping_sub(b'0') };
        if u64::from(digit) >= radix {
            break;
        }
        value = value.checked_mul(radix)?.checked_add(u64::from(digit))?;
        len += 1;
    }
    (len > 0).then_some((value, prefix + len))
}

/// Each byte's value as a hex digit (either case), or 16 when it is
/// not one: a table, since random digits defeat branch prediction.
const NIBBLES: [u8; 256] = {
    let mut table = [16u8; 256];
    let mut digit = 0;
    while digit < 16 {
        let lower = HEX_DIGITS[digit];
        table[lower as usize] = digit as u8;
        table[lower.to_ascii_uppercase() as usize] = digit as u8;
        digit += 1;
    }
    table
};

/// The value of hex digit `byte` (either case); 16 when `byte` is not
/// one.
fn nibble(byte: u8) -> u8 {
    NIBBLES[usize::from(byte)]
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
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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

    /// Serves every request of `trace` on `ctrl`, in order.
    fn serve_all(ctrl: &mut MemoryController, trace: &Trace) -> Vec<CompletedRequest> {
        trace.requests().map(|request| ctrl.service(request).unwrap()).collect()
    }

    #[test]
    fn hammer_pair_forces_activations() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let row_bytes = ctrl.geometry().row_bytes as u64;
        // Two rows in the same bank/subarray (bank-sequential mapping).
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

    /// The record reader this module had before the byte-level cursor:
    /// `split_whitespace` fields, a digit check before
    /// `from_str_radix`, and `to_digit` payload hex.
    fn split_whitespace_reference(record: &str) -> Result<TraceOp, String> {
        let number = |field: &str| {
            let (digits, radix) = match field.strip_prefix("0x") {
                Some(hex) => (hex, 16),
                None => (field, 10),
            };
            if !digits.bytes().all(|byte| char::from(byte).is_digit(radix)) {
                return None;
            }
            u64::from_str_radix(digits, radix).ok()
        };
        let hex = |hex: &str| {
            if hex == "-" {
                return Some(Vec::new());
            }
            let digit = |byte: u8| char::from(byte).to_digit(16).map(|d| d as u8);
            let mut payload = Vec::new();
            for pair in hex.as_bytes().chunks(2) {
                match *pair {
                    [hi, lo] => payload.push(digit(hi)? << 4 | digit(lo)?),
                    _ => return None,
                }
            }
            Some(payload)
        };
        let mut fields = record.split_whitespace();
        let kind = fields.next().ok_or("empty record")?;
        if kind != "R" && kind != "W" {
            return Err(format!("unknown record kind '{kind}', expected R or W"));
        }
        let addr = fields.next().ok_or("missing address field")?;
        let addr = number(addr).ok_or("address is not a number")?;
        let op = if kind == "R" {
            let len = fields.next().ok_or("missing read length")?;
            let len = number(len)
                .and_then(|len| usize::try_from(len).ok())
                .ok_or("read length is not a number")?;
            TraceOp::Read { addr, len }
        } else {
            let payload = fields.next().ok_or("missing write payload")?;
            TraceOp::Write { addr, payload: hex(payload).ok_or("payload is not even-length hex")? }
        };
        if fields.next().is_some() {
            return Err("trailing fields".to_owned());
        }
        Ok(op)
    }

    /// One of `pieces`, at random.
    fn pick<'a>(rng: &mut StdRng, pieces: &[&'a str]) -> &'a str {
        pieces[rng.random_range(0..pieces.len())]
    }

    /// A number field: decimal or `0x` hex of any `u64`, either hex
    /// case, leading zeros, or one of the near misses.
    fn number_field(rng: &mut StdRng) -> String {
        let value = match rng.random_range(0u32..3) {
            0 => rng.random_range(0u64..16),
            1 => rng.random_range(0u64..1 << 20),
            _ => rng.random_range(0u64..u64::MAX),
        };
        let zeros = "0".repeat(rng.random_range(0usize..3));
        match rng.random_range(0u32..8) {
            0 | 1 => format!("{zeros}{value}"),
            2 | 3 => format!("0x{zeros}{value:x}"),
            4 => format!("0x{zeros}{value:X}"),
            5 => format!("{value}{}", pick(rng, &["0", "5", "9", "x", "g", "\u{e9}"])),
            6 => format!("0x{value:x}{}", pick(rng, &["0", "f", "F", "g", "\u{20ac}"])),
            _ => pick(rng, &["", "+5", "-5", "0x", "0X10", "0x+1", "1e3", "5_0"]).to_owned(),
        }
    }

    /// A field separator: mostly whitespace of every kind, sometimes a
    /// character that glues two fields into one.
    fn separator(rng: &mut StdRng) -> &'static str {
        if rng.random_bool(0.95) {
            pick(
                rng,
                &[" ", " ", "  ", "\t", "\u{b}", "\u{c}", "\r", "\u{3000}", "\u{a0}", "\u{85}"],
            )
        } else {
            pick(rng, &["", "\u{200b}", "\u{e9}", "-", "+"])
        }
    }

    #[test]
    fn parse_record_agrees_with_the_split_whitespace_reference() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut parsed = 0;
        for _ in 0..20_000 {
            let mut record = String::new();
            if rng.random_bool(0.2) {
                record.push_str(separator(&mut rng));
            }
            record.push_str(pick(
                &mut rng,
                &["R", "R", "R", "W", "W", "W", "r", "RW", "", "\u{154}"],
            ));
            record.push_str(separator(&mut rng));
            record.push_str(&number_field(&mut rng));
            record.push_str(separator(&mut rng));
            if rng.random_bool(0.5) {
                record.push_str(&number_field(&mut rng));
            } else {
                let bytes = rng.random_range(0usize..10);
                for _ in 0..bytes {
                    let byte = rng.random_range(0u32..256);
                    let pair = if rng.random_bool(0.5) {
                        format!("{byte:02x}")
                    } else {
                        format!("{byte:02X}")
                    };
                    record.push_str(&pair);
                }
                record
                    .push_str(pick(&mut rng, &["", "", "", "", "-", "--", "a", "g0", "\u{20ac}"]));
            }
            if rng.random_bool(0.1) {
                record.push_str(separator(&mut rng));
                record.push_str(pick(&mut rng, &["x", "0", "-", "\u{3000}", ""]));
            }
            if rng.random_bool(0.2) {
                record.push_str(separator(&mut rng));
            }
            let got = TraceOp::parse_record(&record);
            parsed += usize::from(got.is_ok());
            assert_eq!(got, split_whitespace_reference(&record), "{record:?}");
        }
        // The generator reaches both outcomes often.
        assert!((2_000..18_000).contains(&parsed), "{parsed} of 20000 parsed");
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
