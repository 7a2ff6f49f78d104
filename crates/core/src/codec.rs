//! Little-endian payload encoding helpers.
//!
//! Message payloads and serialized mobile objects are plain byte vectors;
//! these helpers keep the encodings explicit and allocation-light. (The
//! mesher has its own mesh-specific format in `pumg-delaunay`; this module
//! is the runtime-level substrate: ids, counters, framed byte blocks.)

use crate::ids::MobilePtr;

/// Incremental payload writer.
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    pub fn new() -> Self {
        PayloadWriter::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        PayloadWriter {
            buf: Vec::with_capacity(n),
        }
    }

    /// Continue an encoding in a buffer the caller already holds:
    /// everything written is appended to `buf`, which [`finish`] hands
    /// back. Lets [`MobileObject::encode`] implementations write straight
    /// into the buffer they were given.
    ///
    /// [`finish`]: PayloadWriter::finish
    /// [`MobileObject::encode`]: crate::object::MobileObject::encode
    pub fn appending(buf: Vec<u8>) -> Self {
        PayloadWriter { buf }
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn ptr(&mut self, p: MobilePtr) -> &mut Self {
        self.buf.extend_from_slice(&p.to_bytes());
        self
    }

    /// Length-prefixed byte block.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
        self
    }

    /// Length-prefixed byte block that `fill` appends in place — the same
    /// bytes as [`PayloadWriter::bytes`] of what it writes, without
    /// building the block elsewhere first.
    pub fn bytes_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> &mut Self {
        let at = self.buf.len();
        self.u32(0);
        fill(&mut self.buf);
        let n = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&n.to_le_bytes());
        self
    }

    /// Length-prefixed vector of mobile pointers.
    pub fn ptrs(&mut self, ps: &[MobilePtr]) -> &mut Self {
        self.u32(ps.len() as u32);
        for p in ps {
            self.ptr(*p);
        }
        self
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Decoding failure: payload shorter than expected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated;

/// Incremental payload reader.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let end = self.pos + n;
        let s = self.buf.get(self.pos..end).ok_or(Truncated)?;
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, Truncated> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("take(2) yields 2 bytes"),
        ))
    }

    pub fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("take(4) yields 4 bytes"),
        ))
    }

    pub fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("take(8) yields 8 bytes"),
        ))
    }

    pub fn f64(&mut self) -> Result<f64, Truncated> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn ptr(&mut self) -> Result<MobilePtr, Truncated> {
        Ok(MobilePtr::from_bytes(
            self.take(8)?.try_into().expect("take(8) yields 8 bytes"),
        ))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], Truncated> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    pub fn ptrs(&mut self) -> Result<Vec<MobilePtr>, Truncated> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.ptr()?);
        }
        Ok(out)
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ObjectId;

    #[test]
    fn roundtrip_all_types() {
        let p = MobilePtr::new(ObjectId::new(7, 99));
        let q = MobilePtr::new(ObjectId::new(1, 2));
        let mut w = PayloadWriter::new();
        w.u8(5)
            .u32(1234)
            .u64(u64::MAX)
            .f64(-0.5)
            .ptr(p)
            .bytes(b"hello")
            .ptrs(&[p, q]);
        let buf = w.finish();

        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 5);
        assert_eq!(r.u32().unwrap(), 1234);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), -0.5);
        assert_eq!(r.ptr().unwrap(), p);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.ptrs().unwrap(), vec![p, q]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let mut w = PayloadWriter::new();
        w.u64(1);
        let buf = w.finish();
        let mut r = PayloadReader::new(&buf[..5]);
        assert_eq!(r.u64(), Err(Truncated));
        let mut r2 = PayloadReader::new(&buf);
        assert!(r2.u64().is_ok());
        assert_eq!(r2.u8(), Err(Truncated));
    }

    #[test]
    fn in_place_block_matches_copied_block() {
        let mut copied = PayloadWriter::new();
        copied.u8(9).bytes(b"payload").u32(7);
        let mut in_place = PayloadWriter::appending(vec![0xAA]);
        in_place
            .u8(9)
            .bytes_with(|b| b.extend_from_slice(b"payload"))
            .u32(7);
        let out = in_place.finish();
        assert_eq!(out[0], 0xAA, "appending keeps what the buffer held");
        assert_eq!(&out[1..], &copied.finish()[..]);
    }

    #[test]
    fn empty_bytes_block() {
        let mut w = PayloadWriter::new();
        w.bytes(&[]);
        let buf = w.finish();
        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.bytes().unwrap(), &[] as &[u8]);
    }
}
