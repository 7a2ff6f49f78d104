//! Messages: one-sided active messages addressed to mobile pointers.
//!
//! A message is the amalgamation of a data transfer and a remote procedure
//! call: destination mobile pointer, handler id, payload bytes. The runtime
//! routes it to wherever the destination object lives (forwarding along the
//! last-known-location chain, collecting the `route` for lazy directory
//! updates), queues it with the object (messages of an out-of-core object
//! are stored out-of-core with it), and eventually runs the handler.

use crate::codec::{PayloadReader, PayloadWriter, Truncated};
use crate::ids::{HandlerId, MobilePtr, NodeId};

/// Hard cap on the decoded `route` length. Routes grow by one hop per
/// forward; anything beyond this is a corrupt or hostile frame, rejected
/// before any length-driven allocation loop runs.
pub const MAX_ROUTE_LEN: usize = 1 << 12;

/// Typed [`Message::decode`] failure: distinguishes a short buffer from a
/// frame whose announced route length exceeds [`MAX_ROUTE_LEN`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgDecodeError {
    /// The buffer ended before the frame was complete.
    Truncated,
    /// The route length field exceeds [`MAX_ROUTE_LEN`].
    RouteTooLong(usize),
}

impl From<Truncated> for MsgDecodeError {
    fn from(_: Truncated) -> Self {
        MsgDecodeError::Truncated
    }
}

/// Contexts that only care that *a* decode failure occurred (the
/// checkpoint codec reports any damage as a corrupt image) may flatten
/// the typed error back down.
impl From<MsgDecodeError> for Truncated {
    fn from(_: MsgDecodeError) -> Self {
        Truncated
    }
}

impl std::fmt::Display for MsgDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgDecodeError::Truncated => write!(f, "message frame truncated"),
            MsgDecodeError::RouteTooLong(n) => {
                write!(f, "route length {n} exceeds cap {MAX_ROUTE_LEN}")
            }
        }
    }
}

impl std::error::Error for MsgDecodeError {}

/// An in-flight or queued application message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    pub to: MobilePtr,
    pub handler: HandlerId,
    pub payload: Vec<u8>,
    /// Nodes this message was forwarded through (for lazy directory
    /// updates once it reaches the object).
    pub route: Vec<NodeId>,
}

impl Message {
    pub fn new(to: MobilePtr, handler: HandlerId, payload: Vec<u8>) -> Self {
        Message {
            to,
            handler,
            payload,
            route: Vec::new(),
        }
    }

    /// Approximate bytes on the wire (for transfer-time charging); an
    /// upper bound on [`Message::encode`]'s output length.
    pub fn wire_size(&self) -> usize {
        8 + 4 + 4 + self.payload.len() + 4 * self.route.len() + 16
    }

    /// Encode for transport over the fabric.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::with_capacity(self.wire_size());
        w.ptr(self.to).u32(self.handler.0).bytes(&self.payload);
        w.u32(self.route.len() as u32);
        for &n in &self.route {
            w.u32(n as u32);
        }
        let buf = w.finish();
        debug_assert!(
            buf.len() <= self.wire_size(),
            "encode produced {} bytes, over the documented wire_size bound {}",
            buf.len(),
            self.wire_size()
        );
        buf
    }

    /// Inverse of [`Message::encode`]. A route length beyond
    /// [`MAX_ROUTE_LEN`] is rejected up front — the decoder never loops
    /// on an attacker-controlled count larger than the cap.
    pub fn decode(buf: &[u8]) -> Result<Message, MsgDecodeError> {
        let mut r = PayloadReader::new(buf);
        let to = r.ptr()?;
        let handler = HandlerId(r.u32()?);
        let payload = r.bytes()?.to_vec();
        let n_route = r.u32()? as usize;
        if n_route > MAX_ROUTE_LEN {
            return Err(MsgDecodeError::RouteTooLong(n_route));
        }
        let mut route = Vec::with_capacity(n_route);
        for _ in 0..n_route {
            route.push(r.u32()? as NodeId);
        }
        Ok(Message {
            to,
            handler,
            payload,
            route,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ObjectId;

    fn ptr(h: NodeId, s: u64) -> MobilePtr {
        MobilePtr::new(ObjectId::new(h, s))
    }

    #[test]
    fn encode_decode_plain() {
        let m = Message::new(ptr(2, 17), HandlerId(9), vec![1, 2, 3]);
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn encode_decode_with_route() {
        let mut m = Message::new(ptr(0, 1), HandlerId(1), vec![]);
        m.route = vec![3, 1, 4];
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn decode_rejects_truncation() {
        let m = Message::new(ptr(2, 17), HandlerId(9), vec![5; 64]);
        let buf = m.encode();
        for cut in [1, 8, 12, buf.len() - 1] {
            assert!(Message::decode(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_oversized_route_count() {
        let m = Message::new(ptr(2, 17), HandlerId(9), vec![1, 2, 3]);
        let mut buf = m.encode();
        // The route-count field sits right after the length-prefixed
        // payload: ptr (8) + handler (4) + payload len (4) + payload (3).
        let off = 8 + 4 + 4 + 3;
        buf[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Message::decode(&buf),
            Err(MsgDecodeError::RouteTooLong(u32::MAX as usize))
        );
    }

    #[test]
    fn wire_size_tracks_payload() {
        let small = Message::new(ptr(0, 0), HandlerId(0), vec![]);
        let big = Message::new(ptr(0, 0), HandlerId(0), vec![0; 4096]);
        assert!(big.wire_size() >= small.wire_size() + 4096);
    }
}
