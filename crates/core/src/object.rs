//! Mobile objects: the unit of data, locality, and swapping.
//!
//! A *mobile object* is a location-independent container for application
//! data (the paper recommends one per semi-isolated dataset fragment, e.g.
//! a subdomain). The runtime may move it between nodes, unload it to disk,
//! and reload it; the application supplies serialization
//! ([`MobileObject::encode`] plus a registered decoder) and receives
//! messages through registered handler functions.

use crate::codec::Truncated;
use crate::ctx::Ctx;
use crate::ids::{HandlerId, TypeTag};
use std::any::Any;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Typed failure of an object decode (spill reload, migration install,
/// checkpoint restore). Mirrors [`crate::msg::MsgDecodeError`]: decoders
/// built on [`crate::codec::PayloadReader`] propagate `Truncated` with
/// `?`, and the registry adds the framing-level cases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectDecodeError {
    /// The buffer ended inside the encoding.
    Truncated,
    /// The framing named a type tag with no registered decoder.
    UnknownType(TypeTag),
    /// The bytes parsed but violate a structural invariant of the type.
    Invalid(&'static str),
}

impl From<Truncated> for ObjectDecodeError {
    fn from(_: Truncated) -> Self {
        ObjectDecodeError::Truncated
    }
}

impl std::fmt::Display for ObjectDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjectDecodeError::Truncated => write!(f, "object encoding truncated"),
            ObjectDecodeError::UnknownType(t) => {
                write!(f, "no decoder registered for {t:?}")
            }
            ObjectDecodeError::Invalid(what) => write!(f, "invalid object encoding: {what}"),
        }
    }
}

impl std::error::Error for ObjectDecodeError {}

/// Application data managed by the runtime.
pub trait MobileObject: Send {
    /// Type tag selecting the decoder on load/installation.
    fn type_tag(&self) -> TypeTag;

    /// Serialize the object (for disk spill or migration).
    fn encode(&self, buf: &mut Vec<u8>);

    /// Approximate in-memory footprint in bytes; drives the out-of-core
    /// layer's memory accounting. Must be cheap.
    fn footprint(&self) -> usize;

    /// Downcasting support for handlers.
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Message handler: invoked with exclusive access to the destination
/// object, a context for posting effects (sends, creates, locks, …), and
/// the message payload.
pub type HandlerFn = fn(&mut dyn MobileObject, &mut Ctx, &[u8]);

/// Decoder: reconstructs an object of a given type from its encoding.
/// Fallible — corrupted or truncated bytes surface as a typed
/// [`ObjectDecodeError`] instead of a panic inside the decoder.
pub type DecodeFn = fn(&[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError>;

/// Registry of object types and message handlers. Shared by every node of
/// a runtime (registration happens before the parallel phase).
#[derive(Default)]
pub struct Registry {
    decoders: HashMap<TypeTag, DecodeFn>,
    handlers: HashMap<HandlerId, HandlerFn>,
    handler_names: HashMap<HandlerId, &'static str>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register the decoder for an object type.
    pub fn register_type(&mut self, tag: TypeTag, decode: DecodeFn) {
        let prev = self.decoders.insert(tag, decode);
        assert!(prev.is_none(), "type {tag:?} registered twice");
    }

    /// Register a message handler under `id` (with a diagnostic name).
    pub fn register_handler(&mut self, id: HandlerId, name: &'static str, f: HandlerFn) {
        let prev = self.handlers.insert(id, f);
        assert!(prev.is_none(), "handler {id:?} registered twice");
        self.handler_names.insert(id, name);
    }

    pub fn decoder(&self, tag: TypeTag) -> Result<DecodeFn, ObjectDecodeError> {
        self.decoders
            .get(&tag)
            .copied()
            .ok_or(ObjectDecodeError::UnknownType(tag))
    }

    pub fn handler(&self, id: HandlerId) -> HandlerFn {
        *self
            .handlers
            .get(&id)
            .unwrap_or_else(|| panic!("no handler registered for {id:?}"))
    }

    pub fn handler_name(&self, id: HandlerId) -> &'static str {
        self.handler_names.get(&id).copied().unwrap_or("?")
    }

    /// Serialize an object with its type tag prepended (the on-disk and
    /// on-wire framing).
    pub fn pack(obj: &dyn MobileObject) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + obj.footprint() / 2);
        Registry::pack_into(obj, &mut buf);
        buf
    }

    /// [`Registry::pack`] into a caller-owned buffer: the buffer is cleared
    /// and refilled, reusing its capacity. Hot spill paths pass pooled
    /// buffers here instead of allocating per-op.
    pub fn pack_into(obj: &dyn MobileObject, buf: &mut Vec<u8>) {
        buf.clear();
        buf.reserve(16 + obj.footprint() / 2);
        buf.extend_from_slice(&obj.type_tag().0.to_le_bytes());
        obj.encode(buf);
    }

    /// Inverse of [`Registry::pack`].
    pub fn unpack(&self, buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let hdr = buf.get(..4).ok_or(ObjectDecodeError::Truncated)?;
        let tag = TypeTag(u32::from_le_bytes(
            hdr.try_into().expect("4-byte slice checked"),
        ));
        (self.decoder(tag)?)(&buf[4..])
    }
}

/// Run `f` and measure the wall time it took. Packing and unpacking are
/// real work wherever they happen: the node core measures its own through
/// this and hands the figures to its driver, which charges them as compute
/// in its own clock — the core never reads a clock to decide anything.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

#[cfg(test)]
pub(crate) mod test_objects {
    use super::*;
    use crate::codec::{PayloadReader, PayloadWriter};

    /// A trivial counter object used across the runtime's unit tests.
    #[derive(Debug, PartialEq)]
    pub struct Counter {
        pub value: u64,
        pub pad: Vec<u8>, // adjustable footprint
    }

    pub const COUNTER_TAG: TypeTag = TypeTag(0xC0);

    impl Counter {
        pub fn new(value: u64, pad: usize) -> Self {
            Counter {
                value,
                pad: vec![0xAB; pad],
            }
        }

        pub fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
            let mut r = PayloadReader::new(buf);
            let value = r.u64()?;
            let pad = r.bytes()?.to_vec();
            Ok(Box::new(Counter { value, pad }))
        }
    }

    impl MobileObject for Counter {
        fn type_tag(&self) -> TypeTag {
            COUNTER_TAG
        }

        fn encode(&self, buf: &mut Vec<u8>) {
            let mut w = PayloadWriter::new();
            w.u64(self.value).bytes(&self.pad);
            buf.extend_from_slice(&w.finish());
        }

        fn footprint(&self) -> usize {
            16 + self.pad.len()
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_objects::*;
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let mut reg = Registry::new();
        reg.register_type(COUNTER_TAG, Counter::decode);
        let c = Counter::new(41, 100);
        let buf = Registry::pack(&c);
        let back = reg.unpack(&buf).expect("registered type decodes");
        let back = back.as_any().downcast_ref::<Counter>().unwrap();
        assert_eq!(back, &c);
        assert_eq!(back.footprint(), 116);
    }

    #[test]
    fn pack_into_reuses_capacity_and_matches_pack() {
        let c = Counter::new(7, 256);
        let allocating = Registry::pack(&c);
        let mut buf = Vec::with_capacity(1024);
        buf.extend_from_slice(b"stale contents from a previous pack");
        let cap = buf.capacity();
        Registry::pack_into(&c, &mut buf);
        assert_eq!(buf, allocating);
        assert_eq!(buf.capacity(), cap, "pack_into must reuse capacity");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_type_registration_panics() {
        let mut reg = Registry::new();
        reg.register_type(COUNTER_TAG, Counter::decode);
        reg.register_type(COUNTER_TAG, Counter::decode);
    }

    #[test]
    fn unknown_type_is_a_typed_error() {
        let reg = Registry::new();
        let c = Counter::new(1, 0);
        let buf = Registry::pack(&c);
        assert_eq!(
            reg.unpack(&buf).err(),
            Some(ObjectDecodeError::UnknownType(COUNTER_TAG))
        );
        assert_eq!(
            reg.unpack(&buf[..2]).err(),
            Some(ObjectDecodeError::Truncated)
        );
        let mut reg = Registry::new();
        reg.register_type(COUNTER_TAG, Counter::decode);
        assert_eq!(
            reg.unpack(&buf[..5]).err(),
            Some(ObjectDecodeError::Truncated),
            "truncated body propagates the decoder's error"
        );
    }

    #[test]
    fn handler_registration_and_lookup() {
        fn h(_: &mut dyn MobileObject, _: &mut Ctx, _: &[u8]) {}
        let mut reg = Registry::new();
        reg.register_handler(HandlerId(3), "test_handler", h);
        assert_eq!(
            reg.handler(HandlerId(3)) as *const (),
            h as HandlerFn as *const ()
        );
        assert_eq!(reg.handler_name(HandlerId(3)), "test_handler");
        assert_eq!(reg.handler_name(HandlerId(9)), "?");
    }
}
