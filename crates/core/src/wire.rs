//! The wire-format boundary: a fixed little-endian codec every
//! [`Transport`](crate::Transport) payload must satisfy.
//!
//! Every value the stream runtime moves between ranks — stream batches,
//! credits, collective partials, channel-setup metadata — is representable
//! as a length-prefixed `Tag` + bytes frame. In-memory backends (the
//! simulator, native threads) never *call* the codec: they keep their
//! zero-copy `Box<dyn Any>` fast path and the bound is purely a
//! compile-time guarantee that the same program could cross a process
//! boundary. The `socket` backend is where the codec actually runs: it
//! encodes on `send` and decodes on `recv`, so the payload's memory
//! representation never leaks onto the wire.
//!
//! ## Encoding rules (DESIGN.md §16)
//!
//! - All integers are **little-endian, fixed width**. `usize`/`isize`
//!   travel as 8 bytes regardless of the host (and decode checks range),
//!   so a 32-bit peer cannot silently truncate.
//! - `bool` is one byte, `0` or `1`; anything else is malformed.
//! - `f32`/`f64` are their IEEE-754 bit patterns, little-endian.
//! - `Vec<T>` and `String` are a `u64` element count followed by the
//!   elements (UTF-8 bytes for `String`, validated on decode).
//! - `Option<T>` is a presence byte (`0`/`1`) followed by the value.
//! - Tuples and arrays are their fields in order, no framing.
//! - Structs/enums composed via [`wire_struct!`](crate::wire_struct)/manual impls follow the
//!   same field-in-order rule; enums lead with a `u8` discriminant.
//!
//! Decoding is **total**: malformed input — truncated buffers, oversized
//! length prefixes, invalid presence bytes, trailing garbage — returns a
//! typed [`WireError`], never panics and never allocates proportionally
//! to an attacker-controlled length prefix (see [`MAX_WIRE_ELEMS`]).

/// Hard cap on one encoded frame, enforced by the framed backends before
/// any allocation: a length prefix above this is rejected as
/// [`WireError::FrameTooLarge`] instead of trusted.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Hard cap on a single collection's element count prefix. Decoders
/// reject larger prefixes up front so a corrupt 8-byte length cannot
/// drive a multi-gigabyte allocation before the truncation is noticed.
pub const MAX_WIRE_ELEMS: u64 = 1 << 27;

/// Why a decode failed. Every variant is a malformed-input condition a
/// remote peer could produce; none of them may panic the receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated { needed: usize, remaining: usize },
    /// A collection's length prefix exceeds [`MAX_WIRE_ELEMS`].
    LengthOverflow { len: u64 },
    /// A frame (or a frame's declared length) exceeds
    /// [`MAX_FRAME_BYTES`].
    FrameTooLarge { len: u64 },
    /// A fixed-width integer decoded outside the target type's range
    /// (e.g. a `usize` field above this host's pointer width).
    IntOutOfRange,
    /// A byte with a closed set of legal values (bool, presence byte,
    /// enum discriminant) held something else.
    BadDiscriminant { got: u8 },
    /// A `String`'s bytes were not valid UTF-8.
    InvalidUtf8,
    /// The value decoded cleanly but bytes were left over — a frame must
    /// contain exactly one value.
    TrailingBytes { remaining: usize },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(f, "truncated frame: needed {needed} more bytes, {remaining} remaining")
            }
            WireError::LengthOverflow { len } => {
                write!(f, "length prefix {len} exceeds the element cap {MAX_WIRE_ELEMS}")
            }
            WireError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the cap {MAX_FRAME_BYTES}")
            }
            WireError::IntOutOfRange => write!(f, "integer out of range for the target type"),
            WireError::BadDiscriminant { got } => {
                write!(f, "invalid discriminant byte {got:#04x}")
            }
            WireError::InvalidUtf8 => write!(f, "string payload is not valid UTF-8"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A payload type with a defined wire representation.
///
/// The bound every [`Transport`](crate::Transport) payload carries:
/// in-memory backends never invoke it, the socket backend calls
/// [`Wire::encode`] at `send` and [`Wire::decode`] at `recv`.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `input`, advancing it past the
    /// consumed bytes. Must never panic on malformed input.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Encode into a fresh frame body.
    fn to_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode a frame that must contain exactly one value.
    fn from_frame(mut bytes: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut bytes)?;
        if bytes.is_empty() {
            Ok(v)
        } else {
            Err(WireError::TrailingBytes { remaining: bytes.len() })
        }
    }
}

/// Split `n` bytes off the front of `input`, or report the truncation.
#[inline]
pub fn take_bytes<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(WireError::Truncated { needed: n - input.len(), remaining: input.len() });
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

/// Decode a collection length prefix, enforcing [`MAX_WIRE_ELEMS`].
#[inline]
fn take_len(input: &mut &[u8]) -> Result<usize, WireError> {
    let len = u64::decode(input)?;
    if len > MAX_WIRE_ELEMS {
        return Err(WireError::LengthOverflow { len });
    }
    Ok(len as usize)
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                const N: usize = std::mem::size_of::<$t>();
                let b = take_bytes(input, N)?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("exact slice")))
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64, i8, i16, i32, i64);

// `usize`/`isize` travel as fixed 8-byte integers so the format does not
// depend on the host's pointer width; decode checks the range.
impl Wire for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        usize::try_from(u64::decode(input)?).map_err(|_| WireError::IntOutOfRange)
    }
}

impl Wire for isize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as i64).encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        isize::try_from(i64::decode(input)?).map_err(|_| WireError::IntOutOfRange)
    }
}

impl Wire for f64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(input)?))
    }
}

impl Wire for f32 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(f32::from_bits(u32::decode(input)?))
    }
}

impl Wire for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            got => Err(WireError::BadDiscriminant { got }),
        }
    }
}

impl Wire for () {
    #[inline]
    fn encode(&self, _out: &mut Vec<u8>) {}
    #[inline]
    fn decode(_input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = take_len(input)?;
        // Pre-size by what the buffer can possibly hold, not by the
        // untrusted prefix: a corrupt length fails on the first missing
        // element instead of reserving gigabytes first.
        let mut v = Vec::with_capacity(len.min(input.len()));
        for _ in 0..len {
            v.push(T::decode(input)?);
        }
        Ok(v)
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = take_len(input)?;
        let bytes = take_bytes(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            got => Err(WireError::BadDiscriminant { got }),
        }
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::decode(input)?);
        }
        Ok(v.try_into().unwrap_or_else(|_| unreachable!("exactly N elements decoded")))
    }
}

macro_rules! impl_wire_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok(($($name::decode(input)?,)+))
            }
        }
    )+};
}

impl_wire_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5),
);

/// Derive-free [`Wire`] impl for a plain struct: fields encode in the
/// order listed, decode in the same order.
///
/// ```
/// # use mpistream::wire::{Wire, WireError};
/// struct Update { rank: usize, work: u64 }
/// mpistream::wire_struct!(Update { rank, work });
/// let bytes = Update { rank: 3, work: 9 }.to_frame();
/// let back = Update::from_frame(&bytes).unwrap();
/// assert_eq!((back.rank, back.work), (3, 9));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $( $crate::wire::Wire::encode(&self.$field, out); )+
            }
            fn decode(
                input: &mut &[u8],
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(Self { $( $field: $crate::wire::Wire::decode(input)? ),+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_frame();
        assert_eq!(T::from_frame(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip_little_endian() {
        roundtrip(0x0123_4567_89AB_CDEFu64);
        assert_eq!(0x0102u16.to_frame(), vec![0x02, 0x01]);
        roundtrip(-5i64);
        roundtrip(usize::MAX);
        roundtrip(isize::MIN);
        roundtrip(3.5f64);
        roundtrip(true);
        roundtrip(());
        roundtrip(String::from("héllo"));
        roundtrip(Some(vec![1u32, 2, 3]));
        roundtrip(Option::<u8>::None);
        roundtrip([1.0f64, -2.0, 3.25]);
        roundtrip((1u32, -2i64, vec![(3usize, 4u8)]));
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let mut bytes = 7u64.to_frame();
        bytes.pop();
        assert!(matches!(u64::from_frame(&bytes), Err(WireError::Truncated { .. })));
        // A Vec whose length prefix claims more than the buffer holds.
        let mut v = vec![1u8, 2, 3].to_frame();
        v.truncate(9); // 8-byte length + 1 element
        assert!(matches!(Vec::<u8>::from_frame(&v), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let huge = (MAX_WIRE_ELEMS + 1).to_frame();
        assert!(matches!(Vec::<u8>::from_frame(&huge), Err(WireError::LengthOverflow { .. })));
        // A Vec<()> with a huge-but-capped length must still fail (the
        // elements are zero-sized, so only the cap stops the loop).
        assert!(Vec::<()>::from_frame(&u64::MAX.to_frame()).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 7u32.to_frame();
        bytes.push(0);
        assert_eq!(u32::from_frame(&bytes), Err(WireError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn bad_discriminants_are_rejected() {
        assert_eq!(bool::from_frame(&[2]), Err(WireError::BadDiscriminant { got: 2 }));
        assert_eq!(Option::<u8>::from_frame(&[9]), Err(WireError::BadDiscriminant { got: 9 }));
        assert_eq!(
            String::from_frame(&[1, 0, 0, 0, 0, 0, 0, 0, 0xFF]),
            Err(WireError::InvalidUtf8)
        );
    }
}
