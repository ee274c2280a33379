//! The framed connection protocol (DESIGN.md §16).
//!
//! Every directed link starts with a **preamble** identifying the
//! protocol and the sender, then carries a sequence of self-delimiting
//! **frames**:
//!
//! ```text
//! preamble:  [ MAGIC "MPWS" : 4B ][ VERSION : u8 ][ src rank : u32 LE ]
//! frame:     [ len : u32 LE ][ tag : u64 LE ][ bytes : u64 LE ][ payload ]
//! ```
//!
//! `len` counts everything after itself (16 header bytes + payload) and
//! is capped at [`MAX_FRAME_BYTES`], so a corrupt prefix is rejected
//! before any allocation. `tag` is the [`Tag`](mpistream::Tag) bit
//! pattern; `bytes` is the *modelled* wire size the sender declared
//! (what `MsgInfo::bytes` reports, kept distinct from the encoded
//! payload's physical size so fingerprints agree with the in-memory
//! backends). The payload is the [`Wire`](mpistream::Wire) encoding of
//! exactly one value.
//!
//! All functions here speak `io::Result`: a malformed peer produces an
//! `InvalidData` error at the reader, never a panic inside the codec.

use std::io::{self, Read, Write};

use mpistream::MAX_FRAME_BYTES;

/// Connection preamble magic.
pub const MAGIC: [u8; 4] = *b"MPWS";
/// Protocol version byte; bumped on any frame-layout change.
pub const VERSION: u8 = 1;
/// Fixed frame header past the length prefix: tag + modelled bytes.
pub const HEADER_BYTES: usize = 16;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Write the connection preamble for a link whose sender is world rank
/// `src`.
pub fn write_preamble(w: &mut impl Write, src: usize) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&[VERSION])?;
    w.write_all(&(src as u32).to_le_bytes())
}

/// Read and validate a connection preamble; returns the sender's world
/// rank.
pub fn read_preamble(r: &mut impl Read) -> io::Result<usize> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(invalid(format!("bad connection magic {magic:02x?}")));
    }
    let mut ver = [0u8; 1];
    r.read_exact(&mut ver)?;
    if ver[0] != VERSION {
        return Err(invalid(format!("protocol version {} (expected {VERSION})", ver[0])));
    }
    let mut src = [0u8; 4];
    r.read_exact(&mut src)?;
    Ok(u32::from_le_bytes(src) as usize)
}

/// Write one frame: tag, modelled byte count, encoded payload.
pub fn write_frame(w: &mut impl Write, tag: u64, bytes: u64, payload: &[u8]) -> io::Result<()> {
    let len = HEADER_BYTES + payload.len();
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES} cap")));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&tag.to_le_bytes())?;
    w.write_all(&bytes.to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame. `Ok(None)` is a clean end-of-stream (EOF exactly at a
/// frame boundary); EOF anywhere inside a frame is an error, as is a
/// length prefix below the header size or above [`MAX_FRAME_BYTES`].
///
/// The header lands in a stack array and the payload straight in an
/// exactly sized `Vec`, so each payload byte is copied out of `r` once.
/// Callers reading a socket wrap it in a `BufReader`: a whole small frame
/// (often several) then costs one `read(2)`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u64, u64, Vec<u8>)>> {
    let mut len4 = [0u8; 4];
    // Distinguish boundary-EOF from mid-frame truncation: only a zero
    // first read is a clean shutdown.
    let first = loop {
        match r.read(&mut len4) {
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    };
    if first == 0 {
        return Ok(None);
    }
    r.read_exact(&mut len4[first..])?;
    let len = u32::from_le_bytes(len4) as usize;
    if !(HEADER_BYTES..=MAX_FRAME_BYTES).contains(&len) {
        return Err(invalid(format!(
            "frame length {len} outside [{HEADER_BYTES}, {MAX_FRAME_BYTES}]"
        )));
    }
    let mut head = [0u8; HEADER_BYTES];
    r.read_exact(&mut head)?;
    let tag = u64::from_le_bytes(head[0..8].try_into().expect("exact slice"));
    let bytes = u64::from_le_bytes(head[8..16].try_into().expect("exact slice"));
    let mut payload = vec![0u8; len - HEADER_BYTES];
    r.read_exact(&mut payload)?;
    Ok(Some((tag, bytes, payload)))
}

/// Write a bare length-prefixed blob (the control-plane result frames).
pub fn write_blob(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(invalid(format!("blob of {} bytes exceeds the cap", payload.len())));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read a bare length-prefixed blob.
pub fn read_blob(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!("blob length {len} exceeds the cap")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frame_round_trips_through_a_buffer() {
        let mut buf = Vec::new();
        write_preamble(&mut buf, 7).unwrap();
        write_frame(&mut buf, 0xABCD, 64, &[1, 2, 3]).unwrap();
        write_frame(&mut buf, 9, 0, &[]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_preamble(&mut r).unwrap(), 7);
        assert_eq!(read_frame(&mut r).unwrap(), Some((0xABCD, 64, vec![1, 2, 3])));
        assert_eq!(read_frame(&mut r).unwrap(), Some((9, 0, vec![])));
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn truncated_and_oversized_frames_are_io_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 8, &[5; 10]).unwrap();
        buf.pop(); // EOF mid-frame
        assert!(read_frame(&mut &buf[..]).is_err());

        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        let tiny = 3u32.to_le_bytes(); // below the header size
        assert!(read_frame(&mut &tiny[..]).is_err());
    }

    #[test]
    fn bad_preamble_is_rejected() {
        let mut buf = Vec::new();
        write_preamble(&mut buf, 1).unwrap();
        buf[0] = b'X';
        assert!(read_preamble(&mut &buf[..]).is_err());
        let mut buf2 = Vec::new();
        write_preamble(&mut buf2, 1).unwrap();
        buf2[4] = VERSION + 1;
        assert!(read_preamble(&mut &buf2[..]).is_err());
    }

    /// A reader that hands out at most one byte per `read` call.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match (buf.first_mut(), self.0.split_first()) {
                (Some(dst), Some((b, rest))) => {
                    *dst = *b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    type Frame = (u64, u64, Vec<u8>);

    fn sample_frames() -> (Vec<u8>, Vec<Frame>) {
        let frames = vec![(1, 8, vec![7; 5]), (2, 0, vec![]), (u64::MAX, 4096, vec![0xEE; 3000])];
        let mut buf = Vec::new();
        for (tag, bytes, payload) in &frames {
            write_frame(&mut buf, *tag, *bytes, payload).unwrap();
        }
        (buf, frames)
    }

    fn read_all(mut r: impl Read, frames: &[Frame]) {
        for want in frames {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(want));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF at a frame boundary
    }

    #[test]
    fn frames_survive_one_byte_reads() {
        let (buf, frames) = sample_frames();
        read_all(OneByte(&buf), &frames);
    }

    #[test]
    fn one_buf_reader_carries_several_frames() {
        let (buf, frames) = sample_frames();
        // 7 bytes splits every prefix, header and payload across refills;
        // the default capacity holds all three frames after one read.
        for cap in [7, 8192] {
            read_all(BufReader::with_capacity(cap, &buf[..]), &frames);
        }
        assert_eq!(read_frame(&mut BufReader::new(&[][..])).unwrap(), None);
    }

    #[test]
    fn eof_inside_a_frame_is_an_error_through_any_reader() {
        let mut whole = Vec::new();
        write_frame(&mut whole, 3, 8, &[9; 10]).unwrap();
        let read_cut = |mut r: Box<dyn Read + '_>, cut: usize| {
            assert_eq!(read_frame(&mut r).unwrap(), Some((3, 8, vec![9; 10])));
            let err = read_frame(&mut r).expect_err("truncated frame");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        };
        // Cut the second of two frames mid-prefix, at and inside the
        // header, and inside the payload.
        for cut in [2, 4, 4 + 7, 4 + HEADER_BYTES, whole.len() - 1] {
            let stream = [&whole[..], &whole[..cut]].concat();
            read_cut(Box::new(&stream[..]), cut);
            read_cut(Box::new(OneByte(&stream)), cut);
            read_cut(Box::new(BufReader::with_capacity(5, &stream[..])), cut);
        }
    }
}
