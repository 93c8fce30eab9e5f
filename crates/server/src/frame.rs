//! Length-prefixed, checksummed frames: the transport unit of the
//! serving protocol.
//!
//! ```text
//! header   12 bytes   body length u32 LE · FNV-1a-64 body checksum u64 LE
//! body     1..=max    kind byte + message fields (see `protocol`)
//! ```
//!
//! The header is validated **before** any allocation: a declared length
//! of zero (no valid body lacks its kind byte) or above the configured
//! maximum is rejected while only the 12 header bytes are in memory, so
//! a flipped length bit or a hostile peer cannot make an endpoint
//! reserve gigabytes. The checksum — the same FNV-1a-64 the snapshot
//! format uses — covers every body byte and is verified before the body
//! is parsed, so a single bit flip anywhere in a frame is a typed
//! [`ProtocolError`], never a silently-wrong message
//! (`tests/protocol_adversarial.rs` proves this byte by byte).

use crate::ProtocolError;
use co_wire::codec::checksum;
use std::io::{Read, Write};

/// Fixed size of the frame header in bytes.
pub const FRAME_HEADER_LEN: usize = 12;

/// The default cap on a frame body, in bytes (16 MiB). Override with
/// [`ServerConfig::max_frame_len`](crate::ServerConfig) /
/// `CO_SERVER_MAX_FRAME`.
pub const DEFAULT_MAX_FRAME_LEN: u64 = 16 * 1024 * 1024;

/// Frames `body` into a standalone byte vector (header + body).
///
/// # Panics
///
/// If `body` is empty or longer than `u32::MAX` — both impossible for
/// the bodies this crate's encoders produce.
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    assert!(!body.is_empty(), "a frame body carries at least its kind");
    let len = u32::try_from(body.len()).expect("frame body exceeds u32::MAX");
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&checksum(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Writes one frame to `w` and flushes.
pub fn write_frame<W: Write>(mut w: W, body: &[u8]) -> Result<(), ProtocolError> {
    w.write_all(&encode_frame(body))?;
    w.flush()?;
    Ok(())
}

/// Validates a frame header, returning the body length to read.
fn parse_header(header: &[u8; FRAME_HEADER_LEN], max: u64) -> Result<(usize, u64), ProtocolError> {
    let declared = u64::from(u32::from_le_bytes(
        header[0..4].try_into().expect("4 bytes"),
    ));
    let expected = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
    if declared == 0 {
        return Err(ProtocolError::ZeroLengthFrame);
    }
    if declared > max {
        return Err(ProtocolError::Oversized { declared, max });
    }
    Ok((declared as usize, expected))
}

/// Verifies `body` against the header's declared checksum.
fn verify(body: &[u8], expected: u64) -> Result<(), ProtocolError> {
    let actual = checksum(body);
    if actual != expected {
        return Err(ProtocolError::ChecksumMismatch { expected, actual });
    }
    Ok(())
}

/// Reads one frame from `r`, returning its verified body — or `None` for
/// a clean end-of-stream (the peer closed between frames, the normal end
/// of a session). EOF *inside* a frame is [`ProtocolError::Truncated`].
pub fn read_frame<R: Read>(mut r: R, max: u64) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // Hand-rolled first read: zero bytes at a frame boundary is a clean
    // close, not a truncation.
    let mut have = 0usize;
    while have < FRAME_HEADER_LEN {
        // Retry EINTR like read_exact does for the body — a stray signal
        // must not tear down the session.
        let n = match r.read(&mut header[have..]) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if n == 0 {
            if have == 0 {
                return Ok(None);
            }
            return Err(ProtocolError::Truncated {
                context: "frame header",
            });
        }
        have += n;
    }
    let (len, expected) = parse_header(&header, max)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtocolError::Truncated {
                context: "frame body",
            }
        } else {
            ProtocolError::Io(e)
        }
    })?;
    verify(&body, expected)?;
    Ok(Some(body))
}

/// Incremental frame decoder for readiness-driven reads.
///
/// The reactor core reads whatever the kernel has — frames arrive split
/// across wakeups, several per chunk, or one byte at a time — and feeds
/// the raw bytes in with [`FrameDecoder::push`]; [`FrameDecoder::next_frame`]
/// yields each complete, checksum-verified body in arrival order. The
/// validation order is identical to the blocking [`read_frame`] path:
/// the header is judged the moment its 12 bytes are buffered, so a
/// zero-length or oversized declaration is rejected **before** any body
/// byte is accumulated, and the checksum is verified before a body is
/// handed out. After an error the decoder is poisoned — the stream
/// offset can no longer be trusted, and every further `next_frame` returns the
/// same kind of failure, matching the close-on-protocol-error session
/// discipline.
#[derive(Debug)]
pub struct FrameDecoder {
    max: u64,
    buf: Vec<u8>,
    /// Bytes before `start` are already consumed; compacted lazily so a
    /// long session does not re-shift the buffer on every frame.
    start: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// A decoder enforcing the given per-frame body cap.
    pub fn new(max: u64) -> FrameDecoder {
        FrameDecoder {
            max,
            buf: Vec::new(),
            start: 0,
            poisoned: false,
        }
    }

    /// Appends freshly read bytes to the reassembly buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 64 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Is the decoder mid-frame? An EOF here is a truncation, not a
    /// clean close.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// The next complete verified body, or `None` when more bytes are
    /// needed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        if self.poisoned {
            return Err(ProtocolError::Malformed {
                detail: "frame stream already failed; offset untrusted".to_owned(),
            });
        }
        let pending = &self.buf[self.start..];
        if pending.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let header: &[u8; FRAME_HEADER_LEN] =
            pending[..FRAME_HEADER_LEN].try_into().expect("12 bytes");
        let (len, expected) = match parse_header(header, self.max) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        if pending.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let body = &pending[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        if let Err(e) = verify(body, expected) {
            self.poisoned = true;
            return Err(e);
        }
        let body = body.to_vec();
        self.start += FRAME_HEADER_LEN + len;
        Ok(Some(body))
    }
}

/// Decodes `bytes` as exactly one frame, returning the verified body.
/// Pure — the adversarial harness drives every truncation and bit flip
/// through this. Shorter input than the frame promises is
/// [`ProtocolError::Truncated`]; longer is [`ProtocolError::Malformed`]
/// (a stream would mis-frame everything after).
pub fn decode_frame(bytes: &[u8], max: u64) -> Result<&[u8], ProtocolError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(ProtocolError::Truncated {
            context: "frame header",
        });
    }
    let header: &[u8; FRAME_HEADER_LEN] = bytes[..FRAME_HEADER_LEN].try_into().expect("12 bytes");
    let (len, expected) = parse_header(header, max)?;
    let rest = &bytes[FRAME_HEADER_LEN..];
    if rest.len() < len {
        return Err(ProtocolError::Truncated {
            context: "frame body",
        });
    }
    if rest.len() > len {
        return Err(ProtocolError::Malformed {
            detail: format!("{} bytes after the declared frame end", rest.len() - len),
        });
    }
    let body = &rest[..len];
    verify(body, expected)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_streams_and_buffers() {
        let body = b"\x01hello frame".to_vec();
        let framed = encode_frame(&body);
        assert_eq!(framed.len(), FRAME_HEADER_LEN + body.len());
        assert_eq!(
            decode_frame(&framed, DEFAULT_MAX_FRAME_LEN).unwrap(),
            &body[..]
        );
        let mut stream = Vec::new();
        write_frame(&mut stream, &body).unwrap();
        write_frame(&mut stream, b"\x02").unwrap();
        let mut r = stream.as_slice();
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap(),
            body
        );
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap(),
            b"\x02"
        );
        // Clean end-of-stream at a frame boundary.
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap().is_none());
    }

    #[test]
    fn zero_length_and_oversize_are_rejected_before_allocation() {
        let mut zero = encode_frame(b"x");
        zero[0..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_frame(&zero, DEFAULT_MAX_FRAME_LEN).unwrap_err(),
            ProtocolError::ZeroLengthFrame
        ));
        // A header declaring 4 GiB - 1 with no body behind it: rejected on
        // the declaration alone — before allocation — not on truncation.
        let mut huge = u32::MAX.to_le_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 8]);
        let err = decode_frame(&huge, DEFAULT_MAX_FRAME_LEN).unwrap_err();
        assert!(
            matches!(
                err,
                ProtocolError::Oversized { declared, max }
                    if declared == u64::from(u32::MAX) && max == DEFAULT_MAX_FRAME_LEN
            ),
            "got: {err}"
        );
        // Same through the stream reader.
        let err = read_frame(huge.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap_err();
        assert!(matches!(err, ProtocolError::Oversized { .. }), "got: {err}");
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut framed = encode_frame(b"\x01abc");
        framed.push(0);
        assert!(matches!(
            decode_frame(&framed, DEFAULT_MAX_FRAME_LEN).unwrap_err(),
            ProtocolError::Malformed { .. }
        ));
    }

    #[test]
    fn mid_frame_eof_is_truncation_not_clean_close() {
        let framed = encode_frame(b"\x01abcdef");
        for cut in 1..framed.len() {
            let err = read_frame(&framed[..cut], DEFAULT_MAX_FRAME_LEN).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn decoder_reassembles_frames_split_at_every_boundary() {
        let bodies: Vec<Vec<u8>> = vec![
            b"\x01".to_vec(),
            b"\x05a longer body with content".to_vec(),
            b"\x02x".to_vec(),
        ];
        let mut stream = Vec::new();
        for b in &bodies {
            stream.extend_from_slice(&encode_frame(b));
        }
        // Byte-at-a-time, and every two-chunk split of the whole stream:
        // the decoder must yield exactly the original bodies, in order.
        for chunk in [1usize, 2, 3, 5, 7, stream.len()] {
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
            let mut out = Vec::new();
            for piece in stream.chunks(chunk) {
                dec.push(piece);
                while let Some(body) = dec.next_frame().unwrap() {
                    out.push(body);
                }
            }
            assert_eq!(out, bodies, "chunk size {chunk}");
            assert!(!dec.mid_frame(), "chunk size {chunk}: no leftover bytes");
        }
    }

    #[test]
    fn decoder_rejects_bad_headers_before_buffering_a_body() {
        // Oversized declaration split across pushes: the error fires the
        // moment the 12th header byte lands, with zero body bytes seen.
        let mut huge = u32::MAX.to_le_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 8]);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        dec.push(&huge[..11]);
        assert!(
            dec.next_frame().unwrap().is_none(),
            "11 bytes: still waiting"
        );
        dec.push(&huge[11..]);
        assert!(matches!(
            dec.next_frame().unwrap_err(),
            ProtocolError::Oversized { .. }
        ));
        // Poisoned: the failure is sticky.
        assert!(dec.next_frame().is_err());

        let mut zero = encode_frame(b"x");
        zero[0..4].copy_from_slice(&0u32.to_le_bytes());
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        dec.push(&zero);
        assert!(matches!(
            dec.next_frame().unwrap_err(),
            ProtocolError::ZeroLengthFrame
        ));
    }

    #[test]
    fn decoder_types_corruption_even_when_fragmented() {
        let good = encode_frame(b"\x01payload bytes");
        for bit in 0..good.len() * 8 {
            let mut mutated = good.clone();
            mutated[bit / 8] ^= 1 << (bit % 8);
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
            // Deliver the corrupted frame in two fragments around the flip.
            let cut = (bit / 8 + 1).min(mutated.len());
            dec.push(&mutated[..cut]);
            let early = dec.next_frame();
            dec.push(&mutated[cut..]);
            // A length-field flip may leave the decoder legitimately
            // waiting for more bytes (the declared frame is longer); any
            // *complete* decode must fail typed — silence is impossible
            // because the checksum covers every body byte.
            match early.and_then(|first| match first {
                Some(body) => Ok(Some(body)),
                None => dec.next_frame(),
            }) {
                Ok(Some(_)) => panic!("bit flip {bit} decoded silently"),
                Ok(None) => {} // still mid-frame: the stream would close → truncation
                Err(_) => {}   // typed error
            }
        }
    }

    #[test]
    fn decoder_mid_frame_flags_truncation_at_close() {
        let framed = encode_frame(b"\x01abcdef");
        for cut in 1..framed.len() {
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
            dec.push(&framed[..cut]);
            match dec.next_frame() {
                Ok(None) => assert!(dec.mid_frame(), "cut {cut}: bytes pending"),
                Ok(Some(_)) => panic!("cut {cut}: truncated frame decoded"),
                Err(_) => {} // header-stage rejection is fine too
            }
        }
    }
}
