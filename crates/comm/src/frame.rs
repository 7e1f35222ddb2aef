//! The socket backend's length-prefixed frame protocol.
//!
//! Every byte that crosses a socket between two ranks is one *frame*:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     4  magic      u32 LE = 0x4653_4B44 (the bytes "DKSF")
//!      4     1  kind       FrameKind discriminant (Data, Hello, …)
//!      5     3  pad        must be zero
//!      8     4  src        sending rank (u32 LE)
//!     12     4  tag        message tag (u32 LE)
//!     16     8  context    communicator context id (u64 LE)
//!     24     4  len        payload byte count (u32 LE, ≤ MAX_FRAME_PAYLOAD)
//!     28   len  payload    WirePayload bytes (Data) or control payload
//! ```
//!
//! `Data` frames carry exactly the buffer a [`WirePayload`] encode
//! produced, keyed by the same `(src, context, tag)` triple the
//! in-process mailboxes use. Control frames (`Hello`, `Bye`, `Outcome`,
//! `OutcomeSet`, `Error`) drive the launcher's rendezvous, drain, and
//! result-collection protocol and never enter word accounting.
//!
//! Decoding is fallible by design: a truncated, corrupted, or oversized
//! frame yields a typed [`DecodeError`] (never a panic, never an
//! unbounded allocation), so a malfunctioning or malicious peer fails
//! the rank with a diagnostic instead of wedging it. The seeded fuzz
//! suite in `tests/frame_robustness.rs` holds this contract.
//!
//! [`WirePayload`]: crate::payload::WirePayload

use std::io::{ErrorKind, IoSlice, Read, Write};

/// Frame magic: the little-endian `u32` reading of the bytes `DKSF`.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"DKSF");

/// Fixed frame header size in bytes.
pub const FRAME_HEADER_LEN: usize = 28;

/// Upper bound on a frame payload (256 MiB). A length field beyond this
/// is rejected *before* any allocation — corrupt lengths must not OOM
/// the receiver.
pub const MAX_FRAME_PAYLOAD: usize = 256 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// An application message: `WirePayload` bytes keyed by
    /// `(src, context, tag)`.
    Data = 0,
    /// Rendezvous handshake: payload is (rank, world size, epoch) plus
    /// the protocol version; see [`Hello`]. A worker's role is not in
    /// it: the coordinator's `Roster` reply decides that.
    Hello = 1,
    /// End-of-epoch marker: the sender has finished its closure and
    /// will send no more `Data` this epoch.
    Bye = 2,
    /// A member rank's result, sent to rank 0: encoded value bytes plus
    /// its `RankStats`.
    Outcome = 3,
    /// Rank 0's broadcast of every rank's outcome, so all processes
    /// return identical `Vec<RankOutcome<T>>` and the SPMD program
    /// stays in lockstep.
    OutcomeSet = 4,
    /// A rank's failure report (panic message / drain failure), routed
    /// to rank 0 so the launcher re-panics with the root cause.
    Error = 5,
    /// The coordinator's reply to a `Hello`: the membership of the
    /// epoch that is opening (see [`crate::rendezvous::Roster`]). An
    /// epoch may open with a different roster than the last — that is
    /// the elastic join/leave mechanism.
    Roster = 6,
    /// The coordinator's verdict that the current epoch failed: payload
    /// names the dead pool ids. Survivors abandon the epoch and
    /// re-rendezvous; the pool itself stays alive.
    Abort = 7,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Bye),
            3 => Some(FrameKind::Outcome),
            4 => Some(FrameKind::OutcomeSet),
            5 => Some(FrameKind::Error),
            6 => Some(FrameKind::Roster),
            7 => Some(FrameKind::Abort),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Sending rank.
    pub src: u32,
    /// Communicator context id (zero for control frames).
    pub context: u64,
    /// Message tag (zero for control frames).
    pub tag: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A data frame for mailbox key `(src, context, tag)`.
    pub fn data(src: usize, context: u64, tag: u32, payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::Data,
            src: src as u32,
            context,
            tag,
            payload,
        }
    }

    /// A control frame (no mailbox key).
    pub fn control(kind: FrameKind, src: usize, payload: Vec<u8>) -> Frame {
        Frame {
            kind,
            src: src as u32,
            context: 0,
            tag: 0,
            payload,
        }
    }

    /// Total bytes this frame occupies on the wire (header + payload).
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER_LEN + self.payload.len()
    }

    /// The 28-byte header describing this frame.
    ///
    /// # Panics
    ///
    /// Panics when the payload exceeds [`MAX_FRAME_PAYLOAD`]: the peer
    /// would reject the frame, and past 4 GiB the length field would
    /// wrap and desynchronize the stream.
    fn header(&self) -> [u8; FRAME_HEADER_LEN] {
        let len = self.payload.len();
        assert!(
            len <= MAX_FRAME_PAYLOAD,
            "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
        );
        let mut h = [0u8; FRAME_HEADER_LEN];
        h[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
        h[4] = self.kind as u8;
        h[8..12].copy_from_slice(&self.src.to_le_bytes());
        h[12..16].copy_from_slice(&self.tag.to_le_bytes());
        h[16..24].copy_from_slice(&self.context.to_le_bytes());
        h[24..28].copy_from_slice(&(len as u32).to_le_bytes());
        h
    }

    /// Serialize into a fresh buffer — for frames written more than
    /// once (the launcher's pre-serialized control broadcasts). The
    /// per-message path is [`write_frame`], which never builds this
    /// copy.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        buf.extend_from_slice(&self.header());
        buf.extend_from_slice(&self.payload);
        buf
    }
}

/// Why a frame failed to decode. Every malformed input maps to one of
/// these — frame decoding never panics and never allocates more than
/// [`MAX_FRAME_PAYLOAD`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The header's magic field is wrong — the stream is not (or is no
    /// longer) frame-aligned.
    BadMagic(u32),
    /// Unknown [`FrameKind`] discriminant.
    BadKind(u8),
    /// Nonzero padding bytes.
    BadPadding([u8; 3]),
    /// The payload length field exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: u64,
    },
    /// The stream ended inside a frame.
    Truncated {
        /// Bytes still expected when the stream ended.
        missing: usize,
    },
    /// A control payload is longer than its fixed or declared length.
    TrailingBytes {
        /// Bytes past the end of the record.
        extra: usize,
    },
    /// An underlying transport error.
    Io(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic(m) => {
                write!(
                    f,
                    "bad frame magic {m:#010x} (expected {FRAME_MAGIC:#010x})"
                )
            }
            DecodeError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::BadPadding(p) => write!(f, "nonzero frame padding {p:?}"),
            DecodeError::Oversized { len } => write!(
                f,
                "frame payload length {len} exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
            ),
            DecodeError::Truncated { missing } => {
                write!(f, "stream ended inside a frame ({missing} byte(s) missing)")
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after a control payload")
            }
            DecodeError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Marker substring for a read timeout that fired on a frame boundary
/// (no bytes consumed) — safe to retry the whole `read_frame`.
pub const TIMEOUT_AT_BOUNDARY: &str = "read timed out at frame boundary";

/// How long a *partially received* frame may stall before the stream is
/// declared broken. A peer that started a frame and stopped mid-way is
/// wedged or dead; waiting forever would defeat every outer deadline.
pub const MID_FRAME_STALL_LIMIT: std::time::Duration = std::time::Duration::from_secs(60);

/// A read timed out inside a frame: start (or keep) the stall clock and
/// fail once the peer has been silent for [`MID_FRAME_STALL_LIMIT`].
fn check_stall(
    stalled_since: &mut Option<std::time::Instant>,
    got: usize,
    want: usize,
) -> Result<(), DecodeError> {
    let since = *stalled_since.get_or_insert_with(std::time::Instant::now);
    if since.elapsed() >= MID_FRAME_STALL_LIMIT {
        return Err(DecodeError::Io(format!(
            "peer stalled mid-frame for {MID_FRAME_STALL_LIMIT:?} \
             ({got} of {want} byte(s) received)"
        )));
    }
    Ok(())
}

/// Read exactly `buf.len()` bytes; `Ok(false)` on clean EOF at offset
/// zero, `Err(Truncated)` on EOF mid-buffer. With `boundary` set, a
/// read timeout before the first byte surfaces as
/// [`TIMEOUT_AT_BOUNDARY`] (safe to retry the whole frame); once any
/// byte arrived — or when reading a payload — timeouts keep reading,
/// because the peer already committed to the frame, but only up to
/// [`MID_FRAME_STALL_LIMIT`] so a wedged peer cannot hang the rank
/// past every outer deadline.
fn read_exact_or_eof(
    r: &mut impl Read,
    buf: &mut [u8],
    boundary: bool,
) -> Result<bool, DecodeError> {
    let mut got = 0;
    let mut stalled_since: Option<std::time::Instant> = None;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(false)
                } else {
                    Err(DecodeError::Truncated {
                        missing: buf.len() - got,
                    })
                }
            }
            Ok(n) => {
                got += n;
                stalled_since = None;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if boundary && got == 0 {
                    return Err(DecodeError::Io(TIMEOUT_AT_BOUNDARY.to_string()));
                }
                check_stall(&mut stalled_since, got, buf.len())?;
            }
            Err(e) => return Err(DecodeError::Io(e.to_string())),
        }
    }
    Ok(true)
}

/// Fill `buf` with exactly `len` payload bytes, reusing its capacity.
/// Bytes land in the vector's spare capacity (`Read::take` +
/// `read_to_end`), so neither a fresh nor a recycled buffer is
/// zero-filled first, and a recycled buffer larger than `len` comes
/// back holding `len` bytes, not its old contents. Timeouts keep
/// reading — the peer already committed to the frame — up to
/// [`MID_FRAME_STALL_LIMIT`], like [`read_exact_or_eof`].
fn read_payload(r: &mut impl Read, buf: &mut Vec<u8>, len: usize) -> Result<(), DecodeError> {
    buf.clear();
    buf.reserve_exact(len);
    let mut stalled_since: Option<std::time::Instant> = None;
    while buf.len() < len {
        let before = buf.len();
        let missing = len - before;
        match r.by_ref().take(missing as u64).read_to_end(buf) {
            // `read_to_end` returns at end of stream: of the `take`
            // (payload complete) or of the transport (peer gone).
            Ok(_) if buf.len() < len => {
                return Err(DecodeError::Truncated {
                    missing: len - buf.len(),
                })
            }
            Ok(_) => {}
            // Bytes read before the error stay appended to `buf`.
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if buf.len() > before {
                    stalled_since = None;
                }
                check_stall(&mut stalled_since, buf.len(), len)?;
            }
            Err(e) => return Err(DecodeError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Read one frame. `Ok(None)` means the stream ended cleanly on a frame
/// boundary; every malformed input yields a [`DecodeError`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, DecodeError> {
    read_frame_into(r, Vec::with_capacity)
}

/// [`read_frame`] with the payload buffer supplied by the caller:
/// `buffer(len)` is asked for a vector to hold the `len`-byte payload
/// once the header has been validated (so a corrupt length never
/// reaches it), and may return a recycled one of any length and
/// capacity — the frame's payload is exactly the `len` bytes read.
pub fn read_frame_into(
    r: &mut impl Read,
    buffer: impl FnOnce(usize) -> Vec<u8>,
) -> Result<Option<Frame>, DecodeError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    if !read_exact_or_eof(r, &mut header, true)? {
        return Ok(None);
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != FRAME_MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let kind = FrameKind::from_u8(header[4]).ok_or(DecodeError::BadKind(header[4]))?;
    let pad: [u8; 3] = header[5..8].try_into().unwrap();
    if pad != [0; 3] {
        return Err(DecodeError::BadPadding(pad));
    }
    let src = u32::from_le_bytes(header[8..12].try_into().unwrap());
    let tag = u32::from_le_bytes(header[12..16].try_into().unwrap());
    let context = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let len = u32::from_le_bytes(header[24..28].try_into().unwrap()) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(DecodeError::Oversized { len: len as u64 });
    }
    let mut payload = buffer(len);
    read_payload(r, &mut payload, len)?;
    Ok(Some(Frame {
        kind,
        src,
        context,
        tag,
        payload,
    }))
}

/// Write one frame; returns the bytes written (`frame.wire_len()`).
/// Header and payload are gathered straight from where they live
/// (`write_vectored`), so the payload is never copied into a combined
/// buffer; a short write resumes wherever it stopped, mid-header
/// included.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<usize> {
    let header = frame.header();
    let total = frame.wire_len();
    let mut written = 0;
    while written < total {
        let res = if written < FRAME_HEADER_LEN {
            w.write_vectored(&[
                IoSlice::new(&header[written..]),
                IoSlice::new(&frame.payload),
            ])
        } else {
            w.write(&frame.payload[written - FRAME_HEADER_LEN..])
        };
        match res {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

/// The rendezvous handshake payload carried by a [`FrameKind::Hello`]
/// frame: who is connecting, to which world, at which epoch — and
/// whether the two processes can talk at all (the protocol version,
/// validated by [`crate::rendezvous::validate_peer`], which rejects a
/// mismatch with a typed, actionable
/// [`crate::rendezvous::HandshakeError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The connecting process's rank (pool id during rendezvous).
    pub rank: u32,
    /// World size the sender expects for this epoch (its own view of
    /// the SPMD program — a mismatch means the processes diverged).
    pub world_size: u32,
    /// The launcher epoch (index of this `SimWorld::run` call among the
    /// socket-backed runs of the current test body).
    pub epoch: u64,
    /// The sender's wire-protocol version
    /// ([`crate::rendezvous::PROTOCOL_VERSION`]).
    pub proto_version: u32,
}

/// Serialized [`Hello`] payload size in bytes.
pub const HELLO_PAYLOAD_LEN: usize = 20;

impl Hello {
    /// Serialize as a Hello frame payload.
    pub fn to_payload(self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HELLO_PAYLOAD_LEN);
        buf.extend_from_slice(&self.rank.to_le_bytes());
        buf.extend_from_slice(&self.world_size.to_le_bytes());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&self.proto_version.to_le_bytes());
        buf
    }

    /// Parse a Hello frame payload.
    pub fn from_payload(bytes: &[u8]) -> Result<Hello, DecodeError> {
        if bytes.len() < HELLO_PAYLOAD_LEN {
            return Err(DecodeError::Truncated {
                missing: HELLO_PAYLOAD_LEN - bytes.len(),
            });
        }
        if bytes.len() > HELLO_PAYLOAD_LEN {
            return Err(DecodeError::TrailingBytes {
                extra: bytes.len() - HELLO_PAYLOAD_LEN,
            });
        }
        Ok(Hello {
            rank: u32::from_le_bytes(bytes[0..4].try_into().unwrap()),
            world_size: u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            epoch: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            proto_version: u32::from_le_bytes(bytes[16..20].try_into().unwrap()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_frame_roundtrips() {
        let f = Frame::data(3, 0xDEAD_BEEF_0123_4567, 42, vec![1, 2, 3, 4, 5]);
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), f.wire_len());
        let back = read_frame(&mut &bytes[..]).unwrap().unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn control_frames_roundtrip() {
        for kind in [
            FrameKind::Hello,
            FrameKind::Bye,
            FrameKind::Outcome,
            FrameKind::OutcomeSet,
            FrameKind::Error,
            FrameKind::Roster,
            FrameKind::Abort,
        ] {
            let f = Frame::control(kind, 7, b"payload".to_vec());
            let back = read_frame(&mut f.to_bytes().as_slice()).unwrap().unwrap();
            assert_eq!(back.kind, kind);
            assert_eq!(back.src, 7);
            assert_eq!(back.payload, b"payload");
        }
    }

    #[test]
    fn clean_eof_is_none() {
        assert_eq!(read_frame(&mut &[][..]).unwrap(), None);
    }

    #[test]
    fn two_frames_stream_in_order() {
        let a = Frame::data(0, 1, 2, vec![9]);
        let b = Frame::control(FrameKind::Bye, 0, Vec::new());
        let mut bytes = a.to_bytes();
        bytes.extend_from_slice(&b.to_bytes());
        let mut cursor = &bytes[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), a);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b);
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn truncated_header_and_payload_error() {
        let f = Frame::data(1, 2, 3, vec![0u8; 16]);
        let bytes = f.to_bytes();
        for cut in [1, FRAME_HEADER_LEN - 1, FRAME_HEADER_LEN + 7] {
            let err = read_frame(&mut &bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated { .. }),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = Frame::data(0, 0, 0, Vec::new()).to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &bytes[..]).unwrap_err(),
            DecodeError::BadMagic(_)
        ));
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut bytes = Frame::data(0, 0, 0, Vec::new()).to_bytes();
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]).unwrap_err(),
            DecodeError::Oversized { .. }
        ));
    }

    /// A sink that accepts at most `cap` bytes per call — through
    /// `write` alone (the default `write_vectored` then forwards only
    /// the first non-empty slice) or through a real gathering
    /// `write_vectored` that can stop anywhere, the header/payload seam
    /// included.
    struct Trickle {
        out: Vec<u8>,
        cap: usize,
        gathers: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if !self.gathers {
                let first = bufs.iter().find(|b| !b.is_empty());
                return self.write(first.map_or(&[][..], |b| b));
            }
            let mut left = self.cap;
            for b in bufs {
                let n = b.len().min(left);
                self.out.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.cap - left)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Short writes of every size from one byte up — splitting the
    /// header, landing on the header/payload seam, straddling it, and
    /// splitting the payload — still put exactly `to_bytes()` on the
    /// stream.
    #[test]
    fn write_frame_survives_short_writes_everywhere() {
        let payload: Vec<u8> = (0..100u8).collect();
        for frame in [
            Frame::data(3, 0xDEAD_BEEF_0123_4567, 42, payload),
            Frame::control(FrameKind::Bye, 1, Vec::new()),
        ] {
            let expect = frame.to_bytes();
            for gathers in [false, true] {
                for cap in 1..=expect.len() + 1 {
                    let mut w = Trickle {
                        out: Vec::new(),
                        cap,
                        gathers,
                    };
                    let n = write_frame(&mut w, &frame).unwrap();
                    assert_eq!(n, expect.len(), "cap={cap} gathers={gathers}");
                    assert_eq!(w.out, expect, "cap={cap} gathers={gathers}");
                }
            }
        }
    }

    #[test]
    fn write_frame_reports_a_sink_that_stops_accepting() {
        let mut w = Trickle {
            out: Vec::new(),
            cap: 0,
            gathers: true,
        };
        let err = write_frame(&mut w, &Frame::data(0, 0, 0, vec![1])).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    /// A small frame read into a large recycled buffer — still holding
    /// its previous contents — yields exactly the frame's bytes, in the
    /// same allocation.
    #[test]
    fn small_frame_into_recycled_large_buffer_is_exact() {
        let f = Frame::data(1, 2, 3, (0..10u8).collect());
        let bytes = f.to_bytes();
        let recycled = vec![0xAAu8; 4 << 20];
        let addr = recycled.as_ptr();
        let back = read_frame_into(&mut &bytes[..], |len| {
            assert_eq!(len, 10);
            recycled
        })
        .unwrap()
        .unwrap();
        assert_eq!(back, f);
        assert_eq!(back.payload.len(), 10);
        assert_eq!(back.payload.as_ptr(), addr, "the recycled allocation");
        assert!(back.payload.capacity() >= 4 << 20);
    }

    /// The buffer callback sees only validated lengths: a corrupt
    /// length field is rejected before anything is asked to hold it.
    #[test]
    fn oversized_length_never_reaches_the_buffer_source() {
        let mut bytes = Frame::data(0, 0, 0, Vec::new()).to_bytes();
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame_into(&mut &bytes[..], |_| unreachable!("asked for a buffer"));
        assert!(matches!(err.unwrap_err(), DecodeError::Oversized { .. }));
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn header_refuses_a_payload_over_the_cap() {
        // Zero pages are mapped lazily: this costs address space only.
        let _ = Frame::data(0, 0, 0, vec![0u8; MAX_FRAME_PAYLOAD + 1]).to_bytes();
    }

    #[test]
    fn hello_roundtrips() {
        let h = Hello {
            rank: 5,
            world_size: 8,
            epoch: 12,
            proto_version: 3,
        };
        let p = h.to_payload();
        assert_eq!(p.len(), HELLO_PAYLOAD_LEN);
        assert_eq!(Hello::from_payload(&p).unwrap(), h);
        assert!(Hello::from_payload(&[1, 2, 3]).is_err());
        assert!(
            Hello::from_payload(&p[..17]).is_err(),
            "pre-PR-9 short Hello"
        );
    }
}
