//! Regression test for the rendezvous compatibility handshake
//! (satellite of the elastic-fleet PR): a peer speaking the wrong
//! wire-protocol version must be rejected with a *typed*, actionable
//! [`HandshakeError`] — over a real socket, exactly as a worker built
//! from another revision would present it.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dsk_comm::frame::{read_frame, write_frame, Frame, FrameKind, Hello};
use dsk_comm::rendezvous::{self, HandshakeError, PROTOCOL_VERSION};
use dsk_comm::socket::{connect_deadline, SocketListener};

/// Accept one connection, read the peer's Hello, and validate it.
fn accept_and_validate(listener: &SocketListener) -> Result<Hello, HandshakeError> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = listener
        .accept_deadline(deadline)
        .expect("peer should connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let frame = read_frame(&mut stream)
        .expect("frame should decode")
        .expect("peer should send a frame");
    assert_eq!(frame.kind, FrameKind::Hello);
    let hello = Hello::from_payload(&frame.payload).expect("Hello payload should decode");
    rendezvous::validate_peer(&hello)?;
    Ok(hello)
}

fn dial_with(listener_ep: &Path, hello: Hello) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = connect_deadline(listener_ep, deadline, &|| None).expect("dial coordinator");
    write_frame(
        &mut stream,
        &Frame::control(FrameKind::Hello, hello.rank as usize, hello.to_payload()),
    )
    .expect("send Hello");
    // Keep the stream alive until the accepting side has read the frame.
    std::thread::sleep(Duration::from_millis(200));
}

/// Removes a test's rendezvous dir when the test ends, on a panic too.
struct RemoveDir(PathBuf);

impl Drop for RemoveDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A listener on a fresh `dsk-handshake-*` dir in the temp dir, the
/// dialing endpoint, and the guard that removes the dir.
fn unix_listener(name: &str) -> (SocketListener, PathBuf, RemoveDir) {
    let dir = std::env::temp_dir().join(format!("dsk-handshake-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ep = dir.join("coord.sock");
    (SocketListener::bind(&ep).unwrap(), ep, RemoveDir(dir))
}

/// A peer built at a different protocol version connects; the
/// coordinator-side validation must reject it with the typed
/// `VersionMismatch` naming who is wrong and both versions.
#[test]
fn wrong_version_peer_is_rejected_with_a_typed_error() {
    let (listener, ep, _dir) = unix_listener("version");
    let peer = std::thread::spawn(move || {
        let mut hello = rendezvous::local_hello(3, 4, 0);
        hello.proto_version = PROTOCOL_VERSION + 1; // an out-of-date build
        dial_with(&ep, hello);
    });
    let err = accept_and_validate(&listener).unwrap_err();
    peer.join().unwrap();
    assert_eq!(
        err,
        HandshakeError::VersionMismatch {
            peer: 3,
            ours: PROTOCOL_VERSION,
            theirs: PROTOCOL_VERSION + 1,
        }
    );
    let msg = err.to_string();
    assert!(msg.contains("rank 3"), "must name the offender: {msg}");
    assert!(
        msg.contains(&format!("version {}", PROTOCOL_VERSION + 1))
            && msg.contains(&format!("speaks {PROTOCOL_VERSION}")),
        "must name both versions: {msg}"
    );
    assert!(msg.contains("rebuild"), "must say how to fix it: {msg}");
}

/// A compatible peer passes the same gate, proving the rejection above
/// is the version check and not an artifact of the transport plumbing.
#[test]
fn compatible_peer_passes_the_same_gate() {
    let (listener, ep, _dir) = unix_listener("ok");
    let peer = std::thread::spawn(move || {
        dial_with(&ep, rendezvous::local_hello(2, 4, 7));
    });
    let hello = accept_and_validate(&listener).expect("compatible peer must validate");
    peer.join().unwrap();
    assert_eq!((hello.rank, hello.world_size, hello.epoch), (2, 4, 7));
}
