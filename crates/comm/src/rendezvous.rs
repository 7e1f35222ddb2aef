//! Rendezvous: how a fleet of rank processes finds each other, proves
//! it runs one build, and agrees on a world roster — per epoch, so
//! consecutive epochs may open with *different* rosters (elastic grow /
//! shrink / mid-run death).
//!
//! # The flow
//!
//! 1. Every pool process dials the coordinator (pool id 0 — the
//!    launcher process, always world rank 0) over the Unix-domain
//!    socket in the launcher's private temp dir and sends a [`Hello`]
//!    frame carrying its **pool id**, the world size it expects, the
//!    epoch counter, and its wire-protocol version.
//! 2. Both sides run [`validate_peer`]: a version mismatch is rejected
//!    with a typed [`HandshakeError`] that names the offender and says
//!    what to fix — never a silent hang or a garbled frame later. Every
//!    pool process runs the launcher's own executable on the launcher's
//!    host, so the version is the one build-mismatch gate.
//! 3. The coordinator answers each Hello with a
//!    [`Roster`](crate::frame::FrameKind::Roster) frame: the epoch's
//!    member list, i.e. the `n` smallest **live** pool ids in order
//!    ([`roster_for`]). Position in that list *is* the world rank. Pool
//!    processes not on the roster are *observers*: they idle through
//!    the epoch and receive the outcome broadcast on the same stream,
//!    so the SPMD program stays replayed everywhere.
//! 4. Members mesh up pairwise (each dials every lower world rank at
//!    the endpoint owned by that rank's pool id) and the epoch runs.
//!
//! The echo is the roster. Only the coordinator tracks which pool
//! processes are alive (its own pool of children, shrunk after every
//! aborted epoch) and only it computes a roster; a worker takes its
//! role from the echo and announces none in its Hello. A worker checks
//! just the echo's epoch and member count against its own view of the
//! program, so a diverged process fails with a named error.
//!
//! # Elasticity semantics
//!
//! * **Join**: a `SimWorld` with a larger `nranks` between epochs makes
//!   the launcher spawn fresh processes; they read the verdicts of the
//!   earlier epochs from the launcher's verdict log instead of running
//!   them, reach the same program point, then dial in — also after a
//!   death.
//! * **Leave / death**: a rank dying mid-epoch poisons its peers'
//!   mailboxes within milliseconds; the epoch aborts and the dead pool
//!   ids are broadcast. Under
//!   [`SimWorld::try_run`](crate::SimWorld::try_run) every survivor
//!   gets the same [`EpochError`](crate::EpochError), the pool
//!   survives, and the next epoch's roster simply omits the dead; the
//!   session layer then carries on via `Session::resize(p_new)`.
//!   (`SimWorld::run` is the same epoch plus teardown of the pool.)
//! * **Limitation** (documented, enforced): the coordinator (pool
//!   id 0 / world rank 0) is not expendable — its death kills the
//!   fleet.

use crate::frame::{DecodeError, Hello};

/// The wire-protocol version this build speaks. Bumped whenever the
/// frame layout or the control-frame protocol changes incompatibly;
/// [`validate_peer`] refuses to mesh with any other version.
pub const PROTOCOL_VERSION: u32 = 3;

/// The [`Hello`] this process sends: caller-provided identity plus this
/// build's protocol version.
pub fn local_hello(rank: u32, world_size: u32, epoch: u64) -> Hello {
    Hello {
        rank,
        world_size,
        epoch,
        proto_version: PROTOCOL_VERSION,
    }
}

/// Why a peer's [`Hello`] was rejected during rendezvous. The message
/// names the offender and says what to fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// The peer speaks a different wire-protocol version.
    VersionMismatch {
        /// The peer's rank (pool id as sent in its Hello).
        peer: u32,
        /// The version this process speaks ([`PROTOCOL_VERSION`]).
        ours: u32,
        /// The version the peer declared.
        theirs: u32,
    },
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            HandshakeError::VersionMismatch { peer, ours, theirs } => write!(
                f,
                "rank {peer} speaks wire-protocol version {theirs} but this process speaks \
                 {ours}: every process of a fleet must run the same dsk-comm build — rebuild \
                 and relaunch the out-of-date side"
            ),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Validate a peer's [`Hello`] protocol version. Identity fields
/// (rank / world size / epoch) are the launcher's business; this checks
/// only whether the two builds can talk at all.
pub fn validate_peer(hello: &Hello) -> Result<(), HandshakeError> {
    if hello.proto_version != PROTOCOL_VERSION {
        return Err(HandshakeError::VersionMismatch {
            peer: hello.rank,
            ours: PROTOCOL_VERSION,
            theirs: hello.proto_version,
        });
    }
    Ok(())
}

/// Hard bound on roster payload size (member count); anything larger is
/// rejected at decode time so a corrupt frame cannot trigger an
/// unbounded allocation.
pub const MAX_ROSTER_MEMBERS: usize = 1 << 20;

/// An epoch's world roster: `members[w]` is the **pool id** serving
/// world rank `w`. Also reused as the `Abort` payload, where `members`
/// lists the *dead* pool ids instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Roster {
    /// The launcher epoch this roster (or abort) belongs to.
    pub epoch: u64,
    /// Pool ids in world-rank order (or, in an `Abort` payload, the
    /// dead pool ids in ascending order).
    pub members: Vec<u32>,
}

impl Roster {
    /// Serialize as a `Roster`/`Abort` frame payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(12 + 4 * self.members.len());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&(self.members.len() as u32).to_le_bytes());
        for m in &self.members {
            buf.extend_from_slice(&m.to_le_bytes());
        }
        buf
    }

    /// Parse a `Roster`/`Abort` frame payload. Every malformed input —
    /// truncation, trailing garbage, an absurd member count — yields a
    /// typed [`DecodeError`], never a panic or an unbounded allocation.
    pub fn from_payload(bytes: &[u8]) -> Result<Roster, DecodeError> {
        if bytes.len() < 12 {
            return Err(DecodeError::Truncated {
                missing: 12usize.saturating_sub(bytes.len()),
            });
        }
        let epoch = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        if count > MAX_ROSTER_MEMBERS {
            return Err(DecodeError::Oversized { len: count as u64 });
        }
        let want = 12 + 4 * count;
        if bytes.len() < want {
            return Err(DecodeError::Truncated {
                missing: want - bytes.len(),
            });
        }
        if bytes.len() > want {
            return Err(DecodeError::TrailingBytes {
                extra: bytes.len() - want,
            });
        }
        let members = (0..count)
            .map(|i| u32::from_le_bytes(bytes[12 + 4 * i..16 + 4 * i].try_into().unwrap()))
            .collect();
        Ok(Roster { epoch, members })
    }
}

/// The roster every process computes for an epoch: the `n` smallest
/// live pool ids, in order — position is world rank. Pure and
/// deterministic so the coordinator and every worker agree without
/// negotiation. Panics (with the shortfall) if fewer than `n` pool
/// processes are alive.
pub fn roster_for(epoch: u64, live_pool_ids: &[usize], n: usize) -> Roster {
    let mut live: Vec<usize> = live_pool_ids.to_vec();
    live.sort_unstable();
    live.dedup();
    assert!(
        live.len() >= n,
        "the socket pool has only {} live rank(s) but the world needs {n} — \
         a rank died and the program asked for a world the survivors cannot fill",
        live.len()
    );
    Roster {
        epoch,
        members: live[..n].iter().map(|&id| id as u32).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatible_hello_validates() {
        let h = local_hello(3, 8, 2);
        assert_eq!(validate_peer(&h), Ok(()));
    }

    /// Satellite (b): the version check is a *typed* rejection whose
    /// message names the peer and both versions.
    #[test]
    fn version_mismatch_is_typed_and_actionable() {
        let mut h = local_hello(5, 4, 0);
        h.proto_version = PROTOCOL_VERSION + 1;
        let err = validate_peer(&h).unwrap_err();
        assert_eq!(
            err,
            HandshakeError::VersionMismatch {
                peer: 5,
                ours: PROTOCOL_VERSION,
                theirs: PROTOCOL_VERSION + 1,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("rank 5"), "{msg}");
        assert!(
            msg.contains(&format!("version {}", PROTOCOL_VERSION + 1)),
            "{msg}"
        );
        assert!(msg.contains("rebuild"), "{msg}");
    }

    #[test]
    fn roster_roundtrips() {
        let r = Roster {
            epoch: 11,
            members: vec![0, 1, 3, 4],
        };
        assert_eq!(Roster::from_payload(&r.to_payload()).unwrap(), r);
        let empty = Roster {
            epoch: 0,
            members: vec![],
        };
        assert_eq!(Roster::from_payload(&empty.to_payload()).unwrap(), empty);
    }

    #[test]
    fn malformed_roster_payloads_are_typed_errors() {
        let good = Roster {
            epoch: 3,
            members: vec![0, 2],
        }
        .to_payload();
        // Truncations at every boundary.
        for cut in 0..good.len() {
            assert!(
                Roster::from_payload(&good[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(Roster::from_payload(&long).is_err());
        // An absurd member count must not allocate.
        let mut evil = 9u64.to_le_bytes().to_vec();
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Roster::from_payload(&evil),
            Err(DecodeError::Oversized { .. })
        ));
    }

    #[test]
    fn roster_for_picks_smallest_live_ids() {
        let r = roster_for(4, &[5, 0, 3, 1, 4], 3);
        assert_eq!(r.members, vec![0, 1, 3]);
        assert_eq!(r.epoch, 4);
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn roster_for_panics_when_survivors_cannot_fill_the_world() {
        let _ = roster_for(0, &[0, 1], 3);
    }
}
