//! Wire encodings for the planner/session vocabulary.
//!
//! Under the socket backend, `SimWorld::run` results genuinely cross
//! process boundaries, so any type a distributed program returns must
//! implement [`WirePayload`]. These impls cover the planning and
//! re-planning record types tests and applications commonly return:
//! enums travel as one-byte tags, structs as field-wise encodings.

use dsk_comm::{Payload, WirePayload, WireReader};

use crate::common::{AlgorithmFamily, Elision, Routing, Sampling};
use crate::kernel::{KernelId, KernelPlan};
use crate::session::ReplanEvent;
use crate::theory::Algorithm;

fn tag_of<T: PartialEq + Copy>(all: &[T], v: T, what: &str) -> u8 {
    all.iter()
        .position(|x| *x == v)
        .unwrap_or_else(|| panic!("unencodable {what}")) as u8
}

fn from_tag<T: Copy>(all: &[T], tag: u8, what: &str) -> T {
    *all.get(tag as usize)
        .unwrap_or_else(|| panic!("bad wire tag {tag} for {what}"))
}

macro_rules! impl_wire_enum {
    ($ty:ty, $all:expr) => {
        impl Payload for $ty {
            fn words(&self) -> usize {
                1
            }
        }

        impl WirePayload for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.push(tag_of(&$all, *self, stringify!($ty)));
            }
            fn decode(r: &mut WireReader<'_>) -> Self {
                from_tag(&$all, r.u8(), stringify!($ty))
            }
        }
    };
}

impl_wire_enum!(AlgorithmFamily, AlgorithmFamily::ALL);
impl_wire_enum!(Elision, Elision::ALL);
impl_wire_enum!(Routing, Routing::ALL);
impl_wire_enum!(Sampling, [Sampling::Values, Sampling::Ones]);

impl Payload for Algorithm {
    fn words(&self) -> usize {
        1
    }
}

impl WirePayload for Algorithm {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.family.encode(buf);
        self.elision.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        let family = AlgorithmFamily::decode(r);
        let elision = Elision::decode(r);
        Algorithm::new(family, elision)
    }
}

impl Payload for KernelId {
    fn words(&self) -> usize {
        1
    }
}

impl WirePayload for KernelId {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            KernelId::Baseline1D => buf.push(u8::MAX),
            KernelId::Family(f) => f.encode(buf),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.u8() {
            u8::MAX => KernelId::Baseline1D,
            tag => KernelId::Family(from_tag(&AlgorithmFamily::ALL, tag, "AlgorithmFamily")),
        }
    }
}

impl Payload for KernelPlan {
    fn words(&self) -> usize {
        5
    }
}

impl WirePayload for KernelPlan {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.c.encode(buf);
        self.elision.encode(buf);
        self.routing.encode(buf);
        self.predicted_comm_s.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        KernelPlan {
            id: KernelId::decode(r),
            c: usize::decode(r),
            elision: Elision::decode(r),
            routing: Routing::decode(r),
            predicted_comm_s: Option::<f64>::decode(r),
        }
    }
}

impl Payload for ReplanEvent {
    fn words(&self) -> usize {
        2 * KernelPlan::words(&self.from) + 8
    }
}

impl WirePayload for ReplanEvent {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.at_call.encode(buf);
        self.observed_nnz.encode(buf);
        self.observed_phi.encode(buf);
        self.from.encode(buf);
        self.to.encode(buf);
        self.predicted_from_s.encode(buf);
        self.predicted_to_s.encode(buf);
        self.migrated.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        ReplanEvent {
            at_call: u64::decode(r),
            observed_nnz: usize::decode(r),
            observed_phi: f64::decode(r),
            from: KernelPlan::decode(r),
            to: KernelPlan::decode(r),
            predicted_from_s: Option::<f64>::decode(r),
            predicted_to_s: f64::decode(r),
            migrated: bool::decode(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WirePayload + PartialEq + std::fmt::Debug + Clone>(v: T) {
        assert_eq!(T::from_wire(&v.to_wire()), v);
    }

    #[test]
    fn planner_vocabulary_roundtrips() {
        for f in AlgorithmFamily::ALL {
            roundtrip(f);
        }
        for e in Elision::ALL {
            roundtrip(e);
        }
        for rt in Routing::ALL {
            roundtrip(rt);
        }
        roundtrip(KernelId::Baseline1D);
        roundtrip(KernelId::Family(AlgorithmFamily::SparseRepl25));
        roundtrip(KernelPlan {
            id: KernelId::Family(AlgorithmFamily::DenseShift15),
            c: 4,
            elision: Elision::LocalKernelFusion,
            routing: Routing::Dense,
            predicted_comm_s: Some(1.25e-3),
        });
        roundtrip(KernelPlan {
            id: KernelId::Family(AlgorithmFamily::SparseShift15),
            c: 2,
            elision: Elision::None,
            routing: Routing::Pattern,
            predicted_comm_s: None,
        });
        roundtrip(Algorithm::new(
            AlgorithmFamily::SparseShift15,
            Elision::ReplicationReuse,
        ));
    }

    #[test]
    fn replan_events_roundtrip() {
        let plan = KernelPlan {
            id: KernelId::Family(AlgorithmFamily::DenseShift15),
            c: 2,
            elision: Elision::None,
            routing: Routing::Pattern,
            predicted_comm_s: None,
        };
        let ev = ReplanEvent {
            at_call: 7,
            observed_nnz: 1234,
            observed_phi: 0.125,
            from: plan,
            to: KernelPlan {
                id: KernelId::Family(AlgorithmFamily::SparseShift15),
                c: 4,
                elision: Elision::ReplicationReuse,
                routing: Routing::Dense,
                predicted_comm_s: Some(9.0),
            },
            predicted_from_s: Some(11.0),
            predicted_to_s: 9.0,
            migrated: true,
        };
        let bytes = ev.to_wire();
        let mut rd = WireReader::new(&bytes);
        let back = ReplanEvent::decode(&mut rd);
        assert!(rd.is_empty());
        assert_eq!(back.observed_nnz, 1234);
        assert!(back.migrated);
        assert_eq!(back.to.c, 4);
    }
}
