//! Payload accounting and the wire encode/decode surface.
//!
//! Two traits govern what may travel between ranks:
//!
//! * [`Payload`] counts a value's size in *words*, the unit of the
//!   paper's α-β cost model: one `f64` value is one word, and a COO
//!   nonzero in flight costs three words (row, column, value). Word
//!   counts are identical under every backend, so modeled times never
//!   depend on which transport carried the message.
//! * [`WirePayload`] turns a value into a contiguous byte buffer and
//!   back. The in-process backend ignores it (messages move by
//!   ownership transfer), but the wire backend routes **every** message
//!   through `encode`/`decode`, so implementations must round-trip
//!   exactly. Dense tiles, sparse blocks, and R-value vectors all
//!   implement it; see `dsk-dense::Mat` and `dsk-sparse`'s matrix
//!   types for the non-scalar instances.
//!
//! The encoding is a plain little-endian layout: `u64` lengths and
//! scalars, `f64` as raw bits, `u32` as 4 bytes. No
//! self-description — sender and receiver already agree on the type,
//! exactly as MPI peers agree on datatypes.
//!
//! Scalar arrays — `Vec<f64>`/`<u64>`/`<u32>`/`<usize>`, and through
//! them dense tiles, row bundles and the index and value arrays of the
//! sparse formats — move in bulk: [`encode_scalars`] stages a block and
//! appends it with one copy, [`WireReader::scalars`] bounds-checks a
//! whole array once and then yields it at memory speed. The bytes are
//! those of the element-at-a-time layout; only the speed differs.

/// A value that can be sent between ranks, with a well-defined size in
/// 8-byte words for communication accounting.
pub trait Payload: Send + 'static {
    /// Number of 8-byte words this value occupies on the (modeled) wire.
    fn words(&self) -> usize;
}

/// A [`Payload`] that can round-trip through a contiguous byte buffer —
/// the contract the wire backend enforces on every message.
pub trait WirePayload: Payload + Sized {
    /// Append this value's wire encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decode one value from the reader, consuming exactly the bytes
    /// `encode` produced.
    ///
    /// # Panics
    ///
    /// Panics on malformed input (truncated buffer); with the
    /// in-process simulator this always indicates a sender/receiver
    /// type mismatch, the wire analogue of a `downcast` failure.
    fn decode(r: &mut WireReader<'_>) -> Self;

    /// Encode into a fresh buffer (convenience for send paths).
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decode a value from a complete buffer, asserting every byte is
    /// consumed — trailing bytes mean the sender encoded a different
    /// type than the receiver expects.
    fn from_wire(bytes: &[u8]) -> Self {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r);
        assert!(
            r.is_empty(),
            "wire decode of {} left {} trailing byte(s) — sender/receiver type mismatch",
            std::any::type_name::<Self>(),
            r.remaining()
        );
        v
    }
}

/// Cursor over an encoded buffer, advanced by [`WirePayload::decode`].
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Start reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        assert!(
            self.remaining() >= n,
            "wire decode underrun: need {n} bytes, {} remain — \
             sender/receiver type mismatch",
            self.remaining()
        );
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Read one byte.
    pub fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Read a little-endian `u16` (compressed sparse-index paths).
    pub fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().unwrap())
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Read a `u64` length/count field and narrow it to `usize`.
    /// (Deliberately not named `len`: this *consumes* 8 bytes from the
    /// stream, unlike a size accessor — see [`WireReader::remaining`].)
    pub fn read_len(&mut self) -> usize {
        usize::try_from(self.u64()).expect("wire length overflows usize")
    }

    /// Read an `f64` from its raw bits.
    pub fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    /// Read `n` raw bytes (bulk paths: nested byte buffers in the
    /// launcher's outcome frames).
    pub fn bytes(&mut self, n: usize) -> &'a [u8] {
        self.take(n)
    }

    /// Read `n` scalars as one bulk block. The `n · size` bytes are
    /// bounds-checked against the buffer *before* the iterator exists,
    /// so a corrupt count panics with the usual underrun diagnostic
    /// instead of driving the caller's `collect` into a giant
    /// allocation; the iterator reports its exact length, so `collect`
    /// and `extend` allocate once and copy at memory speed.
    pub fn scalars<T: WireScalar>(&mut self, n: usize) -> impl ExactSizeIterator<Item = T> + 'a {
        let len = n.saturating_mul(T::WIRE_SIZE);
        self.take(len).chunks_exact(T::WIRE_SIZE).map(T::get_le)
    }

    /// Read the element count of a sequence whose elements each encode
    /// to at least `min_elem_bytes` bytes, rejecting a count the rest of
    /// the buffer cannot hold — before the caller allocates for it.
    pub fn read_count(&mut self, min_elem_bytes: usize) -> usize {
        let n = self.read_len();
        let need = n.saturating_mul(min_elem_bytes);
        assert!(
            need <= self.remaining(),
            "wire decode underrun: {n} element(s) need at least {need} bytes, {} remain — \
             sender/receiver type mismatch",
            self.remaining()
        );
        n
    }
}

/// A fixed-width scalar with a little-endian wire form — the element
/// type of the bulk paths ([`encode_scalars`], [`WireReader::scalars`]).
pub trait WireScalar: Copy + 'static {
    /// Encoded size in bytes.
    const WIRE_SIZE: usize;
    /// Write the little-endian form into `dst` (`WIRE_SIZE` bytes).
    fn put_le(self, dst: &mut [u8]);
    /// Read the little-endian form from `src` (`WIRE_SIZE` bytes).
    fn get_le(src: &[u8]) -> Self;
}

macro_rules! impl_wire_scalar {
    ($($t:ty),*) => {$(
        impl WireScalar for $t {
            const WIRE_SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put_le(self, dst: &mut [u8]) {
                dst.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get_le(src: &[u8]) -> Self {
                <$t>::from_le_bytes(src.try_into().expect("scalar-sized chunk"))
            }
        }
    )*};
}

impl_wire_scalar!(u16, u32, u64, f64);

/// `usize` travels as a `u64`, like every length on the wire.
impl WireScalar for usize {
    const WIRE_SIZE: usize = 8;
    #[inline]
    fn put_le(self, dst: &mut [u8]) {
        (self as u64).put_le(dst);
    }
    #[inline]
    fn get_le(src: &[u8]) -> Self {
        usize::try_from(u64::get_le(src)).expect("wire length overflows usize")
    }
}

/// Bytes staged per block by [`encode_scalars`]: small enough to stay
/// in L1, so a block costs one pass over memory, not two.
pub const ENCODE_BLOCK_BYTES: usize = 4096;

/// Append `xs` to `buf` as consecutive little-endian scalars (no length
/// prefix), each element passed through `as_wire` first — the identity
/// for same-width arrays, a narrowing cast for compressed sparse
/// indices. Elements are staged a block at a time and appended with one
/// bulk copy per block: an element-at-a-time `extend_from_slice`
/// reloads the vector length it just stored, which pins the loop to
/// store-forwarding latency rather than memory bandwidth.
pub fn encode_scalars<S: Copy, T: WireScalar>(
    buf: &mut Vec<u8>,
    xs: &[S],
    as_wire: impl Fn(S) -> T,
) {
    buf.reserve(xs.len() * T::WIRE_SIZE);
    let mut block = [0u8; ENCODE_BLOCK_BYTES];
    for chunk in xs.chunks(ENCODE_BLOCK_BYTES / T::WIRE_SIZE) {
        for (dst, &x) in block.chunks_exact_mut(T::WIRE_SIZE).zip(chunk) {
            as_wire(x).put_le(dst);
        }
        buf.extend_from_slice(&block[..chunk.len() * T::WIRE_SIZE]);
    }
}

/// The wire form of a scalar vector: `u64` count, then the elements in
/// bulk. `Vec<T>::encode` and the by-slice send paths both call this,
/// so a borrowed slice and an owned vector are the same bytes.
pub fn encode_scalar_vec<T: WireScalar>(buf: &mut Vec<u8>, xs: &[T]) {
    buf.reserve(8 + xs.len() * T::WIRE_SIZE);
    buf.extend_from_slice(&(xs.len() as u64).to_le_bytes());
    encode_scalars(buf, xs, |x| x);
}

impl Payload for () {
    fn words(&self) -> usize {
        0
    }
}

impl WirePayload for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Self {}
}

impl Payload for bool {
    fn words(&self) -> usize {
        1
    }
}

impl WirePayload for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        r.u8() != 0
    }
}

impl Payload for u64 {
    fn words(&self) -> usize {
        1
    }
}

impl WirePayload for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        r.u64()
    }
}

impl Payload for usize {
    fn words(&self) -> usize {
        1
    }
}

impl WirePayload for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        r.read_len()
    }
}

impl Payload for u32 {
    fn words(&self) -> usize {
        1
    }
}

impl WirePayload for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        r.u32()
    }
}

impl Payload for i32 {
    fn words(&self) -> usize {
        1
    }
}

impl WirePayload for i32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        r.u32() as i32
    }
}

impl Payload for i64 {
    fn words(&self) -> usize {
        1
    }
}

impl WirePayload for i64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        r.u64() as i64
    }
}

impl Payload for f64 {
    fn words(&self) -> usize {
        1
    }
}

impl WirePayload for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        r.f64()
    }
}

/// Scalar vectors: one word per element — indices included, matching
/// the paper's 3-words-per-COO-nonzero accounting even when stored (and
/// encoded) as `u32` — and a bulk little-endian wire form.
macro_rules! impl_scalar_vec {
    ($($t:ty),*) => {$(
        impl Payload for Vec<$t> {
            fn words(&self) -> usize {
                self.len()
            }
        }

        impl WirePayload for Vec<$t> {
            fn encode(&self, buf: &mut Vec<u8>) {
                encode_scalar_vec(buf, self);
            }
            fn decode(r: &mut WireReader<'_>) -> Self {
                let n = r.read_len();
                r.scalars(n).collect()
            }
        }
    )*};
}

impl_scalar_vec!(f64, u64, u32, usize);

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn words(&self) -> usize {
        self.0.words() + self.1.words()
    }
}

impl<A: WirePayload, B: WirePayload> WirePayload for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        let a = A::decode(r);
        let b = B::decode(r);
        (a, b)
    }
}

/// Raw byte buffers (values in flight between the launcher's
/// processes). Words round up: the α-β model has no sub-word unit.
impl Payload for Vec<u8> {
    fn words(&self) -> usize {
        self.len().div_ceil(8)
    }
}

impl WirePayload for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.reserve(8 + self.len());
        buf.extend_from_slice(&(self.len() as u64).to_le_bytes());
        buf.extend_from_slice(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        let n = r.read_len();
        r.bytes(n).to_vec()
    }
}

/// UTF-8 text (diagnostics, labels). Words round up like raw bytes.
impl Payload for String {
    fn words(&self) -> usize {
        self.len().div_ceil(8)
    }
}

impl WirePayload for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u64).to_le_bytes());
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        let n = r.read_len();
        String::from_utf8(r.bytes(n).to_vec()).expect("wire string is not UTF-8")
    }
}

/// Vectors of composite wire values (e.g. the `Vec<Vec<f64>>` an
/// all-gather returns). Concrete instantiations rather than a blanket
/// `Vec<T: WirePayload>` impl, which would conflict with the optimized
/// scalar-vector encodings above.
macro_rules! impl_wire_vec {
    ($($inner:ty),* $(,)?) => {$(
        impl Payload for Vec<$inner> {
            fn words(&self) -> usize {
                self.iter().map(Payload::words).sum()
            }
        }

        impl WirePayload for Vec<$inner> {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&(self.len() as u64).to_le_bytes());
                for v in self {
                    v.encode(buf);
                }
            }
            fn decode(r: &mut WireReader<'_>) -> Self {
                // Every inner type below opens with at least one
                // 8-byte field.
                let n = r.read_count(8);
                (0..n).map(|_| <$inner>::decode(r)).collect()
            }
        }
    )*};
}

impl_wire_vec!(
    Vec<f64>,
    Vec<u32>,
    Vec<u64>,
    Vec<usize>,
    (u64, u64),
    (f64, f64),
    (usize, f64),
    (u64, bool, String),
    (Vec<u32>, Vec<u32>, Vec<f64>),
    (Vec<usize>, Vec<usize>, Vec<f64>),
);

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn words(&self) -> usize {
        self.0.words() + self.1.words() + self.2.words()
    }
}

impl<A: WirePayload, B: WirePayload, C: WirePayload> WirePayload for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        let a = A::decode(r);
        let b = B::decode(r);
        let c = C::decode(r);
        (a, b, c)
    }
}

/// Wider tuples: multi-quantity results crossing process boundaries
/// under the socket launcher (integration tests return these).
macro_rules! impl_wire_tuple {
    ($($name:ident),+) => {
        impl<$($name: Payload),+> Payload for ($($name,)+) {
            fn words(&self) -> usize {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                0 $(+ $name.words())+
            }
        }

        impl<$($name: WirePayload),+> WirePayload for ($($name,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.encode(buf);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Self {
                ($($name::decode(r),)+)
            }
        }
    };
}

impl_wire_tuple!(A, B, C, D);
impl_wire_tuple!(A, B, C, D, E);
impl_wire_tuple!(A, B, C, D, E, F);
impl_wire_tuple!(A, B, C, D, E, F, G);
impl_wire_tuple!(A, B, C, D, E, F, G, H);

impl<T: Payload> Payload for Option<T> {
    fn words(&self) -> usize {
        self.as_ref().map_or(0, Payload::words)
    }
}

impl<T: WirePayload> WirePayload for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.u8() {
            0 => None,
            _ => Some(T::decode(r)),
        }
    }
}

impl<T: Payload> Payload for Box<T> {
    fn words(&self) -> usize {
        (**self).words()
    }
}

impl<T: WirePayload> WirePayload for Box<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        Box::new(T::decode(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WirePayload + PartialEq + std::fmt::Debug + Clone>(v: T) {
        let bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes), v);
    }

    #[test]
    fn scalar_words() {
        assert_eq!(().words(), 0);
        assert_eq!(1u64.words(), 1);
        assert_eq!(1.5f64.words(), 1);
        assert_eq!(true.words(), 1);
    }

    #[test]
    fn vector_words_equal_length() {
        assert_eq!(vec![0.0f64; 17].words(), 17);
        assert_eq!(vec![0u32; 9].words(), 9);
    }

    #[test]
    fn composite_words_sum() {
        let coo_like = (vec![0u32; 5], vec![0u32; 5], vec![0.0f64; 5]);
        assert_eq!(coo_like.words(), 15);
        assert_eq!(Some(vec![1.0f64; 3]).words(), 3);
        assert_eq!(None::<Vec<f64>>.words(), 0);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(());
        roundtrip(true);
        roundtrip(false);
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(42usize);
        roundtrip(-1234.5678f64);
        roundtrip(f64::MIN_POSITIVE);
    }

    /// R-value vectors are plain `Vec<f64>`; empty and single-element
    /// vectors are the edge cases the collectives actually produce
    /// (zero-width r-slices, scalar all-reduces).
    #[test]
    fn r_value_vectors_roundtrip() {
        roundtrip(Vec::<f64>::new());
        roundtrip(vec![3.25f64]);
        roundtrip((0..100).map(|i| i as f64 * 0.5 - 25.0).collect::<Vec<_>>());
    }

    #[test]
    fn index_vectors_roundtrip() {
        roundtrip(Vec::<u32>::new());
        roundtrip(vec![7u32]);
        roundtrip(vec![0u32, u32::MAX, 12345]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![u64::MAX]);
        roundtrip(Vec::<usize>::new());
        roundtrip(vec![0usize, 1, usize::MAX]);
    }

    #[test]
    fn composites_roundtrip() {
        roundtrip((vec![1u32, 2], vec![9.0f64]));
        roundtrip((vec![1u32], vec![2u32], vec![3.0f64]));
        roundtrip(Some(vec![1.0f64, 2.0]));
        roundtrip(None::<Vec<f64>>);
        roundtrip(Box::new(vec![4.0f64; 4]));
    }

    #[test]
    fn nan_survives_bit_exact() {
        let v = vec![f64::NAN, f64::INFINITY, -0.0];
        let bytes = v.to_wire();
        let back = Vec::<f64>::from_wire(&bytes);
        assert!(back[0].is_nan());
        assert_eq!(back[1], f64::INFINITY);
        assert!(back[2] == 0.0 && back[2].is_sign_negative());
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn trailing_bytes_are_rejected() {
        let bytes = vec![5.0f64, 6.0].to_wire();
        let _ = f64::from_wire(&bytes);
    }

    /// A corrupt count must fail the documented way — the underrun
    /// panic — *before* any allocation is sized by it. Each buffer
    /// claims 2⁶⁰ elements and then ends.
    #[test]
    fn absurd_counts_underrun_before_allocating() {
        fn bomb<T: WirePayload>() {
            let mut bytes = (1u64 << 60).to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 16]);
            let err = std::panic::catch_unwind(|| drop(T::from_wire(&bytes)))
                .expect_err("a 2^60-element claim cannot decode");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("wire decode underrun"),
                "{}: expected the underrun diagnostic, got {msg:?}",
                std::any::type_name::<T>()
            );
        }
        bomb::<Vec<f64>>();
        bomb::<Vec<u64>>();
        bomb::<Vec<u32>>();
        bomb::<Vec<usize>>();
        bomb::<Vec<u8>>();
        bomb::<String>();
        bomb::<Vec<Vec<f64>>>();
        bomb::<Vec<(u64, u64)>>();
        bomb::<Vec<(Vec<u32>, Vec<u32>, Vec<f64>)>>();
    }

    #[test]
    #[should_panic(expected = "underrun")]
    fn truncated_buffer_is_rejected() {
        let mut bytes = vec![5.0f64, 6.0].to_wire();
        bytes.truncate(bytes.len() - 3);
        let _ = Vec::<f64>::from_wire(&bytes);
    }
}
