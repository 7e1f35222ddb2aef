//! Wire-format golden test: the bulk encoders must produce exactly the
//! bytes of the element-at-a-time layout they replaced — a `u64` count,
//! then each element little-endian, one after the other. The reference
//! encoder below *is* that layout, written the slow way; it stays in
//! the test so the format has an executable definition that does not
//! share code with the implementation.
//!
//! Lengths straddle the encoder's staging block (one element under, on,
//! and over it), where an off-by-one in the block loop would drop or
//! duplicate an element; values include the bit patterns a
//! value-preserving-but-not-bit-preserving copy would lose.

use dsk_comm::payload::ENCODE_BLOCK_BYTES;
use dsk_comm::{RowBundle, RowSet, WirePayload};

/// Element-at-a-time reference: `u64` count, then `put` per element.
fn reference<T: Copy>(xs: &[T], put: impl Fn(T, &mut Vec<u8>)) -> Vec<u8> {
    let mut buf = (xs.len() as u64).to_le_bytes().to_vec();
    for &x in xs {
        put(x, &mut buf);
    }
    buf
}

fn put_f64(x: f64, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&x.to_bits().to_le_bytes());
}

fn put_u32(x: u32, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(x: u64, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// 0, 1, and one under / on / over the staging block of an element of
/// `size` bytes — plus two blocks and a ragged tail.
fn lengths(size: usize) -> Vec<usize> {
    let block = ENCODE_BLOCK_BYTES / size;
    vec![0, 1, block - 1, block, block + 1, 2 * block + 3]
}

/// Values whose bits a lossy copy would change: both zeros, a quiet and
/// a payload-carrying NaN, infinities, a subnormal.
fn tricky_f64(i: usize) -> f64 {
    const BITS: [u64; 8] = [
        0x0000_0000_0000_0000, // +0.0
        0x8000_0000_0000_0000, // -0.0
        0x7FF8_0000_0000_0000, // quiet NaN
        0x7FF0_0000_DEAD_BEEF, // signalling NaN with a payload
        0xFFF8_0000_0000_0001, // negative NaN with a payload
        0x7FF0_0000_0000_0000, // +inf
        0x0000_0000_0000_0001, // smallest subnormal
        0x400921FB54442D18,    // pi
    ];
    f64::from_bits(BITS[i % BITS.len()] ^ ((i / BITS.len()) as u64))
}

/// Encode matches the reference, and decoding the reference bytes
/// re-encodes to them (bitwise round trip, NaN payloads included).
fn check<T: WirePayload>(value: &T, golden: &[u8], what: &str) {
    assert_eq!(value.to_wire(), golden, "{what}: encoded bytes");
    assert_eq!(
        T::from_wire(golden).to_wire(),
        golden,
        "{what}: decode → encode"
    );
}

#[test]
fn scalar_vectors_match_the_per_element_layout() {
    for n in lengths(8) {
        let v: Vec<f64> = (0..n).map(tricky_f64).collect();
        check(&v, &reference(&v, put_f64), &format!("Vec<f64>[{n}]"));

        let v: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        check(&v, &reference(&v, put_u64), &format!("Vec<u64>[{n}]"));

        let v: Vec<usize> = (0..n).map(|i| usize::MAX - i).collect();
        let golden = reference(&v, |x, buf| put_u64(x as u64, buf));
        check(&v, &golden, &format!("Vec<usize>[{n}]"));
    }
    for n in lengths(4) {
        let v: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        check(&v, &reference(&v, put_u32), &format!("Vec<u32>[{n}]"));
    }
}

/// `nrows u64 · ncols u64 · Option<Vec<u32>> rows · Vec<f64> data`.
fn reference_bundle(nrows: usize, ncols: usize, rows: Option<&[u32]>, data: &[f64]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(nrows as u64, &mut buf);
    put_u64(ncols as u64, &mut buf);
    match rows {
        None => buf.push(0),
        Some(rows) => {
            buf.push(1);
            buf.extend_from_slice(&reference(rows, put_u32));
        }
    }
    buf.extend_from_slice(&reference(data, put_f64));
    buf
}

#[test]
fn row_bundles_match_the_per_element_layout() {
    // Dense bundles: an n × 1 tile, so the data array has n elements.
    for n in lengths(8) {
        let data: Vec<f64> = (0..n).map(tricky_f64).collect();
        let bundle = RowBundle::dense(n, 1, data.clone());
        let golden = reference_bundle(n, 1, None, &data);
        check(&bundle, &golden, &format!("dense RowBundle[{n}]"));
    }
    // Indexed bundles: k of 2k+1 single-column rows (sparse enough that
    // `gather` keeps the indexed form), so both the u32 index array and
    // the f64 data array have k elements and each crosses its own block
    // boundary somewhere in the list.
    let mut ks = lengths(8);
    ks.extend(lengths(4));
    for k in ks {
        let nrows = 2 * k + 1;
        let tile: Vec<f64> = (0..nrows).map(tricky_f64).collect();
        let picked: Vec<u32> = (0..k as u32).map(|i| 2 * i).collect();
        let bundle = RowBundle::gather(nrows, 1, &tile, &RowSet::from_indices(picked.clone()));
        let data: Vec<f64> = picked.iter().map(|&r| tile[r as usize]).collect();
        let golden = reference_bundle(nrows, 1, Some(&picked), &data);
        check(&bundle, &golden, &format!("indexed RowBundle[{k}]"));
    }
}
