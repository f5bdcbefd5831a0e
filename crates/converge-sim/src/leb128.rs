//! Unsigned LEB128, the one codec of the crate's packed logs: seven bits a
//! byte, low bits first, the top bit set on every byte but a number's last.
//! A finished report's series ([`E2eSamples`](crate::metrics::E2eSamples),
//! [`SecondBins`](crate::metrics::SecondBins),
//! [`PathSeries`](crate::metrics::PathSeries)) live as long as a sweep's
//! memo cache, and the sender's frame log as long as a call; most of what
//! they keep is small counts in wide fields.

/// The encoded length of `v`: one byte per started seven bits, one for 0.
pub(crate) fn len(v: u64) -> usize {
    (u64::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

/// Writes `v` at the front of `out` and returns the bytes it took.
///
/// # Panics
/// Panics if `out` is shorter than [`len`]`(v)`.
pub(crate) fn write(mut v: u64, out: &mut [u8]) -> usize {
    let mut at = 0;
    while v >= 0x80 {
        out[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    out[at] = v as u8;
    at + 1
}

/// Encodes the numbers `values()` yields, back to back, into one
/// allocation of exactly their encoded length: it counts the bytes on a
/// first pass and writes them on a second.
pub(crate) fn pack<I: Iterator<Item = u64>>(values: impl Fn() -> I) -> Box<[u8]> {
    let mut bytes = vec![0; values().map(len).sum()].into_boxed_slice();
    let mut at = 0;
    for v in values() {
        at += write(v, &mut bytes[at..]);
    }
    debug_assert_eq!(at, bytes.len());
    bytes
}

/// Reads the next number off `bytes`; `None` once they are used up.
pub(crate) fn read(bytes: &mut std::slice::Iter<'_, u8>) -> Option<u64> {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let byte = *bytes.next()?;
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return Some(v);
        }
        shift += 7;
    }
}

/// `v` folded onto the unsigned numbers so that a small magnitude either
/// side of zero stays small: 0, −1, 1, −2, … become 0, 1, 2, 3, ….
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}
