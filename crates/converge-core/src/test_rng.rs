//! The seeded generator the crate's differential tests draw from
//! (splitmix64; the crate has no `rand` dependency to borrow one from).

pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform enough for test inputs: `next() % n`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
