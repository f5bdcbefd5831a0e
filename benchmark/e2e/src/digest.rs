//! FNV-1a (64-bit) over report text: equal digests on parent and change
//! mean the change preserved behaviour, which is what a pure simulator
//! speed-up must show.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one string.
pub fn fnv1a(text: &str) -> u64 {
    let mut h = Fnv::default();
    h.update(text.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv::default();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a("foobar"));
    }
}
