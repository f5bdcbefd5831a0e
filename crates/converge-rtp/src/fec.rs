//! XOR-based forward error correction.
//!
//! WebRTC protects media with an XOR FEC scheme (ULPFEC/RFC 5109 family):
//! a repair packet is the XOR of a group of media packets and can recover
//! exactly one missing member of its group. Converge keeps the codec but
//! changes *how many* repair packets are generated and *where* they travel
//! (§4.3); this module provides the codec itself plus group assembly.

use bytes::{Bytes, BytesMut};

/// A group of media packets protected together, identified by the media
/// sequence numbers of its members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FecGroup {
    /// Media sequence numbers of the protected packets, ascending.
    pub protected: Vec<u16>,
    /// XOR of the protected payloads (padded to the longest).
    pub repair: Bytes,
    /// XOR of the protected payload lengths, to restore exact length.
    pub length_xor: u16,
}

/// XOR-accumulates `src` into the front of `acc`; `acc` must be at least
/// as long as `src`. A plain byte loop: LLVM vectorises it, and a
/// hand-chunked `u64` variant measured as a tie.
pub fn xor_into(acc: &mut [u8], src: &[u8]) {
    for (a, s) in acc.iter_mut().zip(src) {
        *a ^= s;
    }
}

/// Encodes repair packets over groups of media packets.
///
/// `encode_groups(packets, n_repair)` splits `packets` into `n_repair`
/// contiguous groups (sizes as equal as possible) and produces one repair
/// per group — the strategy WebRTC's "random"/bursty mask tables reduce to
/// for single-loss protection.
pub fn encode_groups(packets: &[(u16, Bytes)], n_repair: usize) -> Vec<FecGroup> {
    if packets.is_empty() || n_repair == 0 {
        return Vec::new();
    }
    let n_repair = n_repair.min(packets.len());
    let base = packets.len() / n_repair;
    let extra = packets.len() % n_repair;
    let mut groups = Vec::with_capacity(n_repair);
    let mut idx = 0;
    for g in 0..n_repair {
        let size = base + usize::from(g < extra);
        let members = &packets[idx..idx + size];
        idx += size;
        groups.push(encode_one(members));
    }
    groups
}

/// Encodes a single repair packet protecting all of `members`.
pub fn encode_one(members: &[(u16, Bytes)]) -> FecGroup {
    let max_len = members.iter().map(|(_, p)| p.len()).max().unwrap_or(0);
    let mut repair = vec![0u8; max_len];
    let mut length_xor = 0u16;
    let mut protected = Vec::with_capacity(members.len());
    for (seq, payload) in members {
        protected.push(*seq);
        length_xor ^= payload.len() as u16;
        xor_into(&mut repair, payload);
    }
    protected.sort_unstable();
    FecGroup {
        protected,
        repair: Bytes::from(repair),
        length_xor,
    }
}

/// Attempts to recover one missing packet from a group.
///
/// `received` maps sequence number → payload for the group members that
/// arrived. Returns `Some((seq, payload))` when exactly one member is
/// missing; `None` when zero (nothing to do) or more than one (XOR cannot
/// recover multiple losses) are missing.
pub fn recover(group: &FecGroup, received: &[(u16, Bytes)]) -> Option<(u16, Bytes)> {
    let missing: Vec<u16> = group
        .protected
        .iter()
        .copied()
        .filter(|seq| !received.iter().any(|(s, _)| s == seq))
        .collect();
    if missing.len() != 1 {
        return None;
    }
    let missing_seq = missing[0];

    let mut payload = group.repair.to_vec();
    let mut length = group.length_xor;
    for (seq, p) in received {
        if !group.protected.contains(seq) {
            continue;
        }
        length ^= p.len() as u16;
        xor_into(&mut payload, p);
    }
    let length = length as usize;
    if length > payload.len() {
        return None; // inconsistent group; refuse to fabricate data
    }
    payload.truncate(length);
    Some((missing_seq, Bytes::from(payload)))
}

/// Convenience: builds `(seq, payload)` pairs from equally sized dummy
/// payloads — used by schedulers that only care about packet counts.
pub fn dummy_payloads(seqs: &[u16], size: usize) -> Vec<(u16, Bytes)> {
    seqs.iter()
        .map(|&s| {
            let mut b = BytesMut::zeroed(size);
            // Make each payload distinct so XOR tests are meaningful.
            if size >= 2 {
                b[0] = (s >> 8) as u8;
                b[1] = s as u8;
            }
            (s, b.freeze())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn media(n: usize) -> Vec<(u16, Bytes)> {
        (0..n as u16)
            .map(|s| {
                let payload: Vec<u8> = (0..(100 + s as usize % 40))
                    .map(|i| (i as u8).wrapping_mul(s as u8 + 1))
                    .collect();
                (s, Bytes::from(payload))
            })
            .collect()
    }

    #[test]
    fn recovers_any_single_loss() {
        let pkts = media(5);
        let group = encode_one(&pkts);
        for missing in 0..pkts.len() {
            let received: Vec<_> = pkts
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != missing)
                .map(|(_, p)| p.clone())
                .collect();
            let (seq, payload) = recover(&group, &received).expect("should recover");
            assert_eq!(seq, pkts[missing].0);
            assert_eq!(payload, pkts[missing].1);
        }
    }

    #[test]
    fn recovers_with_unequal_lengths() {
        let pkts = vec![
            (0u16, Bytes::from_static(b"short")),
            (1u16, Bytes::from_static(b"a much longer payload here")),
            (2u16, Bytes::from_static(b"mid length one")),
        ];
        let group = encode_one(&pkts);
        let received = vec![pkts[0].clone(), pkts[2].clone()];
        let (seq, payload) = recover(&group, &received).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(payload, pkts[1].1);
    }

    #[test]
    fn no_loss_returns_none() {
        let pkts = media(4);
        let group = encode_one(&pkts);
        assert!(recover(&group, &pkts).is_none());
    }

    #[test]
    fn double_loss_unrecoverable() {
        let pkts = media(4);
        let group = encode_one(&pkts);
        let received = vec![pkts[0].clone(), pkts[1].clone()];
        assert!(recover(&group, &received).is_none());
    }

    #[test]
    fn foreign_packets_ignored_during_recovery() {
        let pkts = media(3);
        let group = encode_one(&pkts);
        let mut received = vec![pkts[0].clone(), pkts[2].clone()];
        received.push((999, Bytes::from_static(b"not in group")));
        let (seq, payload) = recover(&group, &received).unwrap();
        assert_eq!(seq, pkts[1].0);
        assert_eq!(payload, pkts[1].1);
    }

    #[test]
    fn encode_groups_splits_evenly() {
        let pkts = media(10);
        let groups = encode_groups(&pkts, 3);
        assert_eq!(groups.len(), 3);
        let sizes: Vec<usize> = groups.iter().map(|g| g.protected.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        // Every packet protected exactly once.
        let mut all: Vec<u16> = groups.iter().flat_map(|g| g.protected.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<u16>>());
    }

    #[test]
    fn encode_groups_caps_repair_count() {
        let pkts = media(2);
        let groups = encode_groups(&pkts, 10);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn encode_groups_empty_inputs() {
        assert!(encode_groups(&[], 3).is_empty());
        assert!(encode_groups(&media(3), 0).is_empty());
    }

    #[test]
    fn single_member_group_recovers_trivially() {
        let pkts = media(1);
        let group = encode_one(&pkts);
        let (seq, payload) = recover(&group, &[]).unwrap();
        assert_eq!(seq, pkts[0].0);
        assert_eq!(payload, pkts[0].1);
    }

    /// Whole-codec check: encoded groups recover random unequal-length
    /// payloads (every remainder length the XOR loop can see).
    #[test]
    fn chunked_encode_recovers_random_payloads() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        for round in 0..50 {
            let n = rng.gen_range(1..=12usize);
            let pkts: Vec<(u16, Bytes)> = (0..n as u16)
                .map(|s| {
                    let len = rng.gen_range(0..1300usize);
                    let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                    (s, Bytes::from(payload))
                })
                .collect();
            let group = encode_one(&pkts);
            let missing = rng.gen_range(0..n);
            let received: Vec<_> = pkts
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != missing)
                .map(|(_, p)| p.clone())
                .collect();
            let (seq, payload) = recover(&group, &received)
                .unwrap_or_else(|| panic!("round {round}: single loss must recover"));
            assert_eq!(seq, pkts[missing].0);
            assert_eq!(payload, pkts[missing].1, "round {round} payload mismatch");
        }
    }

    #[test]
    fn dummy_payloads_distinct() {
        let d = dummy_payloads(&[1, 2, 3], 10);
        assert_eq!(d.len(), 3);
        assert_ne!(d[0].1, d[1].1);
        assert!(d.iter().all(|(_, p)| p.len() == 10));
    }
}
