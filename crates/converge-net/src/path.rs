//! Bidirectional network paths.
//!
//! A [`Path`] is a pair of [`Link`]s — forward (sender→receiver) and reverse
//! (receiver→sender, used for RTCP feedback). Paths are the unit over which
//! the Converge scheduler makes decisions; each carries a stable [`PathId`].

use crate::link::{Link, LinkConfig, LinkStats, Offer};
use crate::time::SimTime;

/// Identifier of a network path within a session (matches the path ID field
/// of the paper's RTP/RTCP multipath header extensions). A session's paths
/// are `PathId(0)..PathId(n − 1)`, so an id is also the index of its path's
/// state in every per-path table.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct PathId(pub u8);

impl PathId {
    /// The index of this path's entry in a per-path table.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Panics, naming the first id out of place, unless `ids` run
    /// `PathId(0), PathId(1), …` in order.
    pub fn assert_indexed(ids: impl IntoIterator<Item = PathId>) {
        for (i, id) in ids.into_iter().enumerate() {
            assert!(
                id.index() == i,
                "{id} listed at index {i}: path ids must run 0..n in order"
            );
        }
    }
}

impl std::fmt::Display for PathId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "path{}", self.0)
    }
}

/// Direction of travel over a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Sender → receiver (media).
    Forward,
    /// Receiver → sender (feedback).
    Reverse,
}

/// A bidirectional emulated path.
#[derive(Debug, Clone)]
pub struct Path {
    id: PathId,
    forward: Link,
    reverse: Link,
}

impl Path {
    /// Creates a path from two link configurations.
    pub fn new(id: PathId, forward: LinkConfig, reverse: LinkConfig) -> Self {
        Path {
            id,
            forward: Link::new(forward),
            reverse: Link::new(reverse),
        }
    }

    /// Creates a path whose reverse direction mirrors the forward
    /// configuration but with an effectively uncongested queue — feedback
    /// traffic is tiny relative to media.
    pub fn symmetric(id: PathId, forward: LinkConfig) -> Self {
        let mut reverse = forward.clone();
        reverse.queue_capacity_bytes = reverse.queue_capacity_bytes.max(1_000_000);
        reverse.seed = forward.seed.wrapping_add(0x5EED);
        Path::new(id, forward, reverse)
    }

    /// This path's identifier.
    pub fn id(&self) -> PathId {
        self.id
    }

    /// Borrows the link for a direction.
    pub fn link(&self, dir: Direction) -> &Link {
        match dir {
            Direction::Forward => &self.forward,
            Direction::Reverse => &self.reverse,
        }
    }

    /// Mutably borrows the link for a direction.
    pub fn link_mut(&mut self, dir: Direction) -> &mut Link {
        match dir {
            Direction::Forward => &mut self.forward,
            Direction::Reverse => &mut self.reverse,
        }
    }

    /// Offers a packet to one direction of the path, including any
    /// impairment-injected duplicate.
    pub fn offer(&mut self, dir: Direction, now: SimTime, bytes: usize) -> Offer {
        self.link_mut(dir).offer(now, bytes)
    }

    /// Stats for one direction.
    pub fn stats(&self, dir: Direction) -> LinkStats {
        self.link(dir).stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::DriveTrace;
    use crate::link::Transmit;
    use crate::time::SimDuration;

    fn cfg(rate_bps: u64, prop_ms: u64) -> LinkConfig {
        LinkConfig {
            trace: DriveTrace::constant(rate_bps, SimDuration::from_millis(prop_ms)),
            queue_capacity_bytes: 1_000_000,
            loss: crate::loss::LossModel::None,
            jitter: SimDuration::ZERO,
            discipline: crate::aqm::QueueDiscipline::DropTail,
            seed: 9,
            impairment: crate::impairment::ImpairmentConfig::default(),
        }
    }

    #[test]
    fn directions_are_independent() {
        let mut p = Path::new(PathId(0), cfg(10_000_000, 10), cfg(1_000_000, 10));
        let f = p.offer(Direction::Forward, SimTime::ZERO, 1250).fate;
        let r = p.offer(Direction::Reverse, SimTime::ZERO, 1250).fate;
        // Forward: 1 ms serialize + 10 ms prop; reverse: 10 ms serialize + 10 ms prop.
        assert_eq!(f, Transmit::Delivered(SimTime::from_millis(11)));
        assert_eq!(r, Transmit::Delivered(SimTime::from_millis(20)));
    }

    #[test]
    fn symmetric_path_keeps_forward_rate() {
        let mut p = Path::symmetric(PathId(2), cfg(10_000_000, 5));
        assert_eq!(
            p.link(Direction::Reverse)
                .config()
                .trace
                .rate_at(SimTime::ZERO),
            10_000_000
        );
        // Different seeds on each direction keep loss draws independent.
        let f = p.link_mut(Direction::Forward).config().seed;
        let r = p.link_mut(Direction::Reverse).config().seed;
        assert_ne!(f, r);
    }

    #[test]
    fn path_id_displays() {
        assert_eq!(PathId(3).to_string(), "path3");
    }
}
