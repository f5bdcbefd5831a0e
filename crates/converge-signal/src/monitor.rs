//! Connection status monitoring (paper §5).
//!
//! "To prevent disruptions between Converge's multipath management and
//! WebRTC's existing connection migration (CM), we added a wrapper to
//! monitor the connection status and synchronize it with the WebRTC
//! connection management system." This module is that wrapper: it tracks
//! per-path liveness from packet arrivals and consent-style keepalives,
//! debounces transitions, and emits events the session layer uses to mark
//! paths up or down at the transport level (distinct from the *scheduler's*
//! feedback-driven disablement, which is a QoE decision about live paths).

use std::collections::BTreeMap;

use converge_net::{PathId, SimDuration, SimTime};
use converge_trace::{TraceEvent, TraceHandle};

/// Liveness state of one path: `Up` (connectivity confirmed recently),
/// `Suspect` (nothing heard for a while) or `Down` (declared dead; WebRTC
/// CM would tear down / re-establish here). The trace's link state, so
/// the monitor's transitions are traced as they are.
pub use converge_trace::LinkState as PathState;

/// A state-change event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEvent {
    /// The path whose state changed.
    pub path: PathId,
    /// The new state.
    pub state: PathState,
    /// When the transition was declared.
    pub at: SimTime,
}

/// Silence after which a path becomes suspect.
const SUSPECT_AFTER: SimDuration = SimDuration::from_millis(1_500);
/// Silence after which a suspect path is declared down.
const DOWN_AFTER: SimDuration = SimDuration::from_secs(5);

/// Per-path connection monitor.
#[derive(Debug)]
pub struct ConnectionMonitor {
    paths: BTreeMap<PathId, PathRecord>,
    trace: TraceHandle,
}

#[derive(Debug, Clone, Copy)]
struct PathRecord {
    state: PathState,
    last_heard: SimTime,
}

impl ConnectionMonitor {
    /// Creates a monitor over the given paths, all initially up at t=0.
    pub fn new(paths: &[PathId]) -> Self {
        ConnectionMonitor {
            paths: paths
                .iter()
                .map(|&p| {
                    (
                        p,
                        PathRecord {
                            state: PathState::Up,
                            last_heard: SimTime::ZERO,
                        },
                    )
                })
                .collect(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Installs a trace handle; the monitor then emits a
    /// [`TraceEvent::MonitorEdge`] per state transition.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Current state of a path.
    pub fn state(&self, path: PathId) -> Option<PathState> {
        self.paths.get(&path).map(|r| r.state)
    }

    /// Paths currently considered usable (up or suspect — suspect paths
    /// still carry traffic while being probed, as WebRTC does during
    /// consent-freshness checks).
    pub fn usable_paths(&self) -> Vec<PathId> {
        self.paths
            .iter()
            .filter(|(_, r)| r.state != PathState::Down)
            .map(|(&p, _)| p)
            .collect()
    }

    /// Records that anything (media, RTCP, probe echo) arrived via `path`.
    /// Returns an event if this resurrects a suspect/down path.
    pub fn on_activity(&mut self, now: SimTime, path: PathId) -> Option<PathEvent> {
        let rec = self.paths.get_mut(&path)?;
        rec.last_heard = now;
        if rec.state != PathState::Up {
            rec.state = PathState::Up;
            self.trace.emit(
                now,
                TraceEvent::MonitorEdge {
                    path,
                    state: PathState::Up,
                },
            );
            return Some(PathEvent {
                path,
                state: PathState::Up,
                at: now,
            });
        }
        None
    }

    /// Advances the timers; returns transitions that fired.
    pub fn poll(&mut self, now: SimTime) -> Vec<PathEvent> {
        let mut events = Vec::new();
        for (&path, rec) in self.paths.iter_mut() {
            let silence = now.saturating_since(rec.last_heard);
            let next = if silence >= DOWN_AFTER {
                PathState::Down
            } else if silence >= SUSPECT_AFTER {
                PathState::Suspect
            } else {
                PathState::Up
            };
            // Only monotone degradations happen here; recovery goes through
            // `on_activity`.
            let degrade = matches!(
                (rec.state, next),
                (PathState::Up, PathState::Suspect)
                    | (PathState::Up, PathState::Down)
                    | (PathState::Suspect, PathState::Down)
            );
            if degrade {
                rec.state = next;
                self.trace
                    .emit(now, TraceEvent::MonitorEdge { path, state: next });
                events.push(PathEvent {
                    path,
                    state: next,
                    at: now,
                });
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: PathId = PathId(0);
    const P1: PathId = PathId(1);

    fn monitor() -> ConnectionMonitor {
        ConnectionMonitor::new(&[P0, P1])
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn starts_up() {
        let m = monitor();
        assert_eq!(m.state(P0), Some(PathState::Up));
        assert_eq!(m.usable_paths(), vec![P0, P1]);
    }

    #[test]
    fn silence_degrades_to_suspect_then_down() {
        let mut m = monitor();
        m.on_activity(t(0), P0);
        m.on_activity(t(0), P1);
        // Keep P0 alive; let P1 go silent.
        m.on_activity(t(2_000), P0);
        let evs = m.poll(t(2_000));
        assert_eq!(
            evs,
            vec![PathEvent {
                path: P1,
                state: PathState::Suspect,
                at: t(2_000)
            }]
        );
        assert_eq!(m.usable_paths(), vec![P0, P1], "suspect still usable");
        m.on_activity(t(5_500), P0);
        let evs = m.poll(t(5_500));
        assert_eq!(
            evs,
            vec![PathEvent {
                path: P1,
                state: PathState::Down,
                at: t(5_500)
            }]
        );
        assert_eq!(m.usable_paths(), vec![P0]);
    }

    #[test]
    fn activity_resurrects_path() {
        let mut m = monitor();
        m.poll(t(10_000)); // both go down
        assert!(m.usable_paths().is_empty());
        let ev = m.on_activity(t(10_500), P1).expect("resurrection event");
        assert_eq!(ev.state, PathState::Up);
        assert_eq!(m.usable_paths(), vec![P1]);
    }

    #[test]
    fn steady_activity_emits_nothing() {
        let mut m = monitor();
        for ms in (0..10_000).step_by(500) {
            assert!(m.on_activity(t(ms), P0).is_none());
            assert!(m.on_activity(t(ms), P1).is_none());
            assert!(m.poll(t(ms)).is_empty());
        }
    }

    #[test]
    fn transitions_fire_once() {
        let mut m = monitor();
        assert_eq!(m.poll(t(2_000)).len(), 2); // both suspect
        assert!(m.poll(t(2_100)).is_empty(), "no repeat events");
        assert_eq!(m.poll(t(6_000)).len(), 2); // both down
        assert!(m.poll(t(7_000)).is_empty());
    }

    #[test]
    fn unknown_path_ignored() {
        let mut m = monitor();
        assert!(m.on_activity(t(0), PathId(9)).is_none());
        assert_eq!(m.state(PathId(9)), None);
    }
}
