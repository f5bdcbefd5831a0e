//! # converge-net
//!
//! Deterministic discrete-event multipath network emulation — the substrate
//! under the Converge (SIGCOMM 2023) reproduction. The paper evaluates on
//! emulated cellular paths driven by bandwidth traces; this crate provides
//! the same capability on one machine:
//!
//! - [`time`]: fixed-point microsecond simulation clock.
//! - [`event`]: deterministic FIFO-tie-breaking event queue.
//! - [`trace`]: piecewise-constant bandwidth traces + synthetic generators
//!   for the stationary / walking / driving scenarios of the paper's
//!   Figs. 20-22.
//! - [`drive`]: file-driven drive replay — non-uniform `t → (rate, OWD,
//!   loss)` captures with hold semantics, CSV/JSONL codecs.
//! - [`loss`]: Bernoulli and Gilbert-Elliott loss models.
//! - [`aqm`]: queue disciplines — drop-tail and CoDel controlled delay.
//! - [`link`]: one link direction — disciplined queue, trace-driven
//!   bottleneck, propagation delay, jitter, loss stage.
//! - [`impairment`]: composable per-direction fault injection — blackout /
//!   flap schedules, reordering, duplication, feedback loss and delay.
//! - [`path`]: bidirectional path with a stable [`path::PathId`].
//! - [`emulator`]: multipath emulator holding payloads in flight.
//! - [`timer`]: hierarchical timer wheel. Unused by the simulator since the
//!   fleet's ticks moved to an [`event::EventQueue`] (PR 22); kept as the
//!   reference of `tests/timer_queue_contract.rs` and for the benchmark's
//!   `timer.insert_pop_ns.*` kernels until those go (ROADMAP item 5).
//! - [`sfu`]: selective-forwarding-unit bottleneck node (fan-in/fan-out
//!   over a shared link pair, per-member downlink selection).
//!
//! Everything is seeded and synchronous: a run is a pure function of its
//! configuration, which is what makes the paper's experiments reproducible
//! bit-for-bit here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aqm;
pub mod arena;
pub mod drive;
pub mod emulator;
pub mod event;
pub mod impairment;
pub mod link;
pub mod loss;
pub mod path;
pub mod sfu;
pub mod time;
pub mod timer;
pub mod trace;

pub use aqm::{Codel, QueueDiscipline};
pub use arena::{Arena, SlotKey};
pub use drive::{DriveParseError, DriveSample, DriveTrace};
pub use emulator::{Delivery, NetworkEmulator, SendOutcome};
pub use impairment::{BlackoutSchedule, ImpairmentConfig};
pub use link::{Link, LinkConfig, LinkStats, Offer, Transmit};
pub use loss::{LossModel, LossProcess};
pub use path::{Direction, Path, PathId};
pub use sfu::{ForwardPacket, MemberId, SfuConfig, SfuNode, SfuStats};
pub use time::{SimDuration, SimTime};
pub use timer::{TimerWheel, TimerWheelStats};
pub use trace::{Carrier, RateTrace, Scenario};
