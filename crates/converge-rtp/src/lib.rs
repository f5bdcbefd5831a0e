//! # converge-rtp
//!
//! RTP/RTCP wire formats for the Converge (SIGCOMM 2023) reproduction:
//!
//! - [`packet`]: RTP packets (RFC 3550 fixed header) with typed payload
//!   types for media, FEC, retransmissions, and path probes.
//! - [`extension`]: the Converge multipath RTP header extension — path ID,
//!   per-path sequence, per-path transport sequence (paper Fig. 18).
//! - [`rtcp`]: SR/RR/SDES/NACK/PLI plus the Converge additions — a path ID
//!   on every report (Fig. 19), an expected-frame-rate SDES item, and the
//!   QoE feedback message `(path_id, alpha, FCD)` of paper section 4.2.
//! - [`fec`]: the XOR repair codec (ULPFEC-style single-loss recovery) that
//!   both WebRTC's table-driven FEC and Converge's path-specific FEC
//!   controller generate packets with.
//!
//! All formats serialize to real wire bytes and parse back; the simulator
//! exchanges the typed forms, while serialization is exercised by tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod extension;
pub mod fec;
pub mod packet;
pub mod rtcp;

pub use extension::MultipathExtension;
pub use fec::FecGroup;
pub use packet::{ParseError, PayloadType, RtpPacket};
pub use rtcp::{
    Nack, Pli, QoeFeedback, ReceiverReport, ReportBlock, RtcpPacket, Sdes, SenderReport,
    TransportFeedback,
};
