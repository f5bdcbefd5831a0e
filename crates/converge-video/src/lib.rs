//! # converge-video
//!
//! The video pipeline model for the Converge (SIGCOMM 2023) reproduction:
//!
//! - [`types`]: streams, frames, and the structured video packets the
//!   multipath scheduler moves between paths.
//! - [`codec`]: a GOP-structured encoder model producing keyframes and
//!   delta frames sized by a rate-distortion model.
//! - [`packetize`]: frames into MTU-sized media packets plus PPS (per
//!   frame) and SPS (per GOP) control packets.
//! - [`packet_buffer`] / [`frame_buffer`]: the receiver's two bounded
//!   buffers from paper section 2.1, including frame-construction-delay
//!   (FCD) and inter-frame-delay (IFD) measurement, eviction under
//!   pressure, decode dependency enforcement, and keyframe requests.
//! - [`quality`]: QP <-> bitrate <-> PSNR models used to report the
//!   image-quality metrics of the evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod frame_buffer;
pub mod packet_buffer;
pub mod packetize;
pub mod quality;
pub mod types;

pub use codec::{EncoderConfig, VideoEncoder};
pub use frame_buffer::{DropReason, FrameBuffer, FrameBufferEvent};
pub use packet_buffer::{PacketBuffer, PacketBufferEvent};
pub use packetize::{PacketizedFrame, Packetizer, PacketizerConfig};
pub use quality::{effective_psnr, psnr_for_bitrate, qp_for_bitrate, VideoFormat};
pub use types::{CompleteFrame, EncodedFrame, FrameType, PacketKind, StreamId, VideoPacket};
