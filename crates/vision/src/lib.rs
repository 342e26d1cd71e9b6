//! # `vision` — virtual camera and classic-CV failure labeling
//!
//! Pure-Rust replacement for the Gazebo virtual camera + OpenCV pipeline of
//! §IV-B: a side-view orthographic camera ([`frame::VirtualCamera`]),
//! intensity thresholding, connected-component contours and centroid
//! tracking ([`cv`]), SSIM ([`ssim`](mod@ssim)), and the automated block-drop /
//! dropoff-failure labeling pipeline ([`labeling`]) that provides the
//! orthogonal ground truth for the fault-injection campaigns.

#![warn(missing_docs)]

pub mod cv;
pub mod frame;
pub mod labeling;
pub mod ssim;

pub use cv::{connected_components, threshold, track_brightest, Component, Mask};
pub use frame::{Frame, VirtualCamera};
pub use labeling::{
    centroid_trace, detect_drop_frame, label_trial, reference_trace, render_video, VisionConfig,
    VisionVerdict,
};
pub use ssim::{ssim, ssim_windowed};
