//! # `baselines` — the comparison methods of Table IV
//!
//! The paper compares its stacked-LSTM gesture classifier against two
//! kinematics-only state-of-the-art methods:
//!
//! * **SC-CRF** (Lea et al. \[44\]) — a skip-chain conditional random field
//!   ([`sccrf::ScCrf`]),
//! * **SDSDL** (Sefati et al. \[45\]) — shared discriminative sparse
//!   dictionary learning with a multi-class linear SVM ([`sdsdl::Sdsdl`]).
//!
//! Both consume per-frame kinematics and emit per-frame gesture labels, so
//! they drop into the same LOSO evaluation as the LSTM classifier. (The
//! third baseline of the paper — the non-context-specific error detector —
//! lives in `context-monitor` as `ContextMode::NoContext`.)

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // indexed loops mirror the math in numeric kernels

pub mod scaler;
pub mod sccrf;
pub mod sdsdl;
pub mod svm;

pub use scaler::Scaler;
pub use sccrf::{ScCrf, ScCrfConfig};
pub use sdsdl::{Sdsdl, SdsdlConfig};
pub use svm::{LinearSvm, SvmConfig};
