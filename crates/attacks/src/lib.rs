//! # dlk-attacks — adversarial DNN weight attacks
//!
//! The two threat models of the DRAM-Locker paper (§III):
//!
//! - [`bfa`]: the **Bit-Flip Attack** — progressive bit search (Rakin
//!   et al., ICCV 2019). Each iteration ranks weight bits by their
//!   gradient-weighted impact, trials the top candidates, and keeps the
//!   flip that maximizes loss. A handful of flips crushes a quantized
//!   network to chance accuracy;
//! - [`random`]: the random-flip baseline of Fig. 1(a) — uniformly
//!   random bit flips degrade accuracy orders of magnitude more slowly;
//! - [`hammer`]: the physical layer — drives double-sided RowHammer
//!   through the memory controller to realize a chosen bit flip in a
//!   DRAM-resident weight image, and reports when a defense denies the
//!   aggressor accesses;
//! - [`pta`]: the **Page Table Attack** — flips a PFN bit in the
//!   victim's DRAM-resident PTE so a weight page silently resolves to
//!   an attacker-controlled frame.
//!
//! The searches pick flips; a scenario (`dlk_sim::AttackSpec`) lands
//! them in the DRAM-resident weight image and records the accuracy
//! curve.

pub mod bfa;
pub mod hammer;
pub mod pta;
pub mod random;

pub use crate::bfa::{BfaConfig, BitSearch};
pub use crate::hammer::{HammerConfig, HammerDriver, HammerOutcome};
pub use crate::pta::{PtaAttack, PtaConfig, PtaOutcome};
pub use crate::random::RandomAttack;
