//! # nni-stats
//!
//! Statistics support for neutrality inference:
//!
//! * [`describe`] — quantiles and the five-number summaries behind
//!   Figure 10's boxplots.
//! * [`cluster`] — the "standard clustering" of §6.2: exact 1-D two-means
//!   over slice-system unsolvability scores, with an explicit
//!   [`cluster::SeparationGuard`] so that pure noise never splits (the paper
//!   reports zero false positives; the guard is what makes that reproducible).
//! * [`dist`] — Pareto flow sizes and exponential think times for the
//!   dynamic traffic model of §6.1.

pub mod cluster;
pub mod describe;
pub mod dist;

pub use cluster::{two_means, SeparationGuard, TwoClusters};
pub use describe::{median, quantile, FiveNumber};
pub use dist::{Exponential, Pareto};
