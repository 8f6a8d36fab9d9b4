//! # nni-linalg
//!
//! Small, dependency-free dense linear algebra kernel for the network
//! neutrality inference library.
//!
//! The inference theory (Zhang, Mara, Argyraki — *Network Neutrality
//! Inference*, SIGCOMM 2014) reasons entirely in terms of linear systems
//! `y = A(Θ) · x` built from generalized routing matrices:
//!
//! * **Lemma 1 / Definition 1** — a network's neutrality violation is
//!   *observable* when some system is **unsolvable**; consistency checking is
//!   [`solve::analyze`] (Rouché–Capelli via RREF, [`elim::rref`]).
//! * **Theorem 1** — observability reduces to a *column-space membership*
//!   question for virtual links: [`elim::in_column_space`].
//! * **§6.2** — with noisy measurements "no system has a perfect solution";
//!   the graded unsolvability signal is the least-squares residual,
//!   [`qr::lstsq`] / [`qr::residual`].
//!
//! All tolerances are explicit; exact-mode callers use
//! [`elim::default_tolerance`], measurement-mode callers derive a tolerance
//! from their noise floor.

pub mod elim;
pub mod matrix;
pub mod qr;
pub mod solve;

pub use elim::{default_tolerance, in_column_space, rank, rank_default, rref, Echelon};
pub use matrix::{dot, max_abs, norm2, Matrix};
pub use qr::{lstsq, residual, Qr};
pub use solve::{analyze, is_solvable, Solvability};
