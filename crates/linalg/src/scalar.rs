//! The storage precision of the solver chain's per-application kernels.
//!
//! The chain's W-cycle is one algorithm at either precision (DESIGN.md
//! §2.7): the fused Chebyshev sweep ([`crate::permuted`]), the sparse
//! bottom solve ([`crate::sparse_ldl`]), the componentwise projection
//! ([`crate::vector`]) and the solver's compiled elimination trace are each
//! written once, generic over [`Scalar`]. The arithmetic that deliberately
//! differs between the tiers is an item of this trait, so this module is
//! the single place precision-specific arithmetic lives:
//!
//! * [`Scalar::CHAINS`] — partial-sum chains of a row reduction. The f64
//!   tier keeps its pinned serial order; the f32 tier splits a row's
//!   products over four chains by entry position, which breaks the serial
//!   FP-add latency chain of the gather-bound kernels.
//! * [`Scalar::fold_divisor`] / [`Scalar::div_folded`] — the f64 tier
//!   stores a divisor and divides by it; the f32 tier stores its
//!   reciprocal, rounded once at build time, and multiplies.
//! * [`Scalar::pivot`] — the bottom factor's diagonal scale: the f64
//!   tier branches on a zero pivot, the f32 tier multiplies by a stored
//!   reciprocal whose zero marks the null direction.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A floating-point storage type of the chain's W-cycle kernels,
/// implemented for `f64` (the determinism-pinned default) and `f32` (half
/// the streamed bytes). See the module docs for the items that differ.
pub trait Scalar:
    Copy
    + Default
    + PartialEq
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
    + Sum
    + Into<f64>
{
    /// Additive identity.
    const ZERO: Self;

    /// Partial-sum chains of a row reduction: `1` is a serial sum in entry
    /// order; `4` assigns entry `t` to chain `t mod 4`, and
    /// [`sum_chains`](Self::sum_chains) combines them. The assignment
    /// depends only on the entry position, so every column of a block sees
    /// the same tree at every block width.
    const CHAINS: usize;

    /// Rounds an f64 value to this precision (exact for f64).
    fn from_f64(v: f64) -> Self;

    /// The stored form of a divisor `d`: `d` itself, or `1/d` rounded once.
    fn fold_divisor(d: f64) -> Self;

    /// `self` divided by a divisor in its [`fold_divisor`](Self::fold_divisor)
    /// form.
    fn div_folded(self, folded: Self) -> Self;

    /// The bottom factor's diagonal scale of `self` by a pivot stored as
    /// `0` (a null direction) or [`fold_divisor`](Self::fold_divisor)`(d)`.
    fn pivot(self, folded: Self) -> Self;

    /// Combines the four partial sums of a [`CHAINS`](Self::CHAINS)-chain
    /// reduction: chain 0 alone when there is one chain (adding the zeroed
    /// chains would flip a `-0.0` sum to `+0.0`), `(s0 + s1) + (s2 + s3)`
    /// when there are four. Generic over the accumulator type `V`, since a
    /// reduction over f32 storage may accumulate in f64.
    #[inline(always)]
    fn sum_chains<V: Scalar>(s: [V; 4]) -> V {
        if Self::CHAINS == 1 {
            s[0]
        } else {
            (s[0] + s[1]) + (s[2] + s[3])
        }
    }
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const CHAINS: usize = 1;

    #[inline(always)]
    fn from_f64(v: f64) -> f64 {
        v
    }

    #[inline(always)]
    fn fold_divisor(d: f64) -> f64 {
        d
    }

    #[inline(always)]
    fn div_folded(self, folded: f64) -> f64 {
        self / folded
    }

    #[inline(always)]
    fn pivot(self, folded: f64) -> f64 {
        if folded == 0.0 {
            0.0
        } else {
            self / folded
        }
    }
}

impl Scalar for f32 {
    const ZERO: f32 = 0.0;
    const CHAINS: usize = 4;

    #[inline(always)]
    fn from_f64(v: f64) -> f32 {
        v as f32
    }

    #[inline(always)]
    fn fold_divisor(d: f64) -> f32 {
        (1.0 / d) as f32
    }

    #[inline(always)]
    fn div_folded(self, folded: f32) -> f32 {
        self * folded
    }

    #[inline(always)]
    fn pivot(self, folded: f32) -> f32 {
        self * folded
    }
}
