//! # iq-geometry
//!
//! Geometric substrate for the `improvement-queries` workspace — a
//! from-scratch reproduction of *"Querying Improvement Strategies"*
//! (Yang & Cai, EDBT 2017).
//!
//! The paper's core trick is to interpret every object `p ∈ R^d` as the
//! linear function `f_p(q) = p · q` of the top-k query `q`, so that:
//!
//! * two objects tie exactly on a **hyperplane** in query space
//!   ([`hyperplane::Hyperplane::object_intersection`]);
//! * all pairwise intersections partition query space into **subdomains**
//!   with constant object ranking ([`bsp::find_subdomains`], Algorithm 1);
//! * an improvement strategy tilts the target's hyperplanes, and only
//!   queries inside the **affected subspace** between old and new positions
//!   can change result ([`hyperplane::Slab`], Eqs. 4–5).
//!
//! The remaining modules serve the index layer: [`bbox`] gives the R-tree
//! its pruning predicates, and [`matrix`] is the flat evaluation substrate:
//! contiguous row-major storage plus batched dot-product kernels that
//! preserve the scalar summation order bit-for-bit (see DESIGN.md §9).

#![warn(missing_docs)]

pub mod bbox;
pub mod bsp;
pub mod hyperplane;
pub mod matrix;
pub mod vector;

pub use bbox::{BoundingBox, BoxSide};
pub use hyperplane::{Hyperplane, Side, Slab};
pub use matrix::FlatMatrix;
pub use vector::Vector;

// Marker-trait audit: the evaluation core shares these read-only across
// worker threads (iq-core::exec); a field change that introduces interior
// mutability or non-Send storage must fail here, at the source crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Vector>();
    assert_send_sync::<Hyperplane>();
    assert_send_sync::<Slab>();
    assert_send_sync::<BoundingBox>();
    assert_send_sync::<FlatMatrix>();
};
