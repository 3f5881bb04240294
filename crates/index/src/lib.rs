//! # iq-index
//!
//! Indexing substrate for the `improvement-queries` workspace: a
//! from-scratch d-dimensional [R-tree](rtree::RTree) (an STR-packed arena
//! with a small pending run) with window, affected-subspace (slab), and kNN
//! search; and a [bloom filter](bloom::BloomFilter) over subdomain boundary
//! keys (§4.3 of the paper).

#![warn(missing_docs)]

pub mod bloom;
pub mod rtree;

pub use bloom::BloomFilter;
pub use rtree::{Entry, RTree};

// Marker-trait audit: all query paths on these structures take `&self`
// and the evaluation core reads them from many threads concurrently
// (iq-core::exec). Interior mutability (caches, visit counters, etc.)
// added to any of them must fail this assertion, not corrupt searches.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RTree<usize>>();
    assert_send_sync::<BloomFilter<u32>>();
};
