//! Lint fixtures, one module per rule of the lint policy (DESIGN.md §13).
//!
//! `scripts/check_lints.py` runs clippy on this crate with the workspace's
//! lint levels and asserts that diagnostics land exactly on the lines that
//! end in a `//~ <lint>` marker, and on no other line. `exact-float` names
//! the script's own float-literal check. Per rule, `trip.rs` must trip,
//! `allowed.rs` shows the sanctioned exception and `pass.rs` must pass;
//! a `pass.rs` line that carries a marker passed an earlier, looser rule.

pub mod allow_grammar;

pub mod hash_iter_order {
    pub mod allowed;
    pub mod pass;
    pub mod trip;
}

pub mod panic_in_hot_path {
    pub mod allowed;
    pub mod pass;
    pub mod trip;
}

pub mod raw_score_cmp {
    pub mod allowed;
    pub mod pass;
    pub mod trip;
}

pub mod undocumented_unsafe {
    pub mod allowed;
    pub mod pass;
    pub mod trip;
}

pub mod wallclock_in_core {
    pub mod allowed;
    pub mod pass;
    pub mod trip;
}
