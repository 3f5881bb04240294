pub fn degenerate(denom: f64) -> bool {
    denom == 0.0 // exact-float: exact-zero degeneracy test
}

pub fn identity(c: f64) -> bool {
    // exact-float: the annotation may sit on the line above
    c != 1.0
}

#[expect(
    clippy::disallowed_methods,
    reason = "SQL semantics: the Option is the contract"
)]
pub fn sql_compare(a: f64, b: f64) -> Option<std::cmp::Ordering> {
    a.partial_cmp(&b)
}
