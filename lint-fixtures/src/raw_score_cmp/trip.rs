pub fn compare(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap() //~ clippy::disallowed_methods
}

pub fn chained(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b) //~ clippy::disallowed_methods
        .unwrap()
}

pub fn exact(a: f64) -> bool {
    a == 0.0 //~ exact-float
}

// clippy::float_cmp is silent inside a fn whose name ends with `eq`.
pub fn approx_eq(a: f64) -> bool {
    a != -2.5e-3 //~ exact-float
}

pub fn literal_first(a: f64) -> bool {
    1f64 == a //~ exact-float
}

pub fn reason_missing(a: f64) -> bool {
    // exact-float:
    a == 1.0 //~ exact-float
}

// exact-float: an annotation that covers no comparison is stale //~ exact-float
pub fn stale_annotation(a: f64) -> bool {
    a.is_nan()
}
