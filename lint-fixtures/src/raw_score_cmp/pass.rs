pub fn total(a: f64, b: f64) -> std::cmp::Ordering {
    a.total_cmp(&b)
}

pub fn tolerant(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal) //~ clippy::disallowed_methods
}

pub fn rank_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap() //~ clippy::disallowed_methods
}

pub fn search_tol(a: f64) -> bool {
    a == 0.0 //~ exact-float
}

pub fn int_eq(a: u32) -> bool {
    a == 0
}

pub fn ordered(a: f64, b: f64) -> bool {
    a <= 0.0 && b >= 1.5 && a == b
}

pub fn tuple_field(t: (u32, (u32, u32))) -> bool {
    t.0 == 1 && t.1 .0 == 2
}

pub fn in_text() -> &'static str {
    // a == 0.0 in a comment is not code
    "a == 0.0"
}
