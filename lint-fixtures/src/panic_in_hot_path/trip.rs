#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub fn four_sites(v: Option<u32>, w: Option<u32>) -> u32 {
    let a = v.unwrap(); //~ clippy::unwrap_used
    let b = w.expect("w must be set"); //~ clippy::expect_used
    if a + b == 0 {
        panic!("impossible"); //~ clippy::panic
    }
    if a == b {
        unreachable!("a and b differ"); //~ clippy::unreachable
    }
    a + b
}
