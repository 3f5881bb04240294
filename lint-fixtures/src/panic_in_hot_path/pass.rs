#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub fn handled(v: Option<u32>, w: Option<u32>) -> Result<u32, String> {
    let a = v.ok_or("v missing")?;
    let b = w.ok_or("w missing")?;
    Ok(a + b)
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_free() {
        assert_eq!(super::handled(Some(1), Some(2)).unwrap(), 3);
        let n: u32 = "3".parse().expect("digits");
        if n != 3 {
            panic!("parsed {n}");
        }
    }
}
