#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

#[expect(clippy::unwrap_used, reason = "poisoned state must not serve reads")]
pub fn poisoned_lock_is_fatal(v: Option<u32>) -> u32 {
    v.unwrap()
}
