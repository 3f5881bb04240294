use std::time::Instant;

#[expect(clippy::disallowed_methods, reason = "I/O pacing only, never data")]
pub fn pacing() -> Instant {
    Instant::now()
}
