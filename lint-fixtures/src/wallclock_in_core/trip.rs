use std::time::Instant;

pub fn stamp() -> Instant {
    Instant::now() //~ clippy::disallowed_methods
}

pub fn epoch() -> std::time::SystemTime {
    //~^ clippy::disallowed_types
    std::time::SystemTime::now() //~ clippy::disallowed_methods clippy::disallowed_types
}
