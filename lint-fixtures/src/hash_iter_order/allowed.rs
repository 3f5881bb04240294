#![expect(
    clippy::disallowed_types,
    reason = "keys are sorted before the order escapes"
)]

use std::collections::HashMap;

pub fn sorted_before_escape(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut out: Vec<u32> = m.keys().copied().collect();
    out.sort_unstable();
    out
}
