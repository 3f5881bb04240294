use std::collections::HashMap; //~ clippy::disallowed_types

pub fn escape_order(m: &HashMap<u32, u32>) -> Vec<u32> {
    //~^ clippy::disallowed_types
    let mut out = Vec::new();
    for (k, v) in m {
        out.push(*k + *v);
    }
    out.extend(m.keys());
    out
}

pub fn drain_order() {
    let mut s = HashMap::new(); //~ clippy::disallowed_types
    s.insert(1u32, 2u32);
    for x in s.drain() {
        let _ = x;
    }
}

pub fn set_order(s: &std::collections::HashSet<u32>) -> Vec<u32> {
    //~^ clippy::disallowed_types
    s.iter().copied().collect()
}
