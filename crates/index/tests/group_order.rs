//! Iteration-order regression test for `GroupedQueryIndex`.
//!
//! The per-group store map used to be a `HashMap`, whose per-instance
//! `RandomState` seed made `visit_all` / `group_keys` order differ between
//! two identically-built forests. The BTreeMap-backed store must visit in
//! ascending group order, identically, every build.

use iq_index::GroupedQueryIndex;

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64)
    }
}

fn build() -> GroupedQueryIndex {
    let mut rng = lcg(7);
    // Spread entries over enough groups that a hash-ordered map would be
    // (overwhelmingly) unlikely to enumerate them in ascending order.
    let items: Vec<(usize, Vec<f64>, usize)> = (0..200)
        .map(|payload| {
            let group = (rng() * 40.0) as usize;
            (group, vec![rng(), rng(), rng()], payload)
        })
        .collect();
    GroupedQueryIndex::build(3, items)
}

#[test]
fn visit_order_is_build_independent_and_sorted() {
    let trace = |idx: &GroupedQueryIndex| {
        let mut seen: Vec<(usize, Vec<u64>, usize)> = Vec::new();
        idx.visit_all(&mut |g, p, d| {
            seen.push((g, p.iter().map(|v| v.to_bits()).collect(), d));
        });
        seen
    };
    let a = build();
    let b = build();
    let ta = trace(&a);
    assert_eq!(
        ta,
        trace(&b),
        "two identical builds visited in different orders"
    );

    let groups: Vec<usize> = ta.iter().map(|(g, _, _)| *g).collect();
    let mut sorted = groups.clone();
    sorted.sort();
    assert_eq!(
        groups, sorted,
        "visit_all must walk groups in ascending order"
    );

    let keys: Vec<usize> = a.group_keys().collect();
    let mut keys_sorted = keys.clone();
    keys_sorted.sort();
    assert_eq!(keys, keys_sorted, "group_keys must be ascending");
}
