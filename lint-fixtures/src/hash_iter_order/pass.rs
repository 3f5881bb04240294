use std::collections::{BTreeMap, HashMap}; //~ clippy::disallowed_types

pub fn lookups_are_fine(m: &HashMap<u32, u32>) -> Option<u32> {
    //~^ clippy::disallowed_types
    m.get(&1).copied()
}

pub fn btree_iteration_is_fine(bt: &BTreeMap<u32, u32>) -> Vec<u32> {
    bt.keys().copied().collect()
}

pub fn insert_remove(m: &mut HashMap<u32, u32>) {
    //~^ clippy::disallowed_types
    m.insert(1, 2);
    m.remove(&1);
}
