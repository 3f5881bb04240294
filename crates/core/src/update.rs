//! Incremental data updating (§4.3): adding/removing queries and adding,
//! moving and removing objects without rebuilding the subdomain index.
//!
//! * **Add query** — the paper's heuristic: probe the subdomains of the new
//!   point's k nearest neighbours before falling back to a full
//!   computation. Our probe is *exact*: a candidate subdomain is accepted
//!   only if (a) its candidate list is correctly ordered under the new
//!   query (the paper's boundary-intersection check) and (b) no outside
//!   object beats the list's tail — together these pin the new query's
//!   top-`K'` exactly, so a fast-accept never mis-assigns. The new query's
//!   scores are computed once; (b) and the fallback selection read them.
//! * **Remove query** — O(1) swap-removal with id patching.
//! * **Add / move an object** — one O(d) test per query against its
//!   current list `L`: an object that now beats `L`'s tail (or, if it was
//!   in `L`, the worst *other* member) is spliced in at its rank in
//!   O(K'); a member that falls behind every other member forces one full
//!   top-`K'` refill of that query; every other query is untouched
//!   (Kosmatopoulos & Tsichlas's touch-only-what-changes rule for top-k
//!   answers, applied per toplist).
//! * **Remove object** — only the highest-id object can be removed (ids
//!   stay stable). The §4.3 bloom filter gives a fast *definitely
//!   unaffected* answer; otherwise the subdomains whose candidate list
//!   mentions the object are rebuilt.
//!
//! Every path regroups the queries whose list changed. An update that
//! empties a subdomain removes it, so the index holds only live
//! subdomains however many updates it absorbs.

use crate::model::{Instance, ModelError, TopKQuery};
use crate::subdomain::{QueryIndex, SubdomainEntry};
use iq_topk::naive::{self, rank_cmp, score};
use std::cmp::Ordering;

/// Statistics about how much work an update operation did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Queries whose candidate list was recomputed from scratch.
    pub toplists_recomputed: usize,
    /// Queries whose candidate list took an object at its rank in place
    /// (no full recomputation).
    pub toplists_spliced: usize,
    /// Queries assigned via the kNN fast path (no full recomputation).
    pub fast_assignments: usize,
    /// Whether the bloom filter short-circuited an object removal.
    pub bloom_short_circuit: bool,
}

/// How many nearest neighbours to probe for candidate subdomains.
const KNN_CANDIDATES: usize = 4;

/// With `--features debug-invariants`, re-checks the full structural
/// invariants of the `QueryIndex` (assignment consistency, exact toplists,
/// same-subdomain identity) after a mutation. Compiled out otherwise: the
/// check is a full naive re-evaluation per call.
#[inline]
fn debug_check(instance: &Instance, index: &QueryIndex) {
    #[cfg(feature = "debug-invariants")]
    index
        .check_invariants(instance)
        .expect("debug-invariants: QueryIndex invariant broken after update");
    #[cfg(not(feature = "debug-invariants"))]
    let _ = (instance, index);
}

fn compute_toplist(
    instance: &Instance,
    weights: &[f64],
    kprime: usize,
    scratch: &mut Vec<f64>,
) -> Vec<u32> {
    naive::top_k(instance.objects_flat(), weights, kprime, scratch)
        .into_iter()
        .map(|i| i as u32)
        .collect()
}

/// Exact membership probe: is `toplist` the correct ordered top-`K'` for
/// the query whose score of every object is `scores[o]`? Checks (a)
/// internal order and (b) that no outside object beats the tail: exactly
/// `len − 1` objects (the other members) may rank before it. `O(K' + n)`.
fn toplist_matches(scores: &[f64], kprime: usize, toplist: &[u32]) -> bool {
    if toplist.len() != kprime.min(scores.len()) {
        return false;
    }
    // (a) ordered under this query, with the id tie-break.
    let ranked = |a: u32, b: u32| {
        rank_cmp(
            scores[a as usize],
            a as usize,
            scores[b as usize],
            b as usize,
        ) == Ordering::Less
    };
    if !toplist.windows(2).all(|w| ranked(w[0], w[1])) {
        return false;
    }
    // (b) no outsider beats the tail.
    let Some(&tail) = toplist.last() else {
        return true;
    };
    let (tail, tail_score) = (tail as usize, scores[tail as usize]);
    let mut ahead = 0usize;
    for (o, &s) in scores.iter().enumerate() {
        if rank_cmp(s, o, tail_score, tail) == Ordering::Less {
            ahead += 1;
            if ahead == toplist.len() {
                return false;
            }
        }
    }
    ahead == toplist.len() - 1
}

fn assign_to_subdomain(index: &mut QueryIndex, qid: usize, toplist: Vec<u32>) {
    let sd = match index.by_toplist.get(&toplist) {
        Some(&sd) => sd,
        None => {
            let sd = index.subdomains.len() as u32;
            for &o in &toplist {
                index.boundary_filter.insert(&o);
            }
            index.subdomains.push(SubdomainEntry {
                queries: Vec::new(),
                toplist: toplist.clone(),
            });
            index.by_toplist.insert(toplist, sd);
            sd
        }
    };
    index.subdomains[sd as usize].queries.push(qid as u32);
    if qid == index.subdomain_of.len() {
        index.subdomain_of.push(sd);
    } else {
        index.subdomain_of[qid] = sd;
    }
}

/// Takes `qid` out of its subdomain's member list. A subdomain left
/// without members is removed: the last subdomain takes over its id and
/// its members' assignments are patched. `subdomain_of[qid]` is stale
/// afterwards; the caller reassigns or drops the query.
fn detach_from_subdomain(index: &mut QueryIndex, qid: usize) {
    let sd = index.subdomain_of[qid] as usize;
    let members = &mut index.subdomains[sd].queries;
    if let Some(pos) = members.iter().position(|&q| q == qid as u32) {
        members.swap_remove(pos);
    }
    if !members.is_empty() {
        return;
    }
    let last = index.subdomains.len() - 1;
    let emptied = index.subdomains.swap_remove(sd);
    if index.by_toplist.get(&emptied.toplist) == Some(&(sd as u32)) {
        index.by_toplist.remove(&emptied.toplist);
    }
    if sd != last {
        let moved = &index.subdomains[sd];
        for &q in &moved.queries {
            index.subdomain_of[q as usize] = sd as u32;
        }
        if let Some(id) = index.by_toplist.get_mut(&moved.toplist) {
            if *id == last as u32 {
                *id = sd as u32;
            }
        }
    }
}

/// Regroups each `(query, new toplist)` pair.
fn reassign(index: &mut QueryIndex, changed: Vec<(usize, Vec<u32>)>) {
    for (q, toplist) in changed {
        detach_from_subdomain(index, q);
        assign_to_subdomain(index, q, toplist);
    }
}

/// **Add a query** (§4.3): kNN-candidate fast path with exact verification,
/// falling back to a full top-`K'` computation. Returns the new query id.
pub fn add_query(
    instance: &mut Instance,
    index: &mut QueryIndex,
    query: TopKQuery,
    stats: &mut UpdateStats,
) -> Result<usize, ModelError> {
    assert!(
        query.k < index.kprime,
        "query k = {} exceeds the index's K' = {}; rebuild with a larger max k",
        query.k,
        index.kprime
    );
    let weights = &query.weights;
    let qid = instance.push_query(weights, query.k)?;
    let mut scores = Vec::new();
    instance.objects_flat().scores_into(weights, &mut scores);

    // Candidate subdomains from the nearest indexed query points.
    let mut assigned = false;
    let mut probed: Vec<u32> = Vec::new();
    for (entry, _) in index.rtree.nearest_k(weights, KNN_CANDIDATES) {
        let sd = index.subdomain_of[entry.data];
        if probed.contains(&sd) {
            continue;
        }
        probed.push(sd);
        let toplist = &index.subdomains[sd as usize].toplist;
        if toplist_matches(&scores, index.kprime, toplist) {
            let toplist = toplist.clone();
            assign_to_subdomain(index, qid, toplist);
            stats.fast_assignments += 1;
            assigned = true;
            break;
        }
    }
    if !assigned {
        let toplist = naive::top_k_from_scores(&scores, index.kprime)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        stats.toplists_recomputed += 1;
        assign_to_subdomain(index, qid, toplist);
    }
    index.rtree.insert(weights, qid);
    debug_check(instance, index);
    Ok(qid)
}

/// **Remove a query** (§4.3): O(1) swap-removal. The previously-last query
/// takes over the removed id; all index structures are patched.
pub fn remove_query(
    instance: &mut Instance,
    index: &mut QueryIndex,
    qid: usize,
) -> Option<TopKQuery> {
    let last = instance.num_queries().checked_sub(1)?;
    if qid > last {
        return None;
    }
    let removed = instance.swap_remove_query(qid)?;
    // Drop the removed query from its structures. The instance has already
    // been mutated, so an R-tree miss here would mean the index was
    // corrupt before this call — fail loudly rather than desynchronize.
    index
        .rtree
        .remove(&removed.weights, |&d| d == qid)
        .expect("query index out of sync: point missing from R-tree");
    detach_from_subdomain(index, qid);

    if qid != last {
        // The old last query now lives at `qid`; patch its id everywhere.
        let moved_weights = instance.weights(qid);
        index.rtree.remove(moved_weights, |&d| d == last);
        index.rtree.insert(moved_weights, qid);
        let sd = index.subdomain_of[last] as usize;
        if let Some(pos) = index.subdomains[sd]
            .queries
            .iter()
            .position(|&q| q == last as u32)
        {
            index.subdomains[sd].queries[pos] = qid as u32;
        }
        index.subdomain_of[qid] = index.subdomain_of[last];
    }
    index.subdomain_of.pop();
    debug_check(instance, index);
    Some(removed)
}

/// **Add an object** (§4.3): splice the newcomer into every list whose
/// tail it beats (or that is shorter than `K'`). Returns the new object id.
pub fn add_object(
    instance: &mut Instance,
    index: &mut QueryIndex,
    attrs: &[f64],
    stats: &mut UpdateStats,
) -> Result<usize, ModelError> {
    let oid = instance.push_object(attrs)?;
    rerank_object(instance, index, oid, stats);
    debug_check(instance, index);
    Ok(oid)
}

/// **Move an object**: object `oid` takes the attribute vector `attrs`
/// and keeps its id. Per query, with `L` its current list:
///
/// * *entering* — `oid ∉ L` and now beats `L`'s tail: spliced in at its
///   rank, the tail dropped;
/// * *staying* — `oid ∈ L` and now beats the worst other member (or `L`
///   is shorter than `K'`, so it holds every object): re-spliced. Every
///   outsider ranks behind every other member, so the list stays exact;
/// * *leaving* — `oid ∈ L` and behind every other member: one full
///   top-`K'` refill, since some outsider may now beat it;
/// * anything else is untouched.
///
/// The test runs per query, not per subdomain: the moved object's score
/// differs between the queries of one subdomain.
pub fn move_object(
    instance: &mut Instance,
    index: &mut QueryIndex,
    oid: usize,
    attrs: &[f64],
    stats: &mut UpdateStats,
) -> Result<(), ModelError> {
    instance.set_object(oid, attrs)?;
    rerank_object(instance, index, oid, stats);
    debug_check(instance, index);
    Ok(())
}

/// Brings every toplist up to date after object `oid` was appended or
/// moved (the instance already holds its new attributes), then regroups
/// the queries whose list changed. See [`move_object`] for the cases.
fn rerank_object(instance: &Instance, index: &mut QueryIndex, oid: usize, stats: &mut UpdateStats) {
    let kprime = index.kprime;
    let id = oid as u32;
    let object = instance.object(oid);
    let mut scratch = Vec::new();
    let mut changed: Vec<(usize, Vec<u32>)> = Vec::new();
    for entry in &index.subdomains {
        let list = &entry.toplist;
        let pos = list.iter().position(|&o| o == id);
        // The member `oid` must beat for a splice to keep the list exact:
        // the tail, or the worst member other than `oid` itself.
        let bar = match pos {
            Some(p) if p + 1 == list.len() => list.len().checked_sub(2).map(|i| list[i]),
            _ => list.last().copied(),
        };
        for &q in &entry.queries {
            let weights = instance.weights(q as usize);
            let s = score(object, weights);
            let beats_bar = bar.is_some_and(|b| {
                let b = b as usize;
                rank_cmp(s, oid, score(instance.object(b), weights), b) == Ordering::Less
            });
            let new_list = if list.len() < kprime || beats_bar {
                let mut l = list.clone();
                if let Some(p) = pos {
                    l.remove(p);
                }
                let at = l.partition_point(|&o| {
                    let o = o as usize;
                    rank_cmp(score(instance.object(o), weights), o, s, oid) == Ordering::Less
                });
                l.insert(at, id);
                l.truncate(kprime);
                stats.toplists_spliced += 1;
                l
            } else if pos.is_some() {
                stats.toplists_recomputed += 1;
                compute_toplist(instance, weights, kprime, &mut scratch)
            } else {
                continue;
            };
            if new_list != *list {
                changed.push((q as usize, new_list));
            }
        }
    }
    reassign(index, changed);
}

/// **Remove the last object** (§4.3): the bloom filter answers "definitely
/// not a boundary object" without touching any subdomain; otherwise every
/// subdomain mentioning the object rebuilds its members' candidate lists.
pub fn remove_last_object(
    instance: &mut Instance,
    index: &mut QueryIndex,
    stats: &mut UpdateStats,
) -> Option<Vec<f64>> {
    let oid = instance.num_objects().checked_sub(1)?;
    let removed = instance.pop_object()?;

    if !index.may_be_boundary_object(oid) {
        // The object never appeared in any candidate list — no query's
        // ranking prefix can change (§4.3's fast path).
        stats.bloom_short_circuit = true;
        // Under debug-invariants this also witnesses the bloom filter's
        // "definitely not a boundary object" claim: the untouched toplists
        // must still be exact over the shrunk object set.
        debug_check(instance, index);
        return Some(removed);
    }
    let mut scratch = Vec::new();
    let mut changed: Vec<(usize, Vec<u32>)> = Vec::new();
    for entry in &index.subdomains {
        if !entry.toplist.contains(&(oid as u32)) {
            continue;
        }
        for &q in &entry.queries {
            let weights = instance.weights(q as usize);
            let toplist = compute_toplist(instance, weights, index.kprime, &mut scratch);
            stats.toplists_recomputed += 1;
            changed.push((q as usize, toplist));
        }
    }
    reassign(index, changed);
    debug_check(instance, index);
    Some(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subdomain::QueryIndex;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    fn random_instance(n: usize, m: usize, d: usize, kmax: usize, seed: u64) -> Instance {
        let mut rnd = lcg(seed);
        let objects: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| rnd()).collect()).collect();
        let queries: Vec<TopKQuery> = (0..m)
            .map(|_| {
                let w: Vec<f64> = (0..d).map(|_| rnd()).collect();
                TopKQuery::new(w, 1 + (rnd() * kmax as f64) as usize)
            })
            .collect();
        Instance::new(objects, queries).unwrap()
    }

    /// The maintained index must be indistinguishable from a rebuild:
    /// identical toplists and identical query partition.
    fn assert_equivalent_to_rebuild(instance: &Instance, index: &QueryIndex) {
        index.check_invariants(instance).unwrap();
        // The maintained index keeps its original K'; a fresh rebuild may
        // pick a smaller one after max-k queries were removed. Compare the
        // common prefix (the rankings must agree there).
        let fresh = QueryIndex::build(instance);
        let common = index.kprime().min(fresh.kprime());
        for q in 0..instance.num_queries() {
            assert_eq!(
                &index.toplist_of(q)[..common.min(index.toplist_of(q).len())],
                &fresh.toplist_of(q)[..common.min(fresh.toplist_of(q).len())],
                "query {q} toplist differs from rebuild"
            );
        }
        // Partition consistency: the maintained grouping must refine the
        // rebuild's (equal when K' matches; a larger K' may only split).
        for a in 0..instance.num_queries() {
            for b in (a + 1)..instance.num_queries() {
                let together = index.subdomain_of(a) == index.subdomain_of(b);
                let fresh_together = fresh.subdomain_of(a) == fresh.subdomain_of(b);
                if together {
                    assert!(fresh_together, "maintained grouping coarser for {a},{b}");
                }
                if index.kprime() == fresh.kprime() {
                    assert_eq!(together, fresh_together, "partition differs for {a},{b}");
                }
            }
        }
    }

    #[test]
    fn add_queries_incrementally() {
        let mut inst = random_instance(30, 20, 3, 4, 5);
        let mut index = QueryIndex::build(&inst);
        let mut rnd = lcg(88);
        let mut stats = UpdateStats::default();
        for _ in 0..25 {
            let w: Vec<f64> = (0..3).map(|_| rnd()).collect();
            let k = 1 + (rnd() * 4.0) as usize;
            add_query(&mut inst, &mut index, TopKQuery::new(w, k), &mut stats).unwrap();
        }
        assert_equivalent_to_rebuild(&inst, &index);
    }

    #[test]
    fn rejected_query_leaves_instance_and_index_untouched() {
        let mut inst = random_instance(30, 20, 3, 4, 8);
        let mut index = QueryIndex::build(&inst);
        let before = (format!("{inst:?}"), format!("{index:?}"));
        let mut stats = UpdateStats::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let query = TopKQuery::new(vec![0.5, bad, 0.5], 2);
            assert_eq!(
                add_query(&mut inst, &mut index, query, &mut stats),
                Err(ModelError::NonFinite)
            );
        }
        assert_eq!((format!("{inst:?}"), format!("{index:?}")), before);
        assert_eq!(stats, UpdateStats::default());
    }

    #[test]
    fn knn_fast_path_fires_for_clustered_queries() {
        let mut rnd = lcg(12);
        let objects: Vec<Vec<f64>> = (0..40).map(|_| vec![rnd(), rnd()]).collect();
        let queries: Vec<TopKQuery> = (0..30)
            .map(|_| TopKQuery::new(vec![0.5 + rnd() * 0.01, 0.5 + rnd() * 0.01], 3))
            .collect();
        let mut inst = Instance::new(objects, queries).unwrap();
        let mut index = QueryIndex::build(&inst);
        let mut stats = UpdateStats::default();
        for _ in 0..20 {
            let q = TopKQuery::new(vec![0.5 + rnd() * 0.01, 0.5 + rnd() * 0.01], 3);
            add_query(&mut inst, &mut index, q, &mut stats).unwrap();
        }
        assert!(
            stats.fast_assignments >= 15,
            "kNN fast path barely fired: {stats:?}"
        );
        assert_equivalent_to_rebuild(&inst, &index);
    }

    #[test]
    fn remove_queries_with_id_patching() {
        let mut inst = random_instance(25, 30, 3, 3, 9);
        let mut index = QueryIndex::build(&inst);
        // Remove from the middle, the front, and the back.
        for qid in [15usize, 0, 20, 5, 11] {
            let removed = remove_query(&mut inst, &mut index, qid);
            assert!(removed.is_some(), "removal of {qid} failed");
            assert_equivalent_to_rebuild(&inst, &index);
        }
        assert_eq!(inst.num_queries(), 25);
        assert!(remove_query(&mut inst, &mut index, 999).is_none());
    }

    #[test]
    fn add_objects_incrementally() {
        let mut inst = random_instance(20, 30, 3, 3, 31);
        let mut index = QueryIndex::build(&inst);
        let mut rnd = lcg(77);
        let mut stats = UpdateStats::default();
        for round in 0..10 {
            // Alternate between dominated newcomers (no effect) and strong
            // ones (penetrate many lists).
            let attrs: Vec<f64> = if round % 2 == 0 {
                (0..3).map(|_| 0.9 + rnd() * 0.1).collect()
            } else {
                (0..3).map(|_| rnd() * 0.2).collect()
            };
            add_object(&mut inst, &mut index, &attrs, &mut stats).unwrap();
            assert_equivalent_to_rebuild(&inst, &index);
        }
        assert!(
            stats.toplists_spliced > 0,
            "strong objects must disturb lists"
        );
        assert_eq!(stats.toplists_recomputed, 0, "an append only splices");
    }

    #[test]
    fn move_objects_in_place() {
        let mut inst = random_instance(25, 30, 3, 3, 71);
        let mut index = QueryIndex::build(&inst);
        let mut rnd = lcg(19);
        let mut stats = UpdateStats::default();
        for round in 0..30 {
            let oid = (rnd() * 25.0) as usize;
            // Alternate between pushing an object to the front (enters or
            // stays in many lists), to the back (leaves them) and a random
            // spot.
            let attrs: Vec<f64> = match round % 3 {
                0 => (0..3).map(|_| rnd() * 0.05).collect(),
                1 => (0..3).map(|_| 0.95 + rnd() * 0.05).collect(),
                _ => (0..3).map(|_| rnd()).collect(),
            };
            move_object(&mut inst, &mut index, oid, &attrs, &mut stats).unwrap();
            assert_eq!(inst.object(oid), attrs.as_slice());
            assert_equivalent_to_rebuild(&inst, &index);
            assert!(
                index.subdomains.iter().all(|s| !s.queries.is_empty()),
                "moves left an empty subdomain behind"
            );
        }
        assert!(stats.toplists_spliced > 0, "no move entered a list");
        assert!(stats.toplists_recomputed > 0, "no move left a list");
        assert!(move_object(&mut inst, &mut index, 99, &[0.0; 3], &mut stats).is_err());
    }

    #[test]
    fn remove_last_object_rebuilds_affected() {
        let mut inst = random_instance(20, 30, 3, 3, 41);
        let mut index = QueryIndex::build(&inst);
        let mut stats = UpdateStats::default();
        for _ in 0..5 {
            remove_last_object(&mut inst, &mut index, &mut stats).unwrap();
            assert_equivalent_to_rebuild(&inst, &index);
        }
    }

    #[test]
    fn bloom_short_circuits_irrelevant_object() {
        // An object dominated by everything never enters any toplist.
        let mut inst = random_instance(15, 20, 2, 2, 51);
        let mut index = QueryIndex::build(&inst);
        let mut stats = UpdateStats::default();
        add_object(&mut inst, &mut index, &[50.0, 50.0], &mut stats).unwrap();
        let before = stats.toplists_recomputed;
        let mut rm_stats = UpdateStats::default();
        remove_last_object(&mut inst, &mut index, &mut rm_stats).unwrap();
        assert_eq!(stats.toplists_recomputed, before);
        // Usually the filter short-circuits (false positives allowed).
        if !rm_stats.bloom_short_circuit {
            assert_eq!(rm_stats.toplists_recomputed, 0);
        }
        assert_equivalent_to_rebuild(&inst, &index);
    }

    #[test]
    fn mixed_update_storm() {
        let mut inst = random_instance(25, 25, 2, 3, 61);
        let mut index = QueryIndex::build(&inst);
        let mut rnd = lcg(3);
        let mut stats = UpdateStats::default();
        for step in 0..40 {
            match step % 4 {
                0 => {
                    let w: Vec<f64> = (0..2).map(|_| rnd()).collect();
                    add_query(
                        &mut inst,
                        &mut index,
                        TopKQuery::new(w, 1 + step % 3),
                        &mut stats,
                    )
                    .unwrap();
                }
                1 => {
                    let qid =
                        ((rnd() * inst.num_queries() as f64) as usize).min(inst.num_queries() - 1);
                    remove_query(&mut inst, &mut index, qid);
                }
                2 => {
                    let attrs: Vec<f64> = (0..2).map(|_| rnd()).collect();
                    add_object(&mut inst, &mut index, &attrs, &mut stats).unwrap();
                }
                _ => {
                    if inst.num_objects() > 10 {
                        remove_last_object(&mut inst, &mut index, &mut stats);
                    }
                }
            }
        }
        assert_equivalent_to_rebuild(&inst, &index);
    }
}
