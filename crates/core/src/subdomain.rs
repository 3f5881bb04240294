//! The subdomain query index (§4.1, Algorithm 1).
//!
//! Queries are grouped into *subdomains* — cells of the arrangement of
//! object-function intersections, inside which the object ranking is
//! constant — and indexed spatially with an R-tree.
//!
//! Two construction paths are provided (see DESIGN.md §3 for the full
//! rationale):
//!
//! * [`QueryIndex::build`] — the scalable default. Each query's ordered
//!   top-`K'` candidate list (`K' = max k + 1`) is computed once; queries
//!   sharing the list share a subdomain. This is precisely the non-empty
//!   cells of the arrangement restricted to intersections between
//!   candidate objects — the cells Algorithm 1 would keep after
//!   discarding empty ones — at `O(m·n log K')` instead of the printed
//!   `O(n²)` hyperplane enumeration, which is infeasible at the paper's
//!   own scales.
//! * [`QueryIndex::build_bsp`] — the literal Algorithm 1 over an explicit
//!   intersection list, used for small instances and validation.
//!
//! A bloom filter keyed by `(object id)` → *appears in some candidate
//! list* accelerates the §4.3 object-update path.

use crate::exec::ExecPolicy;
use crate::model::Instance;
use iq_geometry::bsp;
use iq_geometry::{Hyperplane, Vector};
use iq_index::{BloomFilter, RTree};
use iq_topk::naive;
use std::collections::BTreeMap;

/// One subdomain: a set of queries sharing the full candidate ranking.
#[derive(Debug, Clone)]
pub struct SubdomainEntry {
    /// Member query indices.
    pub queries: Vec<u32>,
    /// The shared ordered candidate list (top-`K'` object ids, best first).
    pub toplist: Vec<u32>,
}

/// The subdomain-grouped spatial index over the query workload.
#[derive(Debug, Clone)]
pub struct QueryIndex {
    pub(crate) dim: usize,
    pub(crate) kprime: usize,
    /// Per query: subdomain id.
    pub(crate) subdomain_of: Vec<u32>,
    /// The live subdomains. A build numbers them in query order; an
    /// incremental update that empties one removes it and gives its id to
    /// the last entry, so none is ever empty.
    pub(crate) subdomains: Vec<SubdomainEntry>,
    /// Toplist → subdomain id, for incremental query assignment (§4.3).
    pub(crate) by_toplist: BTreeMap<Vec<u32>, u32>,
    /// R-tree over query points; payload = query index.
    pub(crate) rtree: RTree<usize>,
    /// Bloom filter: object id → appears in some subdomain's toplist.
    pub(crate) boundary_filter: BloomFilter<u32>,
}

impl QueryIndex {
    /// Builds the index from an instance (signature construction), under
    /// the environment's default [`ExecPolicy`] (`IQ_THREADS`).
    ///
    /// `K' = max_k + 1` candidates are kept per query: enough to know, for
    /// any target `t`, the k-th best object *excluding* `t` — the admission
    /// threshold of Eq. 6.
    pub fn build(instance: &Instance) -> Self {
        Self::build_with(instance, &ExecPolicy::from_env())
    }

    /// [`Self::build`] with an explicit thread policy. The per-query
    /// signatures (ordered top-`K'` candidate lists) are computed in
    /// parallel — the dominant `O(m·n log K')` term — then merged into
    /// subdomains **sequentially in query order**, so the resulting index
    /// (subdomain ids, member order, R-tree insertion order) is identical
    /// at any thread count.
    pub fn build_with(instance: &Instance, exec: &ExecPolicy) -> Self {
        let kprime = instance.max_k() + 1;
        let m = instance.num_queries();
        let mut subdomain_of = vec![0u32; m];
        let mut subdomains: Vec<SubdomainEntry> = Vec::new();
        let mut by_toplist: BTreeMap<Vec<u32>, u32> = BTreeMap::new();

        // Signatures stream through the batched kernel over the flat
        // object matrix; each worker reuses one scores buffer across its
        // whole share of the queries (no per-query allocation).
        let objects = instance.objects_flat();
        let toplists: Vec<Vec<u32>> = exec.map_init(Vec::new, instance.ks(), |buf, q, _| {
            naive::top_k(objects, instance.weights(q), kprime, buf)
                .into_iter()
                .map(|i| i as u32)
                .collect()
        });

        for (qi, toplist) in toplists.into_iter().enumerate() {
            let sd = *by_toplist.entry(toplist.clone()).or_insert_with(|| {
                subdomains.push(SubdomainEntry {
                    queries: Vec::new(),
                    toplist,
                });
                (subdomains.len() - 1) as u32
            });
            subdomains[sd as usize].queries.push(qi as u32);
            subdomain_of[qi] = sd;
        }

        Self::assemble(instance, kprime, subdomain_of, subdomains, by_toplist)
    }

    /// Completes an index from its subdomains: STR bulk-loads the query
    /// points (the workload is known up front, so no insert per query) and
    /// fills the boundary filter.
    fn assemble(
        instance: &Instance,
        kprime: usize,
        subdomain_of: Vec<u32>,
        subdomains: Vec<SubdomainEntry>,
        by_toplist: BTreeMap<Vec<u32>, u32>,
    ) -> Self {
        let rtree = RTree::bulk(
            instance.dim().max(1),
            (0..instance.num_queries()).map(|qi| (instance.weights(qi), qi)),
        );
        let mut boundary_filter = BloomFilter::new((subdomains.len() * kprime).max(16), 0.01);
        for sd in &subdomains {
            for &o in &sd.toplist {
                boundary_filter.insert(&o);
            }
        }
        QueryIndex {
            dim: instance.dim(),
            kprime,
            subdomain_of,
            subdomains,
            by_toplist,
            rtree,
            boundary_filter,
        }
    }

    /// Builds the partition with the literal Algorithm 1 (BSP over the
    /// pairwise intersection hyperplanes of every object), then attaches
    /// the same toplist metadata. Exponential in spirit — use only on small
    /// instances; exists to validate that the signature construction
    /// produces a refinement-equivalent grouping.
    pub fn build_bsp(instance: &Instance) -> (Self, bsp::Partition) {
        let n = instance.num_objects();
        let mut hyperplanes = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if let Some(h) = Hyperplane::object_intersection(
                    &Vector::from(instance.object(i)),
                    &Vector::from(instance.object(j)),
                ) {
                    hyperplanes.push(h);
                }
            }
        }
        let points: Vec<Vec<f64>> = instance
            .weights_flat()
            .iter_rows()
            .map(<[f64]>::to_vec)
            .collect();
        let partition = bsp::find_subdomains(&hyperplanes, &points);

        // Attach toplists per BSP cell (all members share the ranking, so
        // one representative suffices; debug builds verify).
        let kprime = instance.max_k() + 1;
        let mut subdomains = Vec::with_capacity(partition.len());
        let mut subdomain_of = vec![0u32; instance.num_queries()];
        let mut scratch = Vec::new();
        let mut toplist_of = |q: usize| -> Vec<u32> {
            naive::top_k(
                instance.objects_flat(),
                instance.weights(q),
                kprime,
                &mut scratch,
            )
            .into_iter()
            .map(|i| i as u32)
            .collect()
        };
        for (sd_id, cell) in partition.subdomains.iter().enumerate() {
            let toplist = toplist_of(cell.queries[0]);
            for &qi in &cell.queries {
                subdomain_of[qi] = sd_id as u32;
                debug_assert_eq!(
                    toplist_of(qi),
                    toplist,
                    "BSP cell members disagree on ranking"
                );
            }
            subdomains.push(SubdomainEntry {
                queries: cell.queries.iter().map(|&q| q as u32).collect(),
                toplist,
            });
        }
        let by_toplist = subdomains
            .iter()
            .enumerate()
            .map(|(i, sd)| (sd.toplist.clone(), i as u32))
            .collect();
        (
            Self::assemble(instance, kprime, subdomain_of, subdomains, by_toplist),
            partition,
        )
    }

    /// STR-packs the query R-tree now, folding in its pending inserts and
    /// tombstones ([`RTree::pack`]). Never needed for correctness or speed:
    /// the tree bounds its own pending run, and reads answer the same
    /// either way.
    pub fn seal(&mut self) {
        self.rtree.pack();
    }

    /// Whether the query R-tree has nothing pending ([`RTree::is_packed`]).
    /// Build packs it; the incremental update paths (§4.3) add pending
    /// inserts and tombstones until the tree's compaction rule re-packs it.
    pub fn is_sealed(&self) -> bool {
        self.rtree.is_packed()
    }

    /// Dimensionality of the indexed query points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The candidate-list length `K'`.
    pub fn kprime(&self) -> usize {
        self.kprime
    }

    /// Number of subdomains.
    pub fn num_subdomains(&self) -> usize {
        self.subdomains.len()
    }

    /// The subdomains.
    pub fn subdomains(&self) -> &[SubdomainEntry] {
        &self.subdomains
    }

    /// The subdomain id of a query.
    pub fn subdomain_of(&self, query: usize) -> usize {
        self.subdomain_of[query] as usize
    }

    /// The ordered candidate list shared by a query's subdomain.
    pub fn toplist_of(&self, query: usize) -> &[u32] {
        &self.subdomains[self.subdomain_of[query] as usize].toplist
    }

    /// The R-tree over query points.
    pub fn rtree(&self) -> &RTree<usize> {
        &self.rtree
    }

    /// Fast *definitely-not* test: does object `o` appear in any
    /// subdomain's candidate list? (§4.3's bloom filter.)
    pub fn may_be_boundary_object(&self, o: usize) -> bool {
        self.boundary_filter.may_contain(&(o as u32))
    }

    /// The k-th best object **excluding** `target` for a query, with its
    /// id — the Eq. 6 admission threshold. `None` when fewer than `k`
    /// non-target candidates exist (then the target trivially hits).
    pub fn threshold_for(
        &self,
        instance: &Instance,
        query: usize,
        target: usize,
    ) -> Option<(usize, f64)> {
        let k = instance.k(query);
        let toplist = self.toplist_of(query);
        let mut seen = 0usize;
        for &o in toplist {
            let o = o as usize;
            if o == target {
                continue;
            }
            seen += 1;
            if seen == k {
                return Some((
                    o,
                    instance.objects_flat().dot_row(o, instance.weights(query)),
                ));
            }
        }
        // Candidate list exhausted: fewer than k other objects exist in
        // the whole dataset iff n - 1 < k.
        if instance.num_objects() > 0 && instance.num_objects() - 1 < k {
            None
        } else {
            // K' was sized as max_k + 1 so this cannot happen: the list
            // holds k+1 entries, at most one of which is the target.
            unreachable!("toplist shorter than K' invariant violated")
        }
    }

    /// Rough in-memory footprint in bytes — the index-size metric of
    /// Figs. 4b/5b/6b (R-tree + subdomain metadata + bloom filter).
    pub fn size_bytes(&self) -> usize {
        let subdomain_bytes: usize = self
            .subdomains
            .iter()
            .map(|s| s.queries.len() * 4 + s.toplist.len() * 4 + 48)
            .sum();
        self.rtree.size_bytes()
            + subdomain_bytes
            + self.subdomain_of.len() * 4
            + self.boundary_filter.size_bytes()
    }

    /// Structural invariants, used by tests and the §4.3 update paths.
    pub fn check_invariants(&self, instance: &Instance) -> Result<(), String> {
        if self.subdomain_of.len() != instance.num_queries() {
            return Err("assignment length mismatch".into());
        }
        let mut scratch = Vec::new();
        for (qi, &sd) in self.subdomain_of.iter().enumerate() {
            let entry = self
                .subdomains
                .get(sd as usize)
                .ok_or_else(|| format!("query {qi} assigned to missing subdomain {sd}"))?;
            if !entry.queries.contains(&(qi as u32)) {
                return Err(format!("query {qi} missing from its subdomain member list"));
            }
            // The stored toplist must equal the query's actual ranking.
            let actual: Vec<u32> = naive::top_k(
                instance.objects_flat(),
                instance.weights(qi),
                self.kprime,
                &mut scratch,
            )
            .into_iter()
            .map(|i| i as u32)
            .collect();
            if actual != entry.toplist {
                return Err(format!("query {qi} toplist stale"));
            }
        }
        // The R-tree must hold every query exactly once, at its current
        // weights: live packed slots plus pending entries.
        self.rtree.check_invariants()?;
        if self.rtree.len() != instance.num_queries() {
            return Err("R-tree population mismatch".into());
        }
        let mut seen = vec![false; instance.num_queries()];
        for e in self.rtree.iter() {
            let Some(slot) = seen.get_mut(e.data) else {
                return Err(format!("R-tree holds unknown query id {}", e.data));
            };
            if std::mem::replace(slot, true) {
                return Err(format!("R-tree holds query {} twice", e.data));
            }
            if e.point != instance.weights(e.data) {
                return Err(format!("R-tree point of query {} is stale", e.data));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TopKQuery;

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
                let k = 1 + (rnd() * kmax as f64) as usize;
                TopKQuery::new(w, k)
            })
            .collect();
        Instance::new(objects, queries).unwrap()
    }

    #[test]
    fn same_subdomain_same_ranking() {
        let inst = random_instance(30, 60, 3, 5, 42);
        let idx = QueryIndex::build(&inst);
        idx.check_invariants(&inst).unwrap();
        for sd in idx.subdomains() {
            let rep = sd.queries[0] as usize;
            let top = |q: usize| {
                naive::top_k(
                    inst.objects_flat(),
                    inst.weights(q),
                    idx.kprime(),
                    &mut Vec::new(),
                )
            };
            let want = top(rep);
            for &qi in &sd.queries {
                assert_eq!(top(qi as usize), want);
            }
        }
    }

    #[test]
    fn build_identical_at_any_thread_count() {
        let inst = random_instance(40, 120, 3, 5, 61);
        let base = QueryIndex::build_with(&inst, &ExecPolicy::sequential());
        for threads in [2usize, 3, 8] {
            let idx = QueryIndex::build_with(&inst, &ExecPolicy::with_threads(threads));
            idx.check_invariants(&inst).unwrap();
            assert_eq!(idx.subdomain_of, base.subdomain_of, "threads = {threads}");
            assert_eq!(idx.subdomains.len(), base.subdomains.len());
            for (a, b) in idx.subdomains.iter().zip(&base.subdomains) {
                assert_eq!(a.queries, b.queries, "threads = {threads}");
                assert_eq!(a.toplist, b.toplist, "threads = {threads}");
            }
            assert_eq!(idx.by_toplist, base.by_toplist, "threads = {threads}");
        }
    }

    #[test]
    fn bsp_partition_refines_signature_grouping() {
        // Every BSP cell must map into exactly one signature subdomain
        // (the arrangement over *all* intersections refines the one over
        // candidate intersections).
        let inst = random_instance(8, 40, 2, 3, 7);
        let sig_idx = QueryIndex::build(&inst);
        let (_, partition) = QueryIndex::build_bsp(&inst);
        for cell in &partition.subdomains {
            let sig_ids: std::collections::BTreeSet<usize> = cell
                .queries
                .iter()
                .map(|&q| sig_idx.subdomain_of(q))
                .collect();
            assert_eq!(
                sig_ids.len(),
                1,
                "BSP cell spans {} signature subdomains",
                sig_ids.len()
            );
        }
    }

    #[test]
    fn threshold_matches_naive_kth_excluding() {
        let inst = random_instance(25, 40, 3, 4, 99);
        let idx = QueryIndex::build(&inst);
        for qi in 0..inst.num_queries() {
            for target in [0usize, 7, 24] {
                let got = idx.threshold_for(&inst, qi, target);
                let want = naive::kth_best_excluding(
                    inst.objects_flat(),
                    inst.weights(qi),
                    inst.k(qi),
                    target,
                );
                match (got, want) {
                    (Some((go, gs)), Some((wo, ws))) => {
                        assert_eq!(go, wo, "query {qi}, target {target}");
                        assert!((gs - ws).abs() < 1e-12);
                    }
                    (None, None) => {}
                    other => panic!("query {qi}, target {target}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn threshold_none_when_dataset_tiny() {
        let inst = Instance::new(
            vec![vec![0.5, 0.5], vec![0.2, 0.8]],
            vec![TopKQuery::new(vec![0.6, 0.4], 2)],
        )
        .unwrap();
        let idx = QueryIndex::build(&inst);
        // k = 2 but only one non-target object exists.
        assert!(idx.threshold_for(&inst, 0, 0).is_none());
    }

    #[test]
    fn boundary_filter_covers_toplist_objects() {
        let inst = random_instance(30, 40, 2, 3, 5);
        let idx = QueryIndex::build(&inst);
        for sd in idx.subdomains() {
            for &o in &sd.toplist {
                assert!(idx.may_be_boundary_object(o as usize));
            }
        }
    }

    #[test]
    fn check_invariants_catches_a_moved_point_or_payload() {
        let inst = random_instance(20, 30, 3, 4, 17);
        let fresh = QueryIndex::build(&inst);
        fresh.check_invariants(&inst).unwrap();
        let w0 = inst.weights(0);

        // Same population, but query 0 indexed at a point it does not have.
        let mut moved = fresh.clone();
        assert_eq!(moved.rtree.remove(w0, |&d| d == 0), Some(0));
        let shifted: Vec<f64> = w0.iter().map(|x| x + 0.5).collect();
        moved.rtree.insert(&shifted, 0);
        assert!(moved.check_invariants(&inst).is_err());

        // Same population, but query 0's point carries query 1's id.
        let mut relabeled = fresh.clone();
        assert_eq!(relabeled.rtree.remove(w0, |&d| d == 0), Some(0));
        relabeled.rtree.insert(w0, 1);
        assert!(relabeled.check_invariants(&inst).is_err());
    }

    #[test]
    fn empty_query_set() {
        let inst = Instance::new(vec![vec![0.1, 0.2]], vec![]).unwrap();
        let idx = QueryIndex::build(&inst);
        assert_eq!(idx.num_subdomains(), 0);
        idx.check_invariants(&inst).unwrap();
    }

    #[test]
    fn clustered_queries_share_subdomains() {
        // Tightly clustered queries should collapse to far fewer
        // subdomains than queries.
        let mut rnd = lcg(123);
        let objects: Vec<Vec<f64>> = (0..50).map(|_| vec![rnd(), rnd()]).collect();
        let queries: Vec<TopKQuery> = (0..100)
            .map(|_| TopKQuery::new(vec![0.5 + rnd() * 0.001, 0.5 + rnd() * 0.001], 3))
            .collect();
        let inst = Instance::new(objects, queries).unwrap();
        let idx = QueryIndex::build(&inst);
        assert!(
            idx.num_subdomains() < 20,
            "expected heavy sharing, got {} subdomains",
            idx.num_subdomains()
        );
    }
}
