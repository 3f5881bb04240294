//! The objects-as-functions data model (§3).
//!
//! An [`Instance`] bundles a dataset of `d`-dimensional objects with a set
//! of top-k queries over them. Objects double as linear functions of the
//! query point (Eq. 1): `f_i(q) = p_i · q`, ranked **ascending** (Eq. 6),
//! ties broken by object id. An [`ImprovementStrategy`] is the adjustment
//! vector of Definition 1; applying it replaces the target object with
//! `p + s`.

use iq_geometry::{FlatMatrix, Vector};
use iq_topk::naive;
pub use iq_topk::TopKQuery;

/// An improvement strategy: the per-attribute adjustment vector `s` of
/// Definition 1.
pub type ImprovementStrategy = Vector;

/// Errors raised while constructing or mutating an instance.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// An object or query had the wrong dimensionality.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Found dimensionality.
        found: usize,
    },
    /// An object/query index was out of range.
    IndexOutOfRange(usize),
    /// A value was non-finite.
    NonFinite,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            ModelError::IndexOutOfRange(i) => write!(f, "index {i} out of range"),
            ModelError::NonFinite => write!(f, "non-finite coordinate"),
        }
    }
}

impl std::error::Error for ModelError {}

/// A dataset of objects plus the top-k query workload over them.
///
/// Coordinates are materialised twice: the nested `Vec<Vec<f64>>` /
/// `Vec<TopKQuery>` views that the construction and update APIs expose,
/// and flat row-major mirrors ([`Instance::objects_flat`],
/// [`Instance::weights_flat`]) that the batched scoring kernels stream
/// through (DESIGN.md §9). Every mutator keeps the mirrors coherent; the
/// flat rows are bit-for-bit copies of the nested rows, never derived
/// data.
#[derive(Debug, Clone)]
pub struct Instance {
    dim: usize,
    objects: Vec<Vec<f64>>,
    queries: Vec<TopKQuery>,
    objects_flat: FlatMatrix,
    weights_flat: FlatMatrix,
}

impl Instance {
    /// Creates an instance, validating dimensions and finiteness.
    pub fn new(objects: Vec<Vec<f64>>, queries: Vec<TopKQuery>) -> Result<Self, ModelError> {
        let dim = objects
            .first()
            .map(|o| o.len())
            .or_else(|| queries.first().map(|q| q.weights.len()))
            .unwrap_or(0);
        for o in &objects {
            if o.len() != dim {
                return Err(ModelError::DimensionMismatch {
                    expected: dim,
                    found: o.len(),
                });
            }
            if o.iter().any(|v| !v.is_finite()) {
                return Err(ModelError::NonFinite);
            }
        }
        for q in &queries {
            if q.weights.len() != dim {
                return Err(ModelError::DimensionMismatch {
                    expected: dim,
                    found: q.weights.len(),
                });
            }
            if q.weights.iter().any(|v| !v.is_finite()) {
                return Err(ModelError::NonFinite);
            }
        }
        let objects_flat = FlatMatrix::from_rows(dim, &objects);
        let mut weights_flat = FlatMatrix::new(dim);
        for q in &queries {
            weights_flat.push_row(&q.weights);
        }
        Ok(Instance {
            dim,
            objects,
            queries,
            objects_flat,
            weights_flat,
        })
    }

    /// Attribute-space dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The objects.
    pub fn objects(&self) -> &[Vec<f64>] {
        &self.objects
    }

    /// The queries.
    pub fn queries(&self) -> &[TopKQuery] {
        &self.queries
    }

    /// Number of objects.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Number of queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// The largest `k` over all queries (0 when there are no queries).
    pub fn max_k(&self) -> usize {
        self.queries.iter().map(|q| q.k).max().unwrap_or(0)
    }

    /// One object's attribute vector.
    pub fn object(&self, i: usize) -> &[f64] {
        &self.objects[i]
    }

    /// The objects as one contiguous row-major matrix (row `i` ≡
    /// [`Instance::object`]`(i)`, bit-for-bit).
    pub fn objects_flat(&self) -> &FlatMatrix {
        &self.objects_flat
    }

    /// The query weight vectors as one contiguous row-major matrix (row
    /// `q` ≡ `queries()[q].weights`, bit-for-bit).
    pub fn weights_flat(&self) -> &FlatMatrix {
        &self.weights_flat
    }

    /// The linear score of object `i` under query `q` (Eq. 1).
    pub fn score(&self, object: usize, query: usize) -> f64 {
        naive::score(&self.objects[object], &self.queries[query].weights)
    }

    /// Applies an improvement strategy to an object in place
    /// (`p ← p + s`, Definition 1).
    pub fn apply_strategy(
        &mut self,
        target: usize,
        s: &ImprovementStrategy,
    ) -> Result<(), ModelError> {
        if target >= self.objects.len() {
            return Err(ModelError::IndexOutOfRange(target));
        }
        if s.dim() != self.dim {
            return Err(ModelError::DimensionMismatch {
                expected: self.dim,
                found: s.dim(),
            });
        }
        if !s.is_finite() {
            return Err(ModelError::NonFinite);
        }
        for (attr, delta) in self.objects[target].iter_mut().zip(s.iter()) {
            *attr += delta;
        }
        // Copy, don't re-add: the mirror must stay bit-identical to the
        // nested row, and `+=` on each side independently would be, too,
        // but copying makes the coherence self-evident.
        self.objects_flat.set_row(target, &self.objects[target]);
        Ok(())
    }

    /// Overwrites object `oid`'s attribute vector in place; the object
    /// keeps its id. The flat mirror receives a copy of the same row, as
    /// in [`Self::apply_strategy`].
    pub fn set_object(&mut self, oid: usize, attrs: &[f64]) -> Result<(), ModelError> {
        if oid >= self.objects.len() {
            return Err(ModelError::IndexOutOfRange(oid));
        }
        if attrs.len() != self.dim {
            return Err(ModelError::DimensionMismatch {
                expected: self.dim,
                found: attrs.len(),
            });
        }
        if attrs.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::NonFinite);
        }
        self.objects[oid].copy_from_slice(attrs);
        self.objects_flat.set_row(oid, attrs);
        Ok(())
    }

    /// A copy of the instance with the strategy applied — used by oracles
    /// that must not disturb the original.
    pub fn with_strategy(&self, target: usize, s: &ImprovementStrategy) -> Instance {
        let mut copy = self.clone();
        copy.apply_strategy(target, s)
            .expect("with_strategy: invalid strategy");
        copy
    }

    /// `H(p_target)` by exhaustive evaluation — the ground-truth hit count
    /// every index-accelerated path is validated against.
    pub fn hit_count_naive(&self, target: usize) -> usize {
        self.queries
            .iter()
            .filter(|q| naive::hits(&self.objects, q, target))
            .count()
    }

    /// The set `TP(p_target)` of query indices hit by the target (naive).
    pub fn hit_set_naive(&self, target: usize) -> Vec<usize> {
        self.queries
            .iter()
            .enumerate()
            .filter(|(_, q)| naive::hits(&self.objects, q, target))
            .map(|(i, _)| i)
            .collect()
    }

    /// Appends an object, returning its id.
    pub fn push_object(&mut self, attrs: Vec<f64>) -> Result<usize, ModelError> {
        if attrs.len() != self.dim {
            return Err(ModelError::DimensionMismatch {
                expected: self.dim,
                found: attrs.len(),
            });
        }
        if attrs.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::NonFinite);
        }
        self.objects_flat.push_row(&attrs);
        self.objects.push(attrs);
        Ok(self.objects.len() - 1)
    }

    /// Appends a query, returning its id.
    pub fn push_query(&mut self, query: TopKQuery) -> Result<usize, ModelError> {
        if query.weights.len() != self.dim {
            return Err(ModelError::DimensionMismatch {
                expected: self.dim,
                found: query.weights.len(),
            });
        }
        self.weights_flat.push_row(&query.weights);
        self.queries.push(query);
        Ok(self.queries.len() - 1)
    }

    /// Removes the last object (swap-free, preserving other ids).
    /// Intended for the §4.3 update tests; removing interior objects would
    /// invalidate target ids held elsewhere.
    pub fn pop_object(&mut self) -> Option<Vec<f64>> {
        let popped = self.objects.pop();
        if popped.is_some() {
            self.objects_flat.pop_row();
        }
        popped
    }

    /// Removes a query by id, shifting later ids down.
    pub fn remove_query(&mut self, query: usize) -> Option<TopKQuery> {
        if query < self.queries.len() {
            self.weights_flat.remove_row(query);
            Some(self.queries.remove(query))
        } else {
            None
        }
    }

    /// Removes a query by id in O(1): the last query takes over the removed
    /// id. Used by the incremental index-update path (§4.3), which patches
    /// the moved query's id in its own structures.
    pub fn swap_remove_query(&mut self, query: usize) -> Option<TopKQuery> {
        if query < self.queries.len() {
            self.weights_flat.swap_remove_row(query);
            Some(self.queries.swap_remove(query))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camera_instance() -> Instance {
        // Figure 1 of the paper (scores negated so "better" = lower, per
        // the workspace convention; the utility weights' signs flip).
        let objects = vec![
            vec![10.0, 2.0, 250.0], // p1
            vec![12.0, 4.0, 340.0], // p2
        ];
        let queries = vec![
            TopKQuery::new(vec![-5.0, -3.5, 0.05], 1), // q1 (negated)
            TopKQuery::new(vec![-2.5, -7.0, 0.08], 1), // q2 (negated)
        ];
        Instance::new(objects, queries).unwrap()
    }

    #[test]
    fn paper_figure1_improvement() {
        let mut inst = camera_instance();
        // Before improvement p2 wins both queries.
        assert_eq!(inst.hit_count_naive(0), 0);
        assert_eq!(inst.hit_count_naive(1), 2);
        // Apply s = {5, 2, -50} to p1 → p1' = (15, 4, 200).
        let s = Vector::from([5.0, 2.0, -50.0]);
        inst.apply_strategy(0, &s).unwrap();
        assert_eq!(inst.object(0), &[15.0, 4.0, 200.0]);
        // After improvement p1 wins both queries (paper: "p1's rank becomes
        // higher than that of p2 for both queries").
        assert_eq!(inst.hit_count_naive(0), 2);
        assert_eq!(inst.hit_count_naive(1), 0);
    }

    #[test]
    fn with_strategy_leaves_original() {
        let inst = camera_instance();
        let s = Vector::from([5.0, 2.0, -50.0]);
        let improved = inst.with_strategy(0, &s);
        assert_eq!(inst.object(0), &[10.0, 2.0, 250.0]);
        assert_eq!(improved.object(0), &[15.0, 4.0, 200.0]);
    }

    #[test]
    fn validation() {
        assert!(matches!(
            Instance::new(vec![vec![1.0], vec![1.0, 2.0]], vec![]),
            Err(ModelError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Instance::new(vec![vec![f64::NAN]], vec![]),
            Err(ModelError::NonFinite)
        ));
        assert!(matches!(
            Instance::new(vec![vec![1.0]], vec![TopKQuery::new(vec![1.0, 2.0], 1)]),
            Err(ModelError::DimensionMismatch { .. })
        ));
        let mut inst = camera_instance();
        assert!(matches!(
            inst.apply_strategy(9, &Vector::zeros(3)),
            Err(ModelError::IndexOutOfRange(9))
        ));
        assert!(matches!(
            inst.apply_strategy(0, &Vector::zeros(2)),
            Err(ModelError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mutation_helpers() {
        let mut inst = camera_instance();
        let id = inst.push_object(vec![11.0, 3.0, 300.0]).unwrap();
        assert_eq!(id, 2);
        assert_eq!(inst.num_objects(), 3);
        let qid = inst
            .push_query(TopKQuery::new(vec![-1.0, -1.0, 0.01], 2))
            .unwrap();
        assert_eq!(qid, 2);
        assert_eq!(inst.max_k(), 2);
        assert!(inst.pop_object().is_some());
        assert!(inst.remove_query(2).is_some());
        assert!(inst.remove_query(99).is_none());
        assert_eq!(inst.num_queries(), 2);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], vec![]).unwrap();
        assert_eq!(inst.dim(), 0);
        assert_eq!(inst.max_k(), 0);
    }

    fn assert_mirrors_coherent(inst: &Instance) {
        assert_eq!(inst.objects_flat().rows(), inst.num_objects());
        assert_eq!(inst.weights_flat().rows(), inst.num_queries());
        for i in 0..inst.num_objects() {
            assert_eq!(inst.objects_flat().row(i), inst.object(i), "object {i}");
        }
        for (q, query) in inst.queries().iter().enumerate() {
            assert_eq!(
                inst.weights_flat().row(q),
                query.weights.as_slice(),
                "query {q}"
            );
        }
    }

    #[test]
    fn flat_mirrors_track_every_mutation() {
        let mut inst = camera_instance();
        assert_mirrors_coherent(&inst);
        inst.apply_strategy(0, &Vector::from([5.0, 2.0, -50.0]))
            .unwrap();
        assert_mirrors_coherent(&inst);
        inst.push_object(vec![11.0, 3.0, 300.0]).unwrap();
        inst.push_query(TopKQuery::new(vec![-1.0, -1.0, 0.01], 2))
            .unwrap();
        assert_mirrors_coherent(&inst);
        inst.pop_object();
        assert_mirrors_coherent(&inst);
        inst.set_object(1, &[-0.0, 7.5, 1e-300]).unwrap();
        assert_mirrors_coherent(&inst);
        assert!(inst.set_object(5, &[0.0; 3]).is_err());
        assert!(inst.set_object(0, &[f64::NAN, 0.0, 0.0]).is_err());
        inst.swap_remove_query(0);
        assert_mirrors_coherent(&inst);
        inst.remove_query(0);
        assert_mirrors_coherent(&inst);
        inst.pop_object();
        inst.pop_object();
        assert!(inst.pop_object().is_none());
        assert_mirrors_coherent(&inst);
    }

    #[test]
    fn hit_set_matches_hit_count() {
        let inst = camera_instance();
        assert_eq!(inst.hit_set_naive(1).len(), inst.hit_count_naive(1));
        assert_eq!(inst.hit_set_naive(1), vec![0, 1]);
    }
}
