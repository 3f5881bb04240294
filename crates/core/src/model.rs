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
use std::sync::OnceLock;

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

/// The one row validator of every [`Instance`] writer: `row` must have
/// dimension `dim` and finite coordinates.
fn check_row(dim: usize, row: &[f64]) -> Result<(), ModelError> {
    if row.len() != dim {
        return Err(ModelError::DimensionMismatch {
            expected: dim,
            found: row.len(),
        });
    }
    if row.iter().any(|v| !v.is_finite()) {
        return Err(ModelError::NonFinite);
    }
    Ok(())
}

/// A dataset of objects plus the top-k query workload over them.
///
/// Stored as rows, once: object `i` is row `i` of [`Instance::objects_flat`]
/// and query `q` is row `q` of [`Instance::weights_flat`] plus its result
/// size [`Instance::k`]. The batched scoring kernels stream through the
/// same rows every accessor hands out (DESIGN.md §9). Every writer checks
/// its input with one validator before it changes anything, so a rejected
/// write leaves the instance as it was.
#[derive(Debug, Clone)]
pub struct Instance {
    objects: FlatMatrix,
    weights: FlatMatrix,
    ks: Vec<usize>,
    /// The nested rows of [`Instance::objects`]/[`Instance::queries`],
    /// copied from the matrices on first call and dropped by every write.
    nested: OnceLock<(Vec<Vec<f64>>, Vec<TopKQuery>)>,
}

impl Instance {
    /// Creates an instance, validating dimensions and finiteness.
    pub fn new(objects: Vec<Vec<f64>>, queries: Vec<TopKQuery>) -> Result<Self, ModelError> {
        let dim = objects
            .first()
            .map(|o| o.len())
            .or_else(|| queries.first().map(|q| q.weights.len()))
            .unwrap_or(0);
        for row in objects.iter().chain(queries.iter().map(|q| &q.weights)) {
            if row.len() != dim {
                return Err(ModelError::DimensionMismatch {
                    expected: dim,
                    found: row.len(),
                });
            }
        }
        let weights: Vec<&[f64]> = queries.iter().map(|q| q.weights.as_slice()).collect();
        Self::from_rows(
            FlatMatrix::from_rows(dim, &objects),
            FlatMatrix::from_rows(dim, &weights),
            queries.iter().map(|q| q.k).collect(),
        )
    }

    /// Creates an instance straight from its rows: object `i` is row `i`
    /// of `objects`, query `q` is row `q` of `weights` with result size
    /// `ks[q]`. Validates as [`Self::new`] does.
    pub fn from_rows(
        objects: FlatMatrix,
        weights: FlatMatrix,
        ks: Vec<usize>,
    ) -> Result<Self, ModelError> {
        let dim = objects.dim();
        if weights.dim() != dim {
            return Err(ModelError::DimensionMismatch {
                expected: dim,
                found: weights.dim(),
            });
        }
        assert_eq!(weights.rows(), ks.len(), "one k per weight row");
        for row in objects.iter_rows().chain(weights.iter_rows()) {
            check_row(dim, row)?;
        }
        Ok(Instance {
            objects,
            weights,
            ks,
            nested: OnceLock::new(),
        })
    }

    /// Attribute-space dimensionality.
    pub fn dim(&self) -> usize {
        self.objects.dim()
    }

    /// The objects as nested rows: a copy of [`Self::objects_flat`], built
    /// on first call and kept until the next write. Kept for callers
    /// outside this workspace; read rows with [`Self::object`].
    pub fn objects(&self) -> &[Vec<f64>] {
        &self.nested().0
    }

    /// The queries as [`TopKQuery`] values: a copy built like
    /// [`Self::objects`]. Read rows with [`Self::weights`] and [`Self::k`].
    pub fn queries(&self) -> &[TopKQuery] {
        &self.nested().1
    }

    fn nested(&self) -> &(Vec<Vec<f64>>, Vec<TopKQuery>) {
        self.nested.get_or_init(|| {
            let objects = self.objects.iter_rows().map(<[f64]>::to_vec).collect();
            let queries = (0..self.num_queries())
                .map(|q| TopKQuery {
                    weights: self.weights(q).to_vec(),
                    k: self.k(q),
                })
                .collect();
            (objects, queries)
        })
    }

    /// Number of objects.
    pub fn num_objects(&self) -> usize {
        self.objects.rows()
    }

    /// Number of queries.
    pub fn num_queries(&self) -> usize {
        self.ks.len()
    }

    /// The largest `k` over all queries (0 when there are no queries).
    pub fn max_k(&self) -> usize {
        self.ks.iter().copied().max().unwrap_or(0)
    }

    /// One object's attribute vector.
    pub fn object(&self, i: usize) -> &[f64] {
        self.objects.row(i)
    }

    /// One query's weight vector.
    pub fn weights(&self, q: usize) -> &[f64] {
        self.weights.row(q)
    }

    /// One query's result size `k`.
    pub fn k(&self, q: usize) -> usize {
        self.ks[q]
    }

    /// The result sizes of all queries, by query id.
    pub fn ks(&self) -> &[usize] {
        &self.ks
    }

    /// The objects as one contiguous row-major matrix (row `i` is
    /// [`Instance::object`]`(i)`).
    pub fn objects_flat(&self) -> &FlatMatrix {
        &self.objects
    }

    /// The query weight vectors as one contiguous row-major matrix (row
    /// `q` is [`Instance::weights`]`(q)`).
    pub fn weights_flat(&self) -> &FlatMatrix {
        &self.weights
    }

    /// The linear score of object `i` under query `q` (Eq. 1).
    pub fn score(&self, object: usize, query: usize) -> f64 {
        naive::score(self.object(object), self.weights(query))
    }

    /// Validates a write to object `oid` and drops the nested copy.
    fn check_object_write(&mut self, oid: usize, row: &[f64]) -> Result<(), ModelError> {
        if oid >= self.num_objects() {
            return Err(ModelError::IndexOutOfRange(oid));
        }
        check_row(self.dim(), row)?;
        self.nested.take();
        Ok(())
    }

    /// Applies an improvement strategy to an object in place
    /// (`p ← p + s`, Definition 1).
    pub fn apply_strategy(
        &mut self,
        target: usize,
        s: &ImprovementStrategy,
    ) -> Result<(), ModelError> {
        self.check_object_write(target, s.as_slice())?;
        self.objects.add_to_row(target, s.as_slice());
        Ok(())
    }

    /// Overwrites object `oid`'s attribute vector in place; the object
    /// keeps its id.
    pub fn set_object(&mut self, oid: usize, attrs: &[f64]) -> Result<(), ModelError> {
        self.check_object_write(oid, attrs)?;
        self.objects.set_row(oid, attrs);
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
        self.hit_set_naive(target).len()
    }

    /// The set `TP(p_target)` of query indices hit by the target (naive).
    pub fn hit_set_naive(&self, target: usize) -> Vec<usize> {
        (0..self.num_queries())
            .filter(|&q| naive::hits(&self.objects, self.weights(q), self.k(q), target))
            .collect()
    }

    /// Appends an object, returning its id.
    pub fn push_object(&mut self, attrs: &[f64]) -> Result<usize, ModelError> {
        check_row(self.dim(), attrs)?;
        self.nested.take();
        self.objects.push_row(attrs);
        Ok(self.num_objects() - 1)
    }

    /// Appends a query with weight vector `weights` and result size `k`,
    /// returning its id.
    pub fn push_query(&mut self, weights: &[f64], k: usize) -> Result<usize, ModelError> {
        check_row(self.dim(), weights)?;
        self.nested.take();
        self.weights.push_row(weights);
        self.ks.push(k);
        Ok(self.num_queries() - 1)
    }

    /// Removes the last object (swap-free, preserving other ids).
    /// Intended for the §4.3 update tests; removing interior objects would
    /// invalidate target ids held elsewhere.
    pub fn pop_object(&mut self) -> Option<Vec<f64>> {
        let last = self.num_objects().checked_sub(1)?;
        self.nested.take();
        let popped = self.object(last).to_vec();
        self.objects.pop_row();
        Some(popped)
    }

    /// Removes a query by id in O(1): the last query takes over the removed
    /// id. Used by the incremental index-update path (§4.3), which patches
    /// the moved query's id in its own structures.
    pub fn swap_remove_query(&mut self, query: usize) -> Option<TopKQuery> {
        if query >= self.num_queries() {
            return None;
        }
        self.nested.take();
        let removed = TopKQuery {
            weights: self.weights(query).to_vec(),
            k: self.ks.swap_remove(query),
        };
        self.weights.swap_remove_row(query);
        Some(removed)
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
        let id = inst.push_object(&[11.0, 3.0, 300.0]).unwrap();
        assert_eq!(id, 2);
        assert_eq!(inst.num_objects(), 3);
        let qid = inst.push_query(&[-1.0, -1.0, 0.01], 2).unwrap();
        assert_eq!(qid, 2);
        assert_eq!((inst.weights(2), inst.k(2)), (&[-1.0, -1.0, 0.01][..], 2));
        assert_eq!(inst.max_k(), 2);
        assert_eq!(inst.pop_object(), Some(vec![11.0, 3.0, 300.0]));
        let removed = inst.swap_remove_query(0).unwrap();
        assert_eq!(removed, TopKQuery::new(vec![-5.0, -3.5, 0.05], 1));
        // The last query took over id 0.
        assert_eq!(inst.weights(0), &[-1.0, -1.0, 0.01]);
        assert!(inst.swap_remove_query(99).is_none());
        assert_eq!(inst.num_queries(), 2);
    }

    #[test]
    fn every_writer_rejects_a_bad_row_and_changes_nothing() {
        let mut inst = camera_instance();
        let before = format!("{inst:?}");
        let nan = [f64::NAN, 0.0, 0.0];
        assert_eq!(inst.push_query(&nan, 1), Err(ModelError::NonFinite));
        assert_eq!(
            inst.push_query(&[f64::INFINITY, 0.0, 0.0], 1),
            Err(ModelError::NonFinite)
        );
        assert!(matches!(
            inst.push_query(&[1.0], 1),
            Err(ModelError::DimensionMismatch { .. })
        ));
        assert_eq!(inst.push_object(&nan), Err(ModelError::NonFinite));
        assert_eq!(inst.set_object(0, &nan), Err(ModelError::NonFinite));
        assert_eq!(
            inst.set_object(5, &[0.0; 3]),
            Err(ModelError::IndexOutOfRange(5))
        );
        assert_eq!(
            inst.apply_strategy(0, &Vector::from(nan)),
            Err(ModelError::NonFinite)
        );
        assert_eq!(format!("{inst:?}"), before);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], vec![]).unwrap();
        assert_eq!(inst.dim(), 0);
        assert_eq!(inst.max_k(), 0);
    }

    /// The nested copy equals the rows after every kind of write.
    #[expect(
        clippy::disallowed_methods,
        reason = "the nested copy's own coherence test reads the copy"
    )]
    fn assert_copy_coherent(inst: &Instance) {
        assert_eq!(inst.objects().len(), inst.num_objects());
        assert_eq!(inst.queries().len(), inst.num_queries());
        for (i, o) in inst.objects().iter().enumerate() {
            assert_eq!(o.as_slice(), inst.object(i), "object {i}");
        }
        for (q, query) in inst.queries().iter().enumerate() {
            assert_eq!(query.weights.as_slice(), inst.weights(q), "query {q}");
            assert_eq!(query.k, inst.k(q), "query {q}");
        }
    }

    #[test]
    fn nested_copy_tracks_every_write() {
        let mut inst = camera_instance();
        assert_copy_coherent(&inst);
        inst.apply_strategy(0, &Vector::from([5.0, 2.0, -50.0]))
            .unwrap();
        assert_copy_coherent(&inst);
        inst.push_object(&[11.0, 3.0, 300.0]).unwrap();
        assert_copy_coherent(&inst);
        inst.push_query(&[-1.0, -1.0, 0.01], 2).unwrap();
        assert_copy_coherent(&inst);
        inst.pop_object();
        assert_copy_coherent(&inst);
        inst.set_object(1, &[-0.0, 7.5, 1e-300]).unwrap();
        assert_copy_coherent(&inst);
        inst.swap_remove_query(0);
        assert_copy_coherent(&inst);
        inst.pop_object();
        inst.pop_object();
        assert!(inst.pop_object().is_none());
        assert_copy_coherent(&inst);
    }

    #[test]
    fn hit_set_matches_hit_count() {
        let inst = camera_instance();
        assert_eq!(inst.hit_set_naive(1).len(), inst.hit_count_naive(1));
        assert_eq!(inst.hit_set_naive(1), vec![0, 1]);
    }
}
