//! Shared experiment harness for the paper's evaluation (§6.2–§6.3).
//!
//! Every figure is a sweep over one parameter with the rest pinned to the
//! Table 2 defaults. [`Settings`] holds those defaults, scaled by the
//! `IQ_SCALE` environment variable (default 0.02) so the full suite runs
//! on a laptop in minutes — the RTA-IQ comparator is the long pole, its
//! per-query cost growing with `|D|·|Q|`. `IQ_SCALE=1` reproduces the
//! paper-scale setup (expect hours, dominated by RTA-IQ, exactly as the
//! paper reports).
//!
//! The harness measures the two §6.3.2 metrics — average IQ processing
//! time and average cost-per-hit-query — for the four schemes of §6.1
//! (Efficient-IQ, RTA-IQ, Greedy, Random), plus the §6.3.1 indexing
//! metrics (build time, index size as a fraction of the raw data).

use iq_core::baselines::{greedy_iq, random_max_hit_iq, random_min_cost_iq};
use iq_core::search::ese_evaluator;
use iq_core::{
    max_hit_iq, min_cost_iq, EuclideanCost, Instance, QueryIndex, SearchOptions, StrategyBounds,
};
use iq_topk::DominantGraph;
use iq_workload::{standard_instance, Distribution, QueryDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The wall clock.
#[expect(
    clippy::disallowed_methods,
    reason = "this crate times what it runs, so it reads the clock, but only here"
)]
fn now() -> Instant {
    Instant::now()
}

/// Table 2 of the paper, scaled by `IQ_SCALE`.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Default number of objects (paper: 100,000).
    pub num_objects: usize,
    /// Object-count sweep (paper: 50,000 – 200,000).
    pub object_sweep: Vec<usize>,
    /// Default number of queries (paper: 10,000).
    pub num_queries: usize,
    /// Query-count sweep (paper: 5,000 – 15,000).
    pub query_sweep: Vec<usize>,
    /// Default τ (paper: 250; sampled from 100 – 500 per query).
    pub tau: usize,
    /// τ sampling range.
    pub tau_range: (usize, usize),
    /// Default β (paper: 50; sampled from 10 – 100 per query).
    pub beta: f64,
    /// β sampling range.
    pub beta_range: (f64, f64),
    /// Dimensionality (paper default: 3, swept 1 – 5 in Fig. 13).
    pub dims: usize,
    /// Maximum per-query k (paper: 50).
    pub k_max: usize,
    /// IQs issued per measurement point (paper: 100 + 100).
    pub iqs_per_point: usize,
}

impl Settings {
    /// Builds the settings from `IQ_SCALE` (default 0.02).
    pub fn from_env() -> Self {
        let scale: f64 = std::env::var("IQ_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.02);
        Self::with_scale(scale)
    }

    /// Builds the settings at an explicit scale factor.
    pub fn with_scale(scale: f64) -> Self {
        let s = |v: usize| ((v as f64 * scale).round() as usize).max(8);
        Settings {
            num_objects: s(100_000),
            object_sweep: vec![s(50_000), s(100_000), s(150_000), s(200_000)],
            num_queries: s(10_000),
            query_sweep: vec![s(5_000), s(10_000), s(15_000)],
            tau: s(250),
            tau_range: (s(100), s(500)),
            beta: (50.0 * scale).max(0.5),
            beta_range: ((10.0 * scale).max(0.1), (100.0 * scale).max(1.0)),
            dims: 3,
            k_max: 50.min(s(50)).max(2),
            iqs_per_point: ((10.0 * scale.sqrt() * 3.0).round() as usize).clamp(4, 100),
        }
    }

    /// Tiny settings for smoke tests and Criterion benches.
    pub fn tiny() -> Self {
        Settings {
            num_objects: 400,
            object_sweep: vec![200, 400],
            num_queries: 150,
            query_sweep: vec![100, 150],
            tau: 10,
            tau_range: (5, 15),
            beta: 1.0,
            beta_range: (0.3, 1.5),
            dims: 3,
            k_max: 10,
            iqs_per_point: 4,
        }
    }
}

/// The four IQ-processing schemes of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's contribution: subdomain index + ESE.
    EfficientIq,
    /// Same search, RTA-based evaluation.
    RtaIq,
    /// Cheapest-query-first greedy.
    Greedy,
    /// Random strategy sampling.
    Random,
}

impl Scheme {
    /// All four schemes in the paper's plotting order.
    pub const ALL: [Scheme; 4] = [
        Scheme::EfficientIq,
        Scheme::RtaIq,
        Scheme::Greedy,
        Scheme::Random,
    ];

    /// The label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::EfficientIq => "Efficient-IQ",
            Scheme::RtaIq => "RTA-IQ",
            Scheme::Greedy => "Greedy",
            Scheme::Random => "Random",
        }
    }
}

/// Indexing metrics for one configuration (Figs. 4–6).
#[derive(Debug, Clone)]
pub struct IndexCosts {
    /// Efficient-IQ's subdomain index build time (seconds).
    pub efficient_time: f64,
    /// Efficient-IQ's index size as a percentage of the raw dataset bytes.
    pub efficient_size_pct: f64,
    /// Plain R-tree build time over the query points (seconds).
    pub rtree_time: f64,
    /// Plain R-tree size percentage.
    pub rtree_size_pct: f64,
    /// Dominant Graph build time over the objects (seconds).
    pub dominant_graph_time: f64,
    /// Dominant Graph size percentage.
    pub dominant_graph_size_pct: f64,
}

/// Raw dataset footprint: objects + queries as packed f64 rows.
fn data_bytes(instance: &Instance) -> usize {
    (instance.num_objects() + instance.num_queries()) * instance.dim() * 8
        + instance.num_queries() * 8
}

/// Measures all three indexing schemes on one instance.
pub fn measure_index_costs(instance: &Instance) -> IndexCosts {
    let base = data_bytes(instance).max(1) as f64;

    let t0 = now();
    let qindex = QueryIndex::build(instance);
    let efficient_time = t0.elapsed().as_secs_f64();
    let efficient_size_pct = 100.0 * qindex.size_bytes() as f64 / base;

    // The bare R-tree comparator is STR bulk-loaded, like the subdomain
    // index's own tree (DESIGN.md §8).
    let t0 = now();
    let rtree = iq_index::RTree::bulk(
        instance.dim().max(1),
        instance.weights_flat().iter_rows().zip(0usize..),
    );
    let rtree_time = t0.elapsed().as_secs_f64();
    let rtree_size_pct = 100.0 * rtree.size_bytes() as f64 / base;

    let t0 = now();
    let dg = DominantGraph::build(instance.objects_flat());
    let dominant_graph_time = t0.elapsed().as_secs_f64();
    let dominant_graph_size_pct = 100.0 * dg.size_bytes() as f64 / base;

    IndexCosts {
        efficient_time,
        efficient_size_pct,
        rtree_time,
        rtree_size_pct,
        dominant_graph_time,
        dominant_graph_size_pct,
    }
}

/// Processing metrics for one (configuration, scheme) pair (Figs. 7–13).
#[derive(Debug, Clone)]
pub struct ProcessingMetrics {
    /// Average wall-clock time per IQ (milliseconds), indexing excluded.
    pub avg_time_ms: f64,
    /// Average cost per hit query (the paper's unified quality metric).
    pub avg_cost_per_hit: f64,
    /// IQs issued.
    pub issued: usize,
}

/// Issues a mixed batch of Min-Cost and Max-Hit IQs with randomly drawn
/// targets, τ, and β (as §6.3.2 does), and reports averages.
pub fn measure_processing(
    instance: &Instance,
    scheme: Scheme,
    settings: &Settings,
    opts: &SearchOptions,
    seed: u64,
) -> ProcessingMetrics {
    let mut rng = StdRng::seed_from_u64(seed);
    let index = QueryIndex::build_with(instance, &opts.exec);
    let bounds = StrategyBounds::unbounded(instance.dim());
    let cost = EuclideanCost;

    let mut total_time = 0.0f64;
    let mut ratio_sum = 0.0f64;
    let mut ratio_count = 0usize;
    let issued = settings.iqs_per_point.max(2);

    for i in 0..issued {
        let target = rng.gen_range(0..instance.num_objects());
        let min_cost_kind = i % 2 == 0;
        let tau = rng
            .gen_range(settings.tau_range.0..=settings.tau_range.1.max(settings.tau_range.0 + 1))
            .min(instance.num_queries());
        let beta = rng.gen_range(settings.beta_range.0..=settings.beta_range.1);

        let t0 = now();
        let report = match (scheme, min_cost_kind) {
            (Scheme::EfficientIq, true) => {
                min_cost_iq(instance, &index, target, tau, &cost, &bounds, opts)
            }
            (Scheme::EfficientIq, false) => {
                max_hit_iq(instance, &index, target, beta, &cost, &bounds, opts)
            }
            (Scheme::RtaIq, true) => {
                iq_core::baselines::rta_min_cost_iq(instance, target, tau, &cost, &bounds, opts)
            }
            (Scheme::RtaIq, false) => {
                iq_core::baselines::rta_max_hit_iq(instance, target, beta, &cost, &bounds, opts)
            }
            (Scheme::Greedy, true) => {
                let mut ev = ese_evaluator(instance, &index, target, &opts.exec);
                greedy_iq(&mut ev, Some(tau), None, &cost, &bounds, opts)
            }
            (Scheme::Greedy, false) => {
                let mut ev = ese_evaluator(instance, &index, target, &opts.exec);
                greedy_iq(&mut ev, None, Some(beta), &cost, &bounds, opts)
            }
            (Scheme::Random, true) => {
                let mut ev = ese_evaluator(instance, &index, target, &opts.exec);
                random_min_cost_iq(&mut ev, tau, &cost, &bounds, &mut rng, 500)
            }
            (Scheme::Random, false) => {
                let mut ev = ese_evaluator(instance, &index, target, &opts.exec);
                random_max_hit_iq(&mut ev, beta, &cost, &bounds, &mut rng, 500)
            }
        };
        total_time += t0.elapsed().as_secs_f64();

        // The paper's unified quality metric: average cost per hit query of
        // the returned strategy (§6.3.2), lower is better.
        //
        // * No-op results (zero cost — goal already met or the scheme gave
        //   up) say nothing about strategy quality: excluded, uniformly.
        // * A Min-Cost IQ's goal is τ hits: credit is capped at τ, so a
        //   blind overshoot (Random's signature move) cannot launder a huge
        //   cost through hits nobody asked for.
        // * A Max-Hit IQ's spend is budget-capped for everyone, so the raw
        //   hits-after denominator is fair.
        // * Paid-but-hit-nothing strategies are charged their full cost.
        if report.cost > 0.0 {
            let credited = if min_cost_kind {
                report.hits_after.min(tau)
            } else {
                report.hits_after
            };
            ratio_sum += if credited > 0 {
                report.cost / credited as f64
            } else {
                report.cost
            };
            ratio_count += 1;
        }
    }

    ProcessingMetrics {
        avg_time_ms: 1000.0 * total_time / issued as f64,
        avg_cost_per_hit: if ratio_count == 0 {
            0.0
        } else {
            ratio_sum / ratio_count as f64
        },
        issued,
    }
}

/// Runs one Min-Cost IQ under the given scheme — the unit of work the
/// per-figure Criterion benches time. The query index is passed in so the
/// measurement covers only IQ processing, matching the paper's metric.
pub fn run_one_min_cost(
    instance: &Instance,
    index: &QueryIndex,
    scheme: Scheme,
    target: usize,
    tau: usize,
    opts: &SearchOptions,
    seed: u64,
) -> iq_core::IqReport {
    let bounds = StrategyBounds::unbounded(instance.dim());
    let cost = EuclideanCost;
    match scheme {
        Scheme::EfficientIq => min_cost_iq(instance, index, target, tau, &cost, &bounds, opts),
        Scheme::RtaIq => {
            iq_core::baselines::rta_min_cost_iq(instance, target, tau, &cost, &bounds, opts)
        }
        Scheme::Greedy => {
            let mut ev = ese_evaluator(instance, index, target, &opts.exec);
            greedy_iq(&mut ev, Some(tau), None, &cost, &bounds, opts)
        }
        Scheme::Random => {
            let mut ev = ese_evaluator(instance, index, target, &opts.exec);
            let mut rng = StdRng::seed_from_u64(seed);
            random_min_cost_iq(&mut ev, tau, &cost, &bounds, &mut rng, 300)
        }
    }
}

/// Builds the instance for one experiment point.
pub fn build_instance(
    dist: Distribution,
    qdist: QueryDistribution,
    n: usize,
    m: usize,
    d: usize,
    k_max: usize,
    seed: u64,
) -> Instance {
    standard_instance(dist, qdist, n, m, d, k_max, seed)
}

/// Prints Table 2 (the experiment settings actually in force).
pub fn print_settings(settings: &Settings) {
    println!("Table 2 — experiment settings (IQ_SCALE-adjusted)");
    println!(
        "  |D| default {} (sweep {:?})",
        settings.num_objects, settings.object_sweep
    );
    println!(
        "  |Q| default {} (sweep {:?})",
        settings.num_queries, settings.query_sweep
    );
    println!(
        "  tau default {} (range {}..={})",
        settings.tau, settings.tau_range.0, settings.tau_range.1
    );
    println!(
        "  beta default {} (range {}..={})",
        settings.beta, settings.beta_range.0, settings.beta_range.1
    );
    println!(
        "  dims {}  k_max {}  IQs/point {}",
        settings.dims, settings.k_max, settings.iqs_per_point
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_scale_sanely() {
        let s = Settings::with_scale(0.01);
        assert_eq!(s.num_objects, 1000);
        assert_eq!(s.query_sweep, vec![50, 100, 150]);
        let full = Settings::with_scale(1.0);
        assert_eq!(full.num_objects, 100_000);
        assert_eq!(full.tau, 250);
    }

    #[test]
    fn index_costs_smoke() {
        let s = Settings::tiny();
        let inst = build_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            s.num_objects,
            s.num_queries,
            s.dims,
            s.k_max,
            1,
        );
        let c = measure_index_costs(&inst);
        assert!(c.efficient_time >= 0.0);
        assert!(c.efficient_size_pct > 0.0);
        assert!(c.rtree_size_pct > 0.0);
        assert!(c.dominant_graph_size_pct > 0.0);
        // The subdomain index carries more than a bare R-tree.
        assert!(c.efficient_size_pct >= c.rtree_size_pct);
    }

    #[test]
    fn processing_smoke_all_schemes() {
        let s = Settings::tiny();
        let inst = build_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            200,
            80,
            3,
            5,
            2,
        );
        let tiny = Settings {
            iqs_per_point: 2,
            tau_range: (3, 6),
            beta_range: (0.2, 0.5),
            ..s
        };
        for scheme in Scheme::ALL {
            let m = measure_processing(&inst, scheme, &tiny, &SearchOptions::default(), 3);
            assert_eq!(m.issued, 2);
            assert!(m.avg_time_ms >= 0.0, "{scheme:?}");
            assert!(m.avg_cost_per_hit.is_finite(), "{scheme:?}");
        }
    }
}
