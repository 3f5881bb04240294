//! The workloads: seeded tables and a fixed per-round sequence of
//! statement kinds. The seed picks only tables, targets, values and rows,
//! so every run of a workload does the same mix of work.
//!
//! Two workloads stress opposite layers: `churn_mixed` keeps the core
//! (index build, incremental update, ESE search) busy beside writes, and
//! `point_durable` leaves the core idle while the wire, the statement path
//! and the WAL do the work. A read-only IMPROVE workload was left out: on
//! a shared 2-vCPU host its latencies swung by a third between runs, too
//! wide for any bound the benchmark may set.
//!
//! Each round's statement counts place every reported percentile (p90)
//! well inside one statement kind's latency mode.

use iq_core::{Instance, TopKQuery};
use iq_workload::queries::queries;
use iq_workload::synthetic::generate;
use iq_workload::{seed_statements, Distribution, QueryDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Attributes per object (d).
pub const DIM: usize = 3;
/// MINCOST goal τ of every IMPROVE the workloads send.
pub const TAU: usize = 5;
/// Seed table sizes: the ROADMAP probe's M size.
pub const OBJECTS: usize = 20_000;
pub const QUERIES: usize = 2_000;
/// Rows per INSERT statement when loading the seed tables.
const LOAD_BATCH: usize = 1000;
/// IMPROVE targets are objects with every attribute at least this high:
/// none starts inside a top-k, so no MINCOST answers without searching,
/// which would add a second, sub-millisecond latency mode.
const MIN_TARGET_ATTR: f64 = 0.2;
/// Queries generated beyond the seed table, drawn in order (and reused
/// cyclically) by the workloads' `INSERT INTO queries` statements.
const INSERT_POOL: usize = 20_000;

/// What a statement does, for reporting and for the traced replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Improve,
    Insert,
    Update,
    Select,
}

impl Kind {
    pub fn is_write(self) -> bool {
        matches!(self, Kind::Insert | Kind::Update)
    }
}

/// Which latency series a statement's client-observed time lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Lead,
    Side,
}

#[derive(Debug, Clone)]
pub struct Stmt {
    pub sql: String,
    pub kind: Kind,
    pub role: Role,
}

/// A workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub query_dist: QueryDistribution,
    pub k_max: usize,
    /// Durable engine (`FsyncMode::Always`) on a fresh data dir.
    pub durable: bool,
    /// Untimed rounds before the timed phase.
    pub warmup_rounds: usize,
    /// Timed rounds per second of `--seconds`, calibrated so that a run
    /// takes about that long on one CPU of a 2-vCPU host. The round count, not the
    /// clock, ends the timed phase, so every run does the same work and
    /// ends with tables of the same size.
    pub rounds_per_second: f64,
    /// Rounds replayed by the traced run.
    pub trace_rounds: usize,
    /// What one round sends, for the printed run metadata.
    pub round: &'static str,
}

pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "churn_mixed",
        query_dist: QueryDistribution::Clustered,
        k_max: 10,
        durable: false,
        warmup_rounds: 2,
        rounds_per_second: 1.3,
        trace_rounds: 8,
        round: "20 INSERT INTO queries + 1 UPDATE objects (side) + 4 IMPROVE MINCOST 5, the first rebuilding the index (lead)",
    },
    Spec {
        name: "point_durable",
        query_dist: QueryDistribution::Uniform,
        k_max: 50,
        durable: true,
        warmup_rounds: 50,
        rounds_per_second: 290.0,
        trace_rounds: 400,
        round: "3 INSERT INTO queries + 1 UPDATE objects (lead) + 4 SELECT by id (side)",
    },
];

pub fn by_name(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The ids of the objects an IMPROVE may target.
pub fn eligible_targets(objects: &[Vec<f64>]) -> Vec<usize> {
    (0..objects.len())
        .filter(|&i| objects[i].iter().all(|&a| a >= MIN_TARGET_ATTR))
        .collect()
}

impl Spec {
    /// The timed rounds of a `seconds`-long run.
    pub fn timed_rounds(&self, seconds: u64) -> usize {
        (seconds as f64 * self.rounds_per_second).ceil() as usize
    }
}

/// A seeded instance of a workload: its seed tables and its statement
/// stream. Two `Workload`s built from the same spec and seed produce the
/// same statements in the same order.
pub struct Workload {
    pub spec: Spec,
    /// `CREATE TABLE` + batched `INSERT` statements loading the seed
    /// tables (objects have ids `0..n`).
    pub load: Vec<String>,
    /// Queries from the seed table's own distribution, for INSERTs.
    pool: Vec<TopKQuery>,
    next_pool: usize,
    /// Ids of the objects IMPROVE may target.
    targets: Vec<usize>,
    rng: StdRng,
}

impl Workload {
    pub fn new(spec: Spec, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let objects = generate(Distribution::Independent, OBJECTS, DIM, &mut rng);
        let mut all = queries(
            spec.query_dist,
            QUERIES + INSERT_POOL,
            DIM,
            1..=spec.k_max,
            &mut rng,
        );
        let pool = all.split_off(QUERIES);
        let targets = eligible_targets(&objects);
        let instance = Instance::new(objects, all).expect("generated tables are consistent");
        let load = seed_statements(&instance, "objects", "queries", LOAD_BATCH);
        Workload {
            spec,
            load,
            pool,
            next_pool: 0,
            targets,
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_5eed_5eed_5eed),
        }
    }

    fn row(&mut self) -> usize {
        self.rng.gen_range(0..OBJECTS)
    }

    fn target(&mut self) -> usize {
        self.targets[self.rng.gen_range(0..self.targets.len())]
    }

    /// A read-only MINCOST IMPROVE on a seeded target.
    pub fn mincost(&mut self) -> String {
        let t = self.target();
        format!("IMPROVE objects USING queries WHERE id = {t} MINCOST {TAU}")
    }

    fn insert_query(&mut self) -> String {
        let q = &self.pool[self.next_pool % self.pool.len()];
        self.next_pool += 1;
        let w = &q.weights;
        format!(
            "INSERT INTO queries VALUES ({}, {}, {}, {})",
            w[0], w[1], w[2], q.k
        )
    }

    /// An attribute UPDATE on a seeded row. The new value keeps every
    /// IMPROVE target eligible.
    fn update_object(&mut self) -> String {
        let attr = self.rng.gen_range(1..=DIM);
        let v: f64 = self.rng.gen_range(MIN_TARGET_ATTR..1.0);
        let t = self.row();
        format!("UPDATE objects SET a{attr} = {v} WHERE id = {t}")
    }

    /// A point SELECT on a seeded row.
    pub fn select(&mut self) -> String {
        let t = self.row();
        format!("SELECT * FROM objects WHERE id = {t}")
    }

    /// The next round of the stream.
    pub fn round(&mut self) -> Vec<Stmt> {
        let stmt = |sql, kind, role| Stmt { sql, kind, role };
        let mut out = Vec::new();
        match self.spec.name {
            "churn_mixed" => {
                out.extend(self.inserts(20, Role::Side));
                out.push(stmt(self.update_object(), Kind::Update, Role::Side));
                for _ in 0..4 {
                    out.push(stmt(self.mincost(), Kind::Improve, Role::Lead));
                }
            }
            "point_durable" => {
                out.extend(self.inserts(3, Role::Lead));
                out.push(stmt(self.update_object(), Kind::Update, Role::Lead));
                for _ in 0..4 {
                    out.push(stmt(self.select(), Kind::Select, Role::Side));
                }
            }
            other => unreachable!("unknown workload {other}"),
        }
        out
    }

    /// `n` single-row `INSERT INTO queries` statements.
    pub fn inserts(&mut self, n: usize, role: Role) -> Vec<Stmt> {
        (0..n)
            .map(|_| Stmt {
                sql: self.insert_query(),
                kind: Kind::Insert,
                role,
            })
            .collect()
    }
}
