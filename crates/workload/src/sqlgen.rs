//! SQL workload generation for the serving layer: renders an [`Instance`]
//! as seed DDL/DML and emits a deterministic, seeded stream of follow-up
//! statements (the `loadgen` client's request mix).
//!
//! This module produces **SQL strings only** — `iq-workload` sits below
//! `iq-dbms` in the crate graph, so it cannot name parser types. The
//! contract with the DBMS layer is purely textual: object tables are
//! `(id INT, a1..ad FLOAT)`, query tables `(w1..wd FLOAT, k INT)`,
//! matching the `IMPROVE` conventions (`iq_dbms::iqext`).
//!
//! Floats are rendered with Rust's shortest round-trip `Display`, which
//! the DBMS lexer parses back to the identical bit pattern — so a
//! SQL-seeded session scores objects bitwise the same as an in-process
//! instance, and replays of the same seed are byte-identical.

use iq_core::Instance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Renders `CREATE TABLE` + batched `INSERT` statements that load
/// `instance` into tables named `objects` and `queries`. `batch` caps rows
/// per INSERT (clamped to ≥ 1).
pub fn seed_statements(
    instance: &Instance,
    objects: &str,
    queries: &str,
    batch: usize,
) -> Vec<String> {
    let d = instance.dim();
    let batch = batch.max(1);
    let mut out = Vec::new();

    let mut create = format!("CREATE TABLE {objects} (id INT");
    for j in 0..d {
        let _ = write!(create, ", a{} FLOAT", j + 1);
    }
    create.push(')');
    out.push(create);

    let mut create = format!("CREATE TABLE {queries} (");
    for j in 0..d {
        let _ = write!(create, "w{} FLOAT, ", j + 1);
    }
    create.push_str("k INT)");
    out.push(create);

    for chunk_start in (0..instance.num_objects()).step_by(batch) {
        let mut stmt = format!("INSERT INTO {objects} VALUES ");
        for (n, i) in (chunk_start..(chunk_start + batch).min(instance.num_objects())).enumerate() {
            if n > 0 {
                stmt.push_str(", ");
            }
            let _ = write!(stmt, "({i}");
            for &v in instance.object(i) {
                let _ = write!(stmt, ", {v}");
            }
            stmt.push(')');
        }
        out.push(stmt);
    }

    for chunk_start in (0..instance.num_queries()).step_by(batch) {
        let mut stmt = format!("INSERT INTO {queries} VALUES ");
        for (n, qi) in (chunk_start..(chunk_start + batch).min(instance.num_queries())).enumerate()
        {
            if n > 0 {
                stmt.push_str(", ");
            }
            stmt.push('(');
            for &w in instance.weights(qi) {
                let _ = write!(stmt, "{w}, ");
            }
            let _ = write!(stmt, "{})", instance.k(qi));
        }
        out.push(stmt);
    }

    out
}

/// Relative weights of the statement kinds a [`SqlStream`] emits.
#[derive(Debug, Clone, Copy)]
pub struct StatementMix {
    /// `SELECT … FROM objects` point/range reads.
    pub select: u32,
    /// Read-only `IMPROVE … MINCOST` analytic queries.
    pub improve: u32,
    /// `INSERT INTO queries` (a new top-k query joins the workload).
    pub insert_query: u32,
    /// `UPDATE objects SET a1 = …` attribute writes.
    pub update_object: u32,
}

impl Default for StatementMix {
    /// Read-heavy serving mix: mostly IMPROVE with some SELECT and a
    /// trickle of writes.
    fn default() -> Self {
        StatementMix {
            select: 30,
            improve: 60,
            insert_query: 5,
            update_object: 5,
        }
    }
}

impl StatementMix {
    /// A pure-read mix (no writes ever) — what the determinism stress
    /// tests replay concurrently.
    pub fn read_only() -> Self {
        StatementMix {
            select: 40,
            improve: 60,
            insert_query: 0,
            update_object: 0,
        }
    }
}

/// A deterministic statement stream: same construction parameters ⇒ same
/// statement sequence, statement by statement.
#[derive(Debug)]
pub struct SqlStream {
    rng: StdRng,
    mix: StatementMix,
    objects: String,
    queries: String,
    num_objects: usize,
    dim: usize,
    tau: usize,
}

impl SqlStream {
    /// A stream over tables shaped like `instance` (object count, dim),
    /// using `tau` as the MINCOST goal. Statements refer to tables
    /// `objects` / `queries` by the given names.
    pub fn new(
        instance: &Instance,
        objects: &str,
        queries: &str,
        mix: StatementMix,
        tau: usize,
        seed: u64,
    ) -> Self {
        SqlStream {
            rng: StdRng::seed_from_u64(seed),
            mix,
            objects: objects.to_string(),
            queries: queries.to_string(),
            num_objects: instance.num_objects(),
            dim: instance.dim(),
            tau: tau.max(1),
        }
    }

    /// The next statement in the stream (the stream is infinite).
    pub fn next_statement(&mut self) -> String {
        let total =
            self.mix.select + self.mix.improve + self.mix.insert_query + self.mix.update_object;
        let mut pick = self.rng.gen_range(0..total.max(1));
        let oid = self.rng.gen_range(0..self.num_objects.max(1));
        if pick < self.mix.select {
            return format!("SELECT id, a1 FROM {} WHERE id = {oid}", self.objects);
        }
        pick -= self.mix.select;
        if pick < self.mix.improve {
            return format!(
                "IMPROVE {} USING {} WHERE id = {oid} MINCOST {}",
                self.objects, self.queries, self.tau
            );
        }
        pick -= self.mix.improve;
        if pick < self.mix.insert_query {
            let mut stmt = format!("INSERT INTO {} VALUES (", self.queries);
            let mut raw: Vec<f64> = (0..self.dim).map(|_| self.rng.gen::<f64>()).collect();
            let sum: f64 = raw.iter().sum();
            if sum > 0.0 {
                for w in &mut raw {
                    *w /= sum;
                }
            }
            for w in &raw {
                let _ = write!(stmt, "{w}, ");
            }
            let _ = write!(stmt, "{})", self.rng.gen_range(1..=3usize));
            return stmt;
        }
        let attr = self.rng.gen_range(0..self.dim.max(1)) + 1;
        let v: f64 = self.rng.gen();
        format!("UPDATE {} SET a{attr} = {v} WHERE id = {oid}", self.objects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{standard_instance, Distribution, QueryDistribution};

    fn tiny() -> Instance {
        standard_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            20,
            10,
            2,
            3,
            11,
        )
    }

    #[test]
    fn seed_statements_shape() {
        let inst = tiny();
        let stmts = seed_statements(&inst, "objects", "queries", 8);
        assert_eq!(
            stmts[0],
            "CREATE TABLE objects (id INT, a1 FLOAT, a2 FLOAT)"
        );
        assert_eq!(stmts[1], "CREATE TABLE queries (w1 FLOAT, w2 FLOAT, k INT)");
        // 20 objects in batches of 8 → 3 INSERTs; 10 queries → 2.
        let obj_inserts = stmts
            .iter()
            .filter(|s| s.starts_with("INSERT INTO objects"))
            .count();
        assert_eq!(obj_inserts, 3);
        let q_inserts = stmts
            .iter()
            .filter(|s| s.starts_with("INSERT INTO queries"))
            .count();
        assert_eq!(q_inserts, 2);
    }

    #[test]
    fn stream_is_deterministic_and_mix_respected() {
        let inst = tiny();
        let gen = |seed| {
            let mut s = SqlStream::new(
                &inst,
                "objects",
                "queries",
                StatementMix::default(),
                2,
                seed,
            );
            (0..200).map(|_| s.next_statement()).collect::<Vec<_>>()
        };
        assert_eq!(gen(3), gen(3));
        assert_ne!(gen(3), gen(4));
        let stmts = gen(3);
        assert!(stmts.iter().any(|s| s.starts_with("SELECT")));
        assert!(stmts.iter().any(|s| s.starts_with("IMPROVE")));
        // Read-only mix never writes.
        let mut s = SqlStream::new(&inst, "o", "q", StatementMix::read_only(), 2, 9);
        for _ in 0..200 {
            let stmt = s.next_statement();
            assert!(
                stmt.starts_with("SELECT") || stmt.starts_with("IMPROVE"),
                "{stmt}"
            );
        }
    }
}
