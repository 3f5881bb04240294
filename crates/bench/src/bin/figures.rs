//! Regenerates every table and figure of the paper's evaluation as
//! printed rows.
//!
//! ```text
//! cargo run --release -p iq-bench --bin figures            # everything
//! cargo run --release -p iq-bench --bin figures fig7 fig13 # a subset
//! IQ_SCALE=1 cargo run --release -p iq-bench --bin figures # paper scale
//! cargo run --release -p iq-bench --bin figures -- --json out.json
//! ```
//!
//! `--json PATH` additionally records every measured point as a flat
//! `name`/`value`/`unit` series (see [`iq_bench::record`]) so CI can diff
//! figure data across commits without scraping the printed tables.
//!
//! Figure ↔ experiment map (see DESIGN.md §6 and EXPERIMENTS.md):
//! fig4  index time/size vs |D| (Efficient-IQ vs DominantGraph)
//! fig5  index time/size vs |Q| (Efficient-IQ vs bare R-tree)
//! fig6  index cost on VEHICLE/HOUSE (all three)
//! fig7–9   IQ time & cost-per-hit vs |D| on IN/CO/AC (4 schemes)
//! fig10–11 IQ time & cost-per-hit vs |Q| on UN/CL (4 schemes)
//! fig12 IQ time & cost-per-hit on VEHICLE/HOUSE (4 schemes)
//! fig13 Efficient-IQ scalability vs number of variables (1–5)

use iq_bench::harness::{
    build_instance, measure_index_costs, measure_processing, print_settings, Scheme, Settings,
};
use iq_bench::record::Recorder;
use iq_core::{Instance, SearchOptions};
use iq_workload::{real, real_instance, Distribution, QueryDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut rec = Recorder::disabled();
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        if pos + 1 >= args.len() {
            eprintln!("--json requires a file path");
            std::process::exit(2);
        }
        rec = Recorder::to_path(args.remove(pos + 1));
        args.remove(pos);
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    let settings = Settings::from_env();
    print_settings(&settings);
    println!();

    if want("fig4") {
        fig4(&settings, &mut rec);
    }
    if want("fig5") {
        fig5(&settings, &mut rec);
    }
    if want("fig6") {
        fig6(&settings, &mut rec);
    }
    if want("fig7") {
        fig_processing_objects(&settings, Distribution::Independent, 7, &mut rec);
    }
    if want("fig8") {
        fig_processing_objects(&settings, Distribution::Correlated, 8, &mut rec);
    }
    if want("fig9") {
        fig_processing_objects(&settings, Distribution::AntiCorrelated, 9, &mut rec);
    }
    if want("fig10") {
        fig_processing_queries(&settings, QueryDistribution::Uniform, 10, &mut rec);
    }
    if want("fig11") {
        fig_processing_queries(&settings, QueryDistribution::Clustered, 11, &mut rec);
    }
    if want("fig12") {
        fig12(&settings, &mut rec);
    }
    if want("fig13") {
        fig13(&settings, &mut rec);
    }

    match rec.finish() {
        Ok(Some(path)) => println!(
            "wrote {} series entries to {}",
            rec.entries().len(),
            path.display()
        ),
        Ok(None) => {}
        Err(e) => {
            eprintln!("failed to write --json output: {e}");
            std::process::exit(1);
        }
    }
}

fn fig4(s: &Settings, rec: &mut Recorder) {
    println!("== Figure 4: indexing cost vs number of objects (linear utilities) ==");
    println!(
        "{:>8} | {:>16} {:>16} | {:>14} {:>14}",
        "|D|", "Efficient-IQ (s)", "DominantGraph (s)", "Eff size (%)", "DG size (%)"
    );
    for &n in &s.object_sweep {
        // The paper averages over the synthetic distributions; so do we.
        let mut eff_t = 0.0;
        let mut dg_t = 0.0;
        let mut eff_s = 0.0;
        let mut dg_s = 0.0;
        let dists = [
            Distribution::Independent,
            Distribution::Correlated,
            Distribution::AntiCorrelated,
        ];
        for (i, &dist) in dists.iter().enumerate() {
            let inst = build_instance(
                dist,
                QueryDistribution::Uniform,
                n,
                s.num_queries,
                s.dims,
                s.k_max,
                40 + i as u64,
            );
            let c = measure_index_costs(&inst);
            eff_t += c.efficient_time;
            dg_t += c.dominant_graph_time;
            eff_s += c.efficient_size_pct;
            dg_s += c.dominant_graph_size_pct;
        }
        let k = dists.len() as f64;
        println!(
            "{:>8} | {:>16.3} {:>16.3} | {:>14.1} {:>14.1}",
            n,
            eff_t / k,
            dg_t / k,
            eff_s / k,
            dg_s / k
        );
        rec.record(
            format!("fig4/|D|={n}/Efficient-IQ/build_time"),
            eff_t / k,
            "s",
        );
        rec.record(
            format!("fig4/|D|={n}/DominantGraph/build_time"),
            dg_t / k,
            "s",
        );
        rec.record(format!("fig4/|D|={n}/Efficient-IQ/size"), eff_s / k, "pct");
        rec.record(format!("fig4/|D|={n}/DominantGraph/size"), dg_s / k, "pct");
    }
    println!();
}

fn fig5(s: &Settings, rec: &mut Recorder) {
    println!("== Figure 5: indexing cost vs number of queries (UN, non-linear allowed) ==");
    println!(
        "{:>8} | {:>16} {:>12} | {:>14} {:>14}",
        "|Q|", "Efficient-IQ (s)", "R-tree (s)", "Eff size (%)", "R-tree size (%)"
    );
    for &m in &s.query_sweep {
        let inst = build_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            s.num_objects,
            m,
            s.dims,
            s.k_max,
            50,
        );
        let c = measure_index_costs(&inst);
        println!(
            "{:>8} | {:>16.3} {:>12.3} | {:>14.1} {:>14.1}",
            m, c.efficient_time, c.rtree_time, c.efficient_size_pct, c.rtree_size_pct
        );
        rec.record(
            format!("fig5/|Q|={m}/Efficient-IQ/build_time"),
            c.efficient_time,
            "s",
        );
        rec.record(format!("fig5/|Q|={m}/R-tree/build_time"), c.rtree_time, "s");
        rec.record(
            format!("fig5/|Q|={m}/Efficient-IQ/size"),
            c.efficient_size_pct,
            "pct",
        );
        rec.record(format!("fig5/|Q|={m}/R-tree/size"), c.rtree_size_pct, "pct");
    }
    println!();
}

fn real_datasets(s: &Settings) -> Vec<(&'static str, Instance)> {
    let scale = s.num_objects as f64 / 100_000.0;
    let mut rng = StdRng::seed_from_u64(60);
    let vehicle = real::vehicle_scaled(
        ((real::VEHICLE_ROWS as f64 * scale) as usize).max(100),
        &mut rng,
    );
    let house = real::house_scaled(
        ((real::HOUSE_ROWS as f64 * scale) as usize).max(100),
        &mut rng,
    );
    // "For each real-world dataset, we use a randomly generated query set
    // that is one third of its size" (§6.3.2).
    vec![
        (
            "VEHICLE",
            real_instance(
                &vehicle,
                QueryDistribution::Uniform,
                vehicle.len() / 3,
                s.k_max,
                61,
            ),
        ),
        (
            "HOUSE",
            real_instance(
                &house,
                QueryDistribution::Uniform,
                house.len() / 3,
                s.k_max,
                62,
            ),
        ),
    ]
}

fn fig6(s: &Settings, rec: &mut Recorder) {
    println!("== Figure 6: indexing cost on the real-world datasets ==");
    println!(
        "{:>8} | {:>13} {:>10} {:>10} | {:>9} {:>9} {:>9}",
        "dataset", "Efficient (s)", "R-tree (s)", "DG (s)", "Eff (%)", "R-tree(%)", "DG (%)"
    );
    for (name, inst) in real_datasets(s) {
        let c = measure_index_costs(&inst);
        println!(
            "{:>8} | {:>13.3} {:>10.3} {:>10.3} | {:>9.1} {:>9.1} {:>9.1}",
            name,
            c.efficient_time,
            c.rtree_time,
            c.dominant_graph_time,
            c.efficient_size_pct,
            c.rtree_size_pct,
            c.dominant_graph_size_pct
        );
        rec.record(
            format!("fig6/{name}/Efficient-IQ/build_time"),
            c.efficient_time,
            "s",
        );
        rec.record(format!("fig6/{name}/R-tree/build_time"), c.rtree_time, "s");
        rec.record(
            format!("fig6/{name}/DominantGraph/build_time"),
            c.dominant_graph_time,
            "s",
        );
        rec.record(
            format!("fig6/{name}/Efficient-IQ/size"),
            c.efficient_size_pct,
            "pct",
        );
        rec.record(format!("fig6/{name}/R-tree/size"), c.rtree_size_pct, "pct");
        rec.record(
            format!("fig6/{name}/DominantGraph/size"),
            c.dominant_graph_size_pct,
            "pct",
        );
    }
    println!();
}

fn print_processing_header(x_label: &str) {
    print!("{x_label:>8} |");
    for scheme in Scheme::ALL {
        print!(" {:>14}", format!("{} ms", scheme.label()));
    }
    print!(" |");
    for scheme in Scheme::ALL {
        print!(" {:>14}", format!("{} c/h", scheme.label()));
    }
    println!();
}

fn print_processing_row(
    series: &str,
    x: String,
    inst: &Instance,
    s: &Settings,
    seed: u64,
    rec: &mut Recorder,
) {
    let opts = SearchOptions::default();
    let mut times = Vec::new();
    let mut ratios = Vec::new();
    for scheme in Scheme::ALL {
        let m = measure_processing(inst, scheme, s, &opts, seed);
        rec.record(
            format!("{series}/{}/time", scheme.label()),
            m.avg_time_ms,
            "ms",
        );
        rec.record(
            format!("{series}/{}/cost_per_hit", scheme.label()),
            m.avg_cost_per_hit,
            "cost/hit",
        );
        times.push(m.avg_time_ms);
        ratios.push(m.avg_cost_per_hit);
    }
    print!("{x:>8} |");
    for t in &times {
        print!(" {t:>14.1}");
    }
    print!(" |");
    for r in &ratios {
        print!(" {r:>14.4}");
    }
    println!();
}

fn fig_processing_objects(s: &Settings, dist: Distribution, fignum: u32, rec: &mut Recorder) {
    println!(
        "== Figure {fignum}: IQ processing vs number of objects on {} ==",
        dist.label()
    );
    print_processing_header("|D|");
    for &n in &s.object_sweep {
        let inst = build_instance(
            dist,
            QueryDistribution::Uniform,
            n,
            s.num_queries,
            s.dims,
            s.k_max,
            70 + fignum as u64,
        );
        print_processing_row(
            &format!("fig{fignum}/|D|={n}"),
            n.to_string(),
            &inst,
            s,
            700 + fignum as u64,
            rec,
        );
    }
    println!();
}

fn fig_processing_queries(s: &Settings, qdist: QueryDistribution, fignum: u32, rec: &mut Recorder) {
    println!(
        "== Figure {fignum}: IQ processing vs number of queries on {} ==",
        qdist.label()
    );
    print_processing_header("|Q|");
    for &m in &s.query_sweep {
        let inst = build_instance(
            Distribution::Independent,
            qdist,
            s.num_objects,
            m,
            s.dims,
            s.k_max,
            80 + fignum as u64,
        );
        print_processing_row(
            &format!("fig{fignum}/|Q|={m}"),
            m.to_string(),
            &inst,
            s,
            800 + fignum as u64,
            rec,
        );
    }
    println!();
}

fn fig12(s: &Settings, rec: &mut Recorder) {
    println!("== Figure 12: IQ processing on the real-world datasets ==");
    print_processing_header("dataset");
    for (name, inst) in real_datasets(s) {
        print_processing_row(
            &format!("fig12/{name}"),
            name.to_string(),
            &inst,
            s,
            120,
            rec,
        );
    }
    println!();
}

fn fig13(s: &Settings, rec: &mut Recorder) {
    println!("== Figure 13: Efficient-IQ scalability vs number of variables ==");
    println!("{:>8} | {:>14} | {:>14}", "vars", "time (ms)", "cost/hit");
    for d in 1..=5usize {
        let inst = build_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            s.num_objects,
            s.num_queries,
            d,
            s.k_max,
            130 + d as u64,
        );
        let m = measure_processing(
            &inst,
            Scheme::EfficientIq,
            s,
            &SearchOptions::default(),
            131,
        );
        println!(
            "{:>8} | {:>14.1} | {:>14.4}",
            d, m.avg_time_ms, m.avg_cost_per_hit
        );
        rec.record(
            format!("fig13/vars={d}/Efficient-IQ/time"),
            m.avg_time_ms,
            "ms",
        );
        rec.record(
            format!("fig13/vars={d}/Efficient-IQ/cost_per_hit"),
            m.avg_cost_per_hit,
            "cost/hit",
        );
    }
    println!();
}
