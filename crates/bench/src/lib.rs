//! # fppn-bench — regeneration harness for every figure of the paper
//!
//! Each binary under `src/bin/` prints the rows/series of one figure or
//! reported number of the DATE'15 paper (run them with
//! `cargo run -p fppn-bench --bin <name>`). `scalability` also writes
//! `BENCH_sim.json`, the simulation timings that `bench_diff` gates in CI
//! against the committed baseline; the zero-alloc gates live under
//! `tests/`.
//!
//! | target | reproduces |
//! |---|---|
//! | `fig1_network` | the Fig. 1 example network |
//! | `fig3_taskgraph` | the derived task graph of Fig. 3 |
//! | `fig4_schedule` | the 2-processor static schedule of Fig. 4 |
//! | `fig5_fft_graph` | the FFT application graph of Fig. 5 |
//! | `fig6_fft_execution` | the MPPA execution experiment of Fig. 6 |
//! | `fig7_fms` | the FMS network of Fig. 7 and the §V-B statistics |
//! | `scalability` | the §V-B hyperperiod-reduction motivation |
//! | `paper_report` | every row above, in paper-vs-measured form |

#![warn(missing_docs)]

use fppn_core::Fppn;
use fppn_sched::StaticSchedule;
use fppn_taskgraph::{AsapAlap, DerivedTaskGraph};
use fppn_time::TimeQ;

/// Formats the job table of a derived task graph (the Fig. 3 node labels:
/// `p_i[k_i] (A_i, D_i, C_i)`).
pub fn job_table(net: &Fppn, derived: &DerivedTaskGraph) -> String {
    let mut out = String::new();
    out.push_str("job              (A_i, D_i, C_i) ms   server\n");
    for id in derived.graph.job_ids() {
        let j = derived.graph.job(id);
        out.push_str(&format!(
            "{:<16} ({}, {}, {}){}\n",
            format!("{}[{}]", net.process(j.process).name(), j.k),
            j.arrival,
            j.deadline,
            j.wcet,
            if j.is_server { "   *" } else { "" }
        ));
    }
    out
}

/// Formats the edge list of a derived task graph.
pub fn edge_table(net: &Fppn, derived: &DerivedTaskGraph) -> String {
    let mut out = String::new();
    for (a, b) in derived.graph.edges() {
        let (ja, jb) = (derived.graph.job(a), derived.graph.job(b));
        out.push_str(&format!(
            "{}[{}] -> {}[{}]\n",
            net.process(ja.process).name(),
            ja.k,
            net.process(jb.process).name(),
            jb.k
        ));
    }
    out
}

/// Formats a static schedule as per-processor rows (the Fig. 4 layout).
pub fn schedule_table(net: &Fppn, derived: &DerivedTaskGraph, schedule: &StaticSchedule) -> String {
    let mut out = String::new();
    for m in 0..schedule.processors() {
        out.push_str(&format!("M{m}:"));
        for id in schedule.processor_order(m) {
            let j = derived.graph.job(id);
            let p = schedule.placement(id);
            out.push_str(&format!(
                "  {}[{}]@{}..{}",
                net.process(j.process).name(),
                j.k,
                p.start,
                p.start + j.wcet
            ));
        }
        out.push('\n');
    }
    out
}

/// One row of a paper-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// What is being compared.
    pub quantity: String,
    /// The value the paper reports.
    pub paper: String,
    /// The value this reproduction measures.
    pub measured: String,
    /// Whether the reproduction matches (exact or within stated tolerance).
    pub matches: bool,
}

/// Renders report rows as an aligned table.
pub fn render_report(title: &str, rows: &[ReportRow]) -> String {
    let mut out = format!("== {title} ==\n");
    let wq = rows.iter().map(|r| r.quantity.len()).max().unwrap_or(8).max(8);
    let wp = rows.iter().map(|r| r.paper.len()).max().unwrap_or(5).max(5);
    let wm = rows.iter().map(|r| r.measured.len()).max().unwrap_or(8).max(8);
    out.push_str(&format!(
        "{:<wq$}  {:<wp$}  {:<wm$}  ok\n",
        "quantity", "paper", "measured"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<wq$}  {:<wp$}  {:<wm$}  {}\n",
            r.quantity,
            r.paper,
            r.measured,
            if r.matches { "✓" } else { "✗" }
        ));
    }
    out
}

/// Convenience: total WCET work per processor of a schedule.
pub fn per_processor_work(derived: &DerivedTaskGraph, schedule: &StaticSchedule) -> Vec<TimeQ> {
    (0..schedule.processors())
        .map(|m| {
            schedule
                .processor_order(m)
                .into_iter()
                .map(|id| derived.graph.job(id).wcet)
                .sum()
        })
        .collect()
}

/// ASAP/ALAP summary line for diagnostics.
pub fn window_summary(derived: &DerivedTaskGraph) -> String {
    let times = AsapAlap::compute(&derived.graph);
    let l = fppn_taskgraph::load_with(&derived.graph, &times);
    format!(
        "load = {} ≈ {:.4} over window ({}, {}); utilization = {:.4}",
        l.load,
        l.load.to_f64(),
        l.window.0,
        l.window.1,
        derived.graph.utilization().to_f64()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_apps::{fig1_network, fig1_wcet};
    use fppn_sched::{list_schedule, Heuristic};
    use fppn_taskgraph::derive_task_graph;

    #[test]
    fn tables_render() {
        let (net, _, _) = fig1_network();
        let d = derive_task_graph(&net, &fig1_wcet()).unwrap();
        let jobs = job_table(&net, &d);
        assert!(jobs.contains("InputA[1]"));
        assert!(jobs.contains("(0, 200, 25)"));
        let edges = edge_table(&net, &d);
        assert!(edges.contains("->"));
        let s = list_schedule(&d.graph, 2, Heuristic::AlapEdf);
        let table = schedule_table(&net, &d, &s);
        assert!(table.contains("M0:") && table.contains("M1:"));
        assert_eq!(per_processor_work(&d, &s).len(), 2);
        assert!(window_summary(&d).contains("load"));
    }

    #[test]
    fn report_renders_checks() {
        let rows = vec![ReportRow {
            quantity: "jobs".into(),
            paper: "812".into(),
            measured: "812".into(),
            matches: true,
        }];
        let s = render_report("FMS", &rows);
        assert!(s.contains("✓"));
        assert!(s.contains("FMS"));
    }
}
