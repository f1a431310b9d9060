//! The metrics the benchmark reports, by name and unit. `BENCHMARK.json`
//! at the repository root lists the same names and units, plus which
//! direction is better; a test keeps the two in step.

/// End-to-end metrics: what a user running an exploration sees.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("explore_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics of a traced run.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("solver.route_s", "s"),
    ("solver.ctx_forks", "count"),
    ("solver.ctx_rebuilds", "count"),
    ("solver.ctx_evictions", "count"),
    ("solver.ctx_clauses_resident", "count"),
    ("solver.sat_s", "s"),
    ("solver.conflicts", "count"),
    ("solver.propagations", "count"),
    ("solver.decisions", "count"),
    ("solver.learnt_lits", "count"),
    ("solver.gates_reused", "count"),
    ("solver.query_nodes", "count"),
    ("solver.cache_s", "s"),
    ("solver.cache_hit_ratio", "ratio"),
    ("solver.queries", "count"),
    ("solver.sat_calls", "count"),
    ("solver.other_s", "s"),
    ("solver.retry_attempts", "count"),
    ("engine.step_s", "s"),
    ("engine.step_us_p50", "us"),
    ("engine.step_us_p99", "us"),
    ("engine.self_s", "s"),
    ("engine.steps", "count"),
    ("engine.picks", "count"),
    ("engine.residual_s", "s"),
    ("merge.merges", "count"),
    ("merge.rejects", "count"),
    ("merge.accept_ratio", "ratio"),
    ("dsm.ff_merged", "count"),
    ("dsm.ff_success_rate", "ratio"),
    ("strategy.sched_picks", "count"),
    ("strategy.heap_repairs", "count"),
    ("qce.analysis_s", "s"),
    ("ir.compile_s", "s"),
    ("engine.build_s", "s"),
    ("testgen.tests", "count"),
    ("testgen.dropped_unknown", "count"),
    ("ir.replay_s", "s"),
    ("parallel.steals", "count"),
    ("parallel.stolen_states", "count"),
    ("parallel.idle_waits", "count"),
    ("parallel.cpu_util", "ratio"),
    ("shared.query_hits", "count"),
    ("shared.publishes", "count"),
    ("shared.sync_s", "s"),
    ("shared.hit_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "<name>", "unit": "<unit>"` entries of a JSON list, in
    /// order — enough of a reader for the file's fixed layout.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, f: &str| -> String {
            let at = entry.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
            entry[at..at + entry[at..].find('"').expect("string closes")].to_owned()
        };
        body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
    }

    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), own(&PER_LAYER));
    }
}
