//! The metric table: every metric the benchmark prints, in one place.
//!
//! `END_TO_END` is what a user of the simulator sees (printed with
//! `--trace 0`); `PER_LAYER` is what the traced run attributes to the
//! program's layers (printed with `--trace 1`), each with the
//! end-to-end metric it should move and the workload it moves it on.
//! `BENCHMARK.json` at the repository root lists the same names.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric and the end-to-end metric it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The program layer (crate) the metric attributes work to.
    pub layer: &'static str,
    /// The end-to-end metric a change in this layer should move.
    pub moves: &'static str,
    /// The workload it moves that metric on.
    pub on: &'static str,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, layer, moves, on }
}

/// Host time unless the name says `sim`; `run_s` and the scenario
/// percentiles are medians over the measured window.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("run_s", "s", Lower, 0.25),
    e2e("scenario_ms.p50", "ms", Lower, 0.25),
    e2e("scenario_ms.p95", "ms", Lower, 0.25),
    e2e("sim_mreq_per_s", "Mreq/s", Higher, 0.25),
    e2e("sim_cycles_per_req", "cycles", Lower, 0.02),
    e2e("locker_cycle_ratio", "x", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

pub const PER_LAYER: &[PerLayer] = &[
    layer("dnn", "dnn.train_s", "s", Lower, "setup_s", "bfa-cnn"),
    layer("dnn", "sim.phase.baseline_accuracy_ms", "ms", Lower, "run_s", "bfa-cnn"),
    layer("dnn", "sim.phase.measure_ms", "ms", Lower, "run_s", "bfa-cnn"),
    layer("attacks", "sim.phase.attack_ms", "ms", Lower, "run_s", "bfa-cnn"),
    layer("attacks", "attacks.bfa.iterations", "count", Lower, "run_s", "bfa-cnn"),
    layer("attacks", "attacks.bfa.landed", "count", Lower, "run_s", "bfa-cnn"),
    layer("attacks", "attacks.bfa.landed_ratio", "ratio", Lower, "run_s", "bfa-cnn"),
    layer("attacks", "attacks.ms_per_landed_flip", "ms", Lower, "run_s", "bfa-cnn"),
    layer("sim", "sim.build_ms", "ms", Lower, "scenario_ms.p50", "sweep"),
    layer("sim", "sim.run_ms", "ms", Lower, "scenario_ms.p50", "sweep"),
    layer("sweep", "sweep.job_wall_us.p50", "us", Lower, "scenario_ms.p95", "sweep"),
    layer("sweep", "sweep.job_wall_us.p95", "us", Lower, "scenario_ms.p95", "sweep"),
    layer("sweep", "sweep.worker_busy_ns", "ns", Lower, "run_s", "sweep"),
    layer("sweep", "sweep.worker_idle_ns", "ns", Lower, "run_s", "sweep"),
    layer("sweep", "sweep.busy_ratio", "ratio", Higher, "run_s", "sweep"),
    layer("sweep", "sweep.steals", "count", Lower, "run_s", "sweep"),
    layer("sweep", "sweep.jobs", "count", Lower, "run_s", "sweep"),
    layer("engine", "engine.drain_wall_ns.sum", "ns", Lower, "sim_mreq_per_s", "replay"),
    layer("engine", "engine.drain_wall_ns.p50", "ns", Lower, "sim_mreq_per_s", "replay"),
    layer("engine", "engine.drain_wall_ns.p99", "ns", Lower, "sim_mreq_per_s", "replay"),
    layer("engine", "engine.drains", "count", Lower, "sim_mreq_per_s", "replay"),
    layer("engine", "engine.merge_wall_ns.sum", "ns", Lower, "sim_mreq_per_s", "replay"),
    layer("engine", "engine.shard_imbalance", "ratio", Lower, "sim_mreq_per_s", "replay"),
    layer("memctrl", "memctrl.served", "count", Lower, "sim_mreq_per_s", "replay"),
    layer("memctrl", "memctrl.denied", "count", Lower, "sim_mreq_per_s", "replay"),
    layer("memctrl", "memctrl.redirected", "count", Lower, "sim_mreq_per_s", "replay"),
    layer("memctrl", "memctrl.os_faults", "count", Lower, "sim_mreq_per_s", "replay"),
    layer(
        "memctrl",
        "memctrl.latency_cycles.read.mean",
        "cycles",
        Lower,
        "sim_cycles_per_req",
        "replay",
    ),
    layer(
        "memctrl",
        "memctrl.latency_cycles.write.mean",
        "cycles",
        Lower,
        "sim_cycles_per_req",
        "replay",
    ),
    layer("memctrl", "memctrl.host_ns_per_req", "ns", Lower, "sim_mreq_per_s", "replay"),
    layer("dram", "dram.cycles", "cycles", Lower, "sim_cycles_per_req", "replay"),
    layer("dram", "dram.energy_pj", "pJ", Lower, "sim_cycles_per_req", "replay"),
    layer("dram", "dram.row_buffer_hit_ratio", "ratio", Higher, "sim_cycles_per_req", "replay"),
    layer("dram", "dram.disturbances", "count", Lower, "sim_cycles_per_req", "replay"),
    layer("dram", "dram.bit_flips", "count", Lower, "sim_cycles_per_req", "replay"),
    layer("locker", "locker.locktable.lookups", "count", Lower, "locker_cycle_ratio", "replay"),
    layer("locker", "locker.locktable.hits", "count", Lower, "locker_cycle_ratio", "replay"),
    layer("locker", "locker.locktable.hit_ratio", "ratio", Lower, "sim_mreq_per_s", "replay"),
    layer("defenses", "mit.dram-locker.actions", "count", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "mit.graphene.actions", "count", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "mit.hydra.actions", "count", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "mit.twice.actions", "count", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "mit.counter-per-row.actions", "count", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "mit.rrs.actions", "count", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "mit.srs.actions", "count", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "mit.shadow.actions", "count", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "sweep.job_ms.none", "ms", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "sweep.job_ms.dram-locker", "ms", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "sweep.job_ms.graphene", "ms", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "sweep.job_ms.hydra", "ms", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "sweep.job_ms.twice", "ms", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "sweep.job_ms.counter-per-row", "ms", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "sweep.job_ms.rrs", "ms", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "sweep.job_ms.srs", "ms", Lower, "scenario_ms.p95", "sweep"),
    layer("defenses", "sweep.job_ms.shadow", "ms", Lower, "scenario_ms.p95", "sweep"),
    layer("obs", "obs.trace_overhead_pct", "%", Lower, "run_s", "bfa-cnn"),
];

/// The unit of a metric in either table.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The unit and reading of a metric, for the benchmark's text lines:
/// the bound of an end-to-end metric, the layer and the end-to-end
/// metric a per-layer one should move.
pub fn describe(name: &str) -> String {
    let direction = |better: Better| match better {
        Lower => "lower is better",
        Higher => "higher is better",
    };
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        return format!("{}  ({}, bound {})", m.unit, direction(m.better), m.bound);
    }
    match PER_LAYER.iter().find(|m| m.name == name) {
        Some(m) => {
            format!("{}  ({}; {} -> {} on {})", m.unit, direction(m.better), m.layer, m.moves, m.on)
        }
        None => String::new(),
    }
}

/// The metric-name rule: `[A-Za-z0-9_.-]+`, at most 64 characters,
/// starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
    }

    #[test]
    fn every_layer_maps_to_an_emitted_end_to_end_metric_and_workload() {
        for metric in PER_LAYER {
            assert!(
                END_TO_END.iter().any(|e| e.name == metric.moves),
                "{} moves unknown metric {}",
                metric.name,
                metric.moves
            );
            assert!(
                crate::gen::Kind::parse(metric.on).is_some(),
                "{} names unknown workload {}",
                metric.name,
                metric.on
            );
        }
    }

    fn better(token: Option<&str>) -> Better {
        match token {
            Some("lower") => Lower,
            Some("higher") => Higher,
            other => panic!("bad better {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = dlk_sim::obs::json::parse_file(path).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(|v| v.as_array()).expect(key).to_vec();
        let field = |v: &dlk_sim::obs::json::Value, key: &str| {
            v.get(key).and_then(|f| f.as_str()).map(str::to_owned)
        };
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name").as_deref(), Some(metric.name));
            assert_eq!(field(entry, "unit").as_deref(), Some(metric.unit), "{}", metric.name);
            assert_eq!(better(field(entry, "better").as_deref()), metric.better, "{}", metric.name);
            assert_eq!(
                entry.get("bound").and_then(|b| b.as_f64()),
                Some(metric.bound),
                "{}",
                metric.name
            );
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, metric) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name").as_deref(), Some(metric.name));
            assert_eq!(field(entry, "unit").as_deref(), Some(metric.unit), "{}", metric.name);
            assert_eq!(better(field(entry, "better").as_deref()), metric.better, "{}", metric.name);
        }
        let workloads: Vec<String> =
            list("workloads").iter().filter_map(|w| field(w, "name")).collect();
        let kinds: Vec<&str> = crate::gen::Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, kinds);
    }

    #[test]
    fn bounds_stay_within_the_contract() {
        for metric in END_TO_END {
            assert!(metric.bound > 0.0 && metric.bound <= 0.25, "{}", metric.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }
}
