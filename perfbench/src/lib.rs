//! End-to-end benchmark of the reproduction's three workloads, with a
//! traced run that splits each one by layer. See `README.md` beside this
//! package for the metrics, their units and layers.

pub mod aero;
pub mod cart3d;
pub mod common;
pub mod gate;
pub mod nsu3d;

use common::{Outcome, RunConfig};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["nsu3d_wcycle", "cart3d_rk", "aero_db"];

/// End-to-end metrics (tracing off), reported on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("parallel_eff", "ratio"),
    ("throughput", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run). A workload that never calls a layer
/// reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("mesh.generate_s", "s"),
    ("mesh.agglomerate_s", "s"),
    ("partition.line_aware_s", "s"),
    ("partition.edge_cut", "count"),
    ("partition.max_comm_degree", "count"),
    ("rans.build_local_s", "s"),
    ("mg.build_other_s", "s"),
    ("rans.gradient_s", "s"),
    ("rans.flux_s", "s"),
    ("rans.diagonal_s", "s"),
    ("rans.finalize_s", "s"),
    ("rans.implicit_s", "s"),
    ("rans.l0.sweep_s", "s"),
    ("rans.l1.sweep_s", "s"),
    ("rans.l2.sweep_s", "s"),
    ("rans.l3.sweep_s", "s"),
    ("rans.l4.sweep_s", "s"),
    ("rans.sweep_gflops", "GF/s"),
    ("rans.diagonal_gflops", "GF/s"),
    ("rans.implicit_gflops", "GF/s"),
    ("rans.rank_skew", "ratio"),
    ("mg.transfer_other_s", "s"),
    ("mg.orders_reduced", "count"),
    ("comm.exchange_s", "s"),
    ("comm.allreduce_s", "s"),
    ("comm.l0.exchange_s", "s"),
    ("comm.l1.exchange_s", "s"),
    ("comm.l2.exchange_s", "s"),
    ("comm.l3.exchange_s", "s"),
    ("comm.l4.exchange_s", "s"),
    ("comm.msgs", "count"),
    ("comm.bytes", "count"),
    ("comm.l0.bytes", "count"),
    ("comm.l1.bytes", "count"),
    ("comm.l2.bytes", "count"),
    ("comm.l3.bytes", "count"),
    ("comm.l4.bytes", "count"),
    ("comm.pool_misses", "count"),
    ("comm.retries", "count"),
    ("cartesian.octree_s", "s"),
    ("cartesian.extract_s", "s"),
    ("cartesian.cells", "count"),
    ("cartesian.cut_cells", "count"),
    ("sfc.partition_s", "s"),
    ("sfc.imbalance", "ratio"),
    ("euler.build_local_s", "s"),
    ("euler.residual_s", "s"),
    ("euler.finalize_s", "s"),
    ("euler.stage_s", "s"),
    ("euler.residual_gflops", "GF/s"),
    ("euler.rank_skew", "ratio"),
    ("core.case_s_p50", "s"),
    ("core.case_s_p99", "s"),
    ("core.fill_thread_util", "ratio"),
    ("core.cases_quarantined", "count"),
    ("core.attempts", "count"),
    ("flight.lookup_ns", "ns"),
    ("server.batch_p50_us", "us"),
    ("server.batch_p99_us", "us"),
    ("server.hit_ratio", "ratio"),
    ("server.dedup_ratio", "ratio"),
    ("server.evictions", "count"),
    ("server.errors", "count"),
    ("server.degraded", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Run one workload by name; `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    match name {
        "nsu3d_wcycle" => Some(nsu3d::run(cfg)),
        "cart3d_rk" => Some(cart3d::run(cfg)),
        "aero_db" => Some(aero::run(cfg)),
        _ => None,
    }
}

/// `COLUMBIA_*` knobs that would change the measured program, given a
/// lookup of the environment. The benchmark pins the threads executor,
/// the SIMD kernels, a clean (fault-free) context and an explicit
/// database serving policy; a knob that would override any of those is
/// refused rather than silently measured.
pub fn refused_knobs(vars: impl IntoIterator<Item = (String, String)>) -> Vec<String> {
    let pinned = [
        ("COLUMBIA_EXECUTOR", "threads"),
        ("COLUMBIA_KERNELS", "simd"),
        ("COLUMBIA_FABRIC", "analytic"),
    ];
    vars.into_iter()
        .filter(|(k, v)| {
            if let Some((_, want)) = pinned.iter().find(|(p, _)| p == k) {
                v.trim() != *want
            } else {
                k.starts_with("COLUMBIA_FAULT_") || k.starts_with("COLUMBIA_DB_")
            }
        })
        .map(|(k, v)| format!("{k}={v}"))
        .collect()
}
