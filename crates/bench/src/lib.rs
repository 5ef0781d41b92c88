//! Shared infrastructure for the figure-regeneration binaries.
//!
//! Each `fig*` binary regenerates one figure of the paper's evaluation
//! section: it prints the same series the figure plots, a `paper:` row of
//! the published values where the paper states them, and (where relevant)
//! the shape checks EXPERIMENTS.md tracks.
//!
//! Workload profiles come in two flavours selected on the command line:
//!
//! * **paper** (default) — the 72M-point NSU3D and 25M-cell Cart3D
//!   workloads with the paper's published level sizes and calibrated
//!   per-point costs;
//! * **measured** (`--measured`) — everything re-derived from live runs of
//!   the real solvers at laptop scale: software FLOP counts, fitted
//!   ghost-surface laws, measured inter-grid locality, then rescaled to
//!   paper size.

pub mod database;
pub mod kernels;
pub mod report;

use columbia_machine::{paper_cart3d_25m, paper_nsu3d_72m, CycleProfile};
use columbia_mesh::{wing_mesh, WingMeshSpec};
use columbia_mg::CycleParams;
use columbia_rans::{RansSolver, SolverParams};
use std::collections::BTreeMap;

/// Parse the common `--measured` flag.
pub fn use_measured() -> bool {
    std::env::args().any(|a| a == "--measured")
}

/// The NSU3D-style workload profile.
pub fn nsu3d_profile(measured: bool) -> CycleProfile {
    if !measured {
        return paper_nsu3d_72m();
    }
    let mesh = wing_mesh(&WingMeshSpec {
        jitter: 0.0,
        ..WingMeshSpec::with_target_points(20_000)
    });
    let params = SolverParams {
        mach: 0.5,
        ..Default::default()
    };
    let mut solver = RansSolver::new(mesh, params, 6);
    // Settle the state so the FLOP measurement reflects working conditions.
    solver.solve(&CycleParams::default(), 0.0, 3);
    columbia_rans::measure_profile(
        &mut solver,
        &CycleParams::default(),
        &[8, 16, 32, 64],
        16,
        72.0e6,
        "NSU3D 72M-pt (measured, rescaled)",
        &mut columbia_comm::ExecContext::default(),
    )
}

/// The Cart3D-style workload profile.
pub fn cart3d_profile(measured: bool) -> CycleProfile {
    if !measured {
        return paper_cart3d_25m();
    }
    use columbia_cartesian::{build_octree, extract_mesh, CutCellConfig, TriMesh};
    use columbia_euler::{EulerParams, EulerSolver};
    use columbia_sfc::CurveKind;
    let prof: Vec<(f64, f64)> = (0..=14)
        .map(|i| {
            let t = std::f64::consts::PI * i as f64 / 14.0;
            (-0.3 * t.cos(), 0.3 * t.sin())
        })
        .collect();
    let geom = columbia_cartesian::Geometry::new(&[TriMesh::body_of_revolution(&prof, 16)]);
    let config = CutCellConfig {
        min_level: 4,
        max_level: 6,
        origin: columbia_mesh::Vec3::new(-1.0, -1.0, -1.0),
        size: 2.0,
    };
    let tree = build_octree(&geom, &config);
    let mesh = extract_mesh(&tree, &geom, CurveKind::Hilbert, 0.1);
    let mut solver = EulerSolver::new(mesh, EulerParams::default());
    solver.solve(&CycleParams::default(), 0.0, 2);
    columbia_euler::measure_profile(
        &mut solver,
        &CycleParams::default(),
        &[8, 16, 32, 64],
        16,
        25.0e6,
        "Cart3D 25M-cell (measured, rescaled)",
    )
}

/// Print the standard NUMAlink-vs-InfiniBand x 1-2-OMP-threads speedup
/// table for one multigrid truncation of a profile (the common layout of
/// Figures 16, 17 and 18).
pub fn fabric_comparison_table(profile: &CycleProfile, cpu_counts: &[usize]) {
    use columbia_core::PerformanceStudy;
    use columbia_machine::{Fabric, RunConfig};
    let study = PerformanceStudy::new(profile.clone(), cpu_counts);
    let rows = vec![
        study.series("NUMAlink: 1 OMP thread", |n| {
            RunConfig::mpi(n, Fabric::NumaLink4)
        }),
        study.series("NUMAlink: 2 OMP threads", |n| {
            RunConfig::hybrid(n, Fabric::NumaLink4, 2)
        }),
        study.series("InfiniBand: 1 OMP thread", |n| {
            RunConfig::mpi(n, Fabric::InfiniBand)
        }),
        study.series("InfiniBand: 2 OMP threads", |n| {
            RunConfig::hybrid(n, Fabric::InfiniBand, 2)
        }),
    ];
    print!("{}", PerformanceStudy::format_table(&rows, cpu_counts));
}

/// Print a standard figure header.
pub fn header(fig: &str, what: &str) {
    println!("==========================================================================");
    println!("{fig} — {what}");
    println!("==========================================================================");
}

/// Nested multigrid partitioning: each of the `ncoarse` coarse vertices
/// takes the partition holding the largest `weights` sum of its fine
/// children (`fine_to_coarse[v]` is fine vertex `v`'s coarse vertex).
/// Tied weights go to the lowest partition id, so the result does not
/// depend on iteration order. A coarse vertex with no children gets 0.
pub fn majority_partition(
    fine_to_coarse: &[u32],
    fine_part: &[u32],
    weights: &[f64],
    ncoarse: usize,
) -> Vec<u32> {
    let mut votes = vec![BTreeMap::<u32, f64>::new(); ncoarse];
    for (v, &c) in fine_to_coarse.iter().enumerate() {
        *votes[c as usize].entry(fine_part[v]).or_insert(0.0) += weights[v];
    }
    votes
        .iter()
        .map(|m| {
            m.iter()
                .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))
                .map_or(0, |(&p, _)| p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_partition_breaks_ties_on_the_lowest_id() {
        // Coarse 0: parts 3 and 1 tie at 2.0. Coarse 1: part 2 wins 3.0
        // to 1.0. Coarse 2 has no children.
        let map = [0, 0, 0, 1, 1];
        let part = [3, 1, 1, 0, 2];
        let w = [2.0, 1.0, 1.0, 1.0, 3.0];
        assert_eq!(majority_partition(&map, &part, &w, 3), vec![1, 2, 0]);
        // The tie resolves the same way whichever child comes first.
        let part = [1, 3, 3, 0, 2];
        let w = [2.0, 1.0, 1.0, 1.0, 3.0];
        assert_eq!(majority_partition(&map, &part, &w, 3), vec![1, 2, 0]);
    }

    #[test]
    fn both_profile_flavours_validate() {
        nsu3d_profile(false).validate().unwrap();
        cart3d_profile(false).validate().unwrap();
    }
}
