//! Cross-crate integration: the full NSU3D-style pipeline.

use columbia_comm::HybridLayout;
use columbia_mesh::{extract_lines, wing_mesh, WingMeshSpec};
use columbia_mg::{CycleParams, CycleType};
use columbia_rans::parallel::{
    build_local_levels, partition_mesh_line_aware, run_parallel_smoothing,
};
use columbia_rans::{RansSolver, SolverParams};

fn params() -> SolverParams {
    SolverParams {
        mach: 0.5,
        ..Default::default()
    }
}

/// `COLUMBIA_SLOW_TESTS=1` (set in CI) runs the paper-scale variants; the
/// default keeps the suite fast on a laptop without losing coverage of any
/// code path — only mesh size and cycle counts shrink.
fn slow_tests() -> bool {
    columbia_rt::env::slow_tests()
}

#[test]
fn mesh_to_converged_multigrid_solution() {
    let (points, max_cycles) = if slow_tests() {
        (8_000, 50)
    } else {
        (4_000, 40)
    };
    let mesh = wing_mesh(&WingMeshSpec {
        jitter: 0.0,
        ..WingMeshSpec::with_target_points(points)
    });
    let mut solver = RansSolver::new(mesh, params(), 5);
    let h = solver.solve(&CycleParams::default(), 1e-11, max_cycles);
    assert!(
        h.orders_reduced() > 4.0,
        "pipeline failed to converge: {} orders",
        h.orders_reduced()
    );
    // Level hierarchy is genuinely multigrid.
    let sizes = solver.level_sizes();
    assert!(sizes.len() >= 4);
    assert!(sizes[0] / sizes[sizes.len() - 1] > 50);
}

#[test]
fn w_cycle_beats_v_cycle_on_larger_mesh() {
    let points = if slow_tests() { 8_000 } else { 3_000 };
    let mesh = wing_mesh(&WingMeshSpec {
        jitter: 0.0,
        ..WingMeshSpec::with_target_points(points)
    });
    let cycles = if slow_tests() { 15 } else { 10 };
    let mut v = RansSolver::new(mesh.clone(), params(), 4);
    let mut w = RansSolver::new(mesh, params(), 4);
    let hv = v.solve(
        &CycleParams {
            cycle: CycleType::V,
            ..Default::default()
        },
        0.0,
        cycles,
    );
    let hw = w.solve(
        &CycleParams {
            cycle: CycleType::W,
            ..Default::default()
        },
        0.0,
        cycles,
    );
    // The paper uses W exclusively for robustness/speed; allow a narrow
    // tolerance since V can tie on easy cases.
    assert!(
        hw.orders_reduced() >= hv.orders_reduced() - 0.4,
        "W {} vs V {}",
        hw.orders_reduced(),
        hv.orders_reduced()
    );
}

#[test]
fn partitioned_execution_matches_serial_and_respects_lines() {
    let mesh = wing_mesh(&WingMeshSpec {
        ni: 24,
        nj: 5,
        nk: 12,
        nk_bl: 6,
        jitter: 0.0,
        ..Default::default()
    });
    let p = params();

    // Lines never broken by the partitioner.
    let part = partition_mesh_line_aware(&mesh, 6, p.line_threshold);
    let lines = extract_lines(&mesh, p.line_threshold).lines;
    for line in &lines {
        let p0 = part[line[0] as usize];
        assert!(line.iter().all(|&v| part[v as usize] == p0));
    }

    // Parallel smoothing equals serial smoothing.
    let mut serial = columbia_rans::RansLevel::new(mesh.clone(), p);
    serial.apply_bcs();
    for _ in 0..2 {
        serial.smooth_sweep();
    }
    let (u, _, traces) =
        run_parallel_smoothing(&mesh, p, 6, 2, &mut columbia_comm::ExecContext::default());
    let mut max_diff = 0.0f64;
    for (v, su) in serial.u.to_aos().iter().enumerate() {
        for k in 0..6 {
            max_diff = max_diff.max((u[v][k] - su[k]).abs());
        }
    }
    assert!(max_diff < 1e-8, "parallel/serial mismatch {max_diff}");

    // Hybrid aggregation reduces messages versus pure MPI.
    let (decomp, _) = build_local_levels(&mesh, &part, 6, p);
    let pure = HybridLayout::pure_mpi(6).aggregate(&decomp, 48);
    let hybrid = HybridLayout::block(6, 3).aggregate(&decomp, 48);
    let msgs_pure: u64 = pure.iter().map(|s| s.total_msgs()).sum();
    let msgs_hybrid: u64 = hybrid.iter().map(|s| s.total_msgs()).sum();
    assert!(
        msgs_hybrid < msgs_pure,
        "hybrid should aggregate: {msgs_hybrid} vs {msgs_pure}"
    );
    assert!(traces.iter().any(|t| t.stats.total_msgs() > 0));
}

#[test]
fn measured_profile_drives_machine_model() {
    use columbia_machine::{simulate_cycle, Fabric, MachineConfig, RunConfig};
    let mesh = wing_mesh(&WingMeshSpec {
        jitter: 0.0,
        ..WingMeshSpec::with_target_points(10_000)
    });
    let mut solver = RansSolver::new(mesh, params(), 5);
    solver.solve(&CycleParams::default(), 0.0, 2);
    let profile = columbia_rans::measure_profile(
        &mut solver,
        &CycleParams::default(),
        &[8, 16, 32],
        8,
        72.0e6,
        "measured",
        &mut columbia_comm::ExecContext::default(),
    );
    profile.validate().unwrap();
    let m = MachineConfig::columbia_vortex();
    let t128 = simulate_cycle(&profile, &m, &RunConfig::mpi(128, Fabric::NumaLink4))
        .unwrap()
        .seconds;
    let t2008 = simulate_cycle(&profile, &m, &RunConfig::mpi(2008, Fabric::NumaLink4))
        .unwrap()
        .seconds;
    // Our operator is deliberately cheaper per point than NSU3D's
    // (first-order fluxes, fewer sweeps), so the measured profile lands
    // below the paper's 31.3 s — but must stay the same order of
    // magnitude and scale the same way.
    assert!(
        t128 > 2.0 && t128 < 80.0,
        "measured 128-CPU cycle {t128} s implausible (paper 31.3 s)"
    );
    let speedup = 128.0 * t128 / t2008;
    assert!(
        speedup > 1500.0,
        "measured profile should still scale well: {speedup}"
    );
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv_u64(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn digest(vals: impl IntoIterator<Item = u64>) -> u64 {
    vals.into_iter().fold(FNV_OFFSET, fnv_u64)
}

/// How a [`RansSolver`] golden configuration is driven.
#[derive(Clone, Copy, Debug)]
enum Drive {
    /// `solve` with its CFL ramp.
    Ramped,
    /// `set_cfl(4.0)` then `solve_fixed_cfl`.
    Fixed,
}

/// `(points, jitter, levels, cycle, drive, cycles)` of each pinned run.
const SERIAL_CONFIGS: [(usize, f64, usize, CycleType, Drive, usize); 5] = [
    (800, 0.0, 3, CycleType::W, Drive::Ramped, 4),
    (3000, 0.15, 4, CycleType::W, Drive::Fixed, 4),
    (800, 0.1, 3, CycleType::V, Drive::Ramped, 4),
    (800, 0.0, 3, CycleType::W, Drive::Fixed, 3),
    (800, 0.0, 1, CycleType::W, Drive::Ramped, 3),
];

/// Per run: FNV-1a digests of the residual history bits, the final
/// fine-level state bits, the per-level FLOPs and the hierarchy (level
/// sizes and `to_coarse` maps).
const SERIAL_GOLDEN: [[u64; 4]; 5] = [
    [
        0x09494716dd4c9f62,
        0x68625ad218d5428c,
        0x04dd04e860696f67,
        0xfff9d60d31810bd3,
    ],
    [
        0xf23515b3375404da,
        0x02bceae1d43e085d,
        0x9375fa7dcae4cb53,
        0x215dff624c1d02a0,
    ],
    [
        0xb19ebf799a6596ca,
        0xa77098f3bea484b7,
        0x63ede6c736d3f363,
        0xc07ea47dd3c262dd,
    ],
    [
        0x1cec38cd32e7d208,
        0x3852b956a8ec9bc9,
        0x8612430ca7f30bf8,
        0xfff9d60d31810bd3,
    ],
    [
        0xb4b5bed8e8e70aec,
        0xe73613090b0ad676,
        0x80c0c156e93de9e0,
        0xad6323825fa766dc,
    ],
];

/// Pins the bits of the `RansSolver` driver: residual history, final
/// fine state, per-level FLOP counts and the agglomerated hierarchy.
#[test]
fn serial_solver_bits_are_pinned() {
    let mut got = Vec::new();
    for &(points, jitter, nlevels, cycle, drive, cycles) in &SERIAL_CONFIGS {
        let mesh = wing_mesh(&WingMeshSpec {
            jitter,
            ..WingMeshSpec::with_target_points(points)
        });
        let mut solver = RansSolver::new(mesh, params(), nlevels);
        let cp = CycleParams {
            cycle,
            ..Default::default()
        };
        let h = match drive {
            Drive::Ramped => solver.solve(&cp, 0.0, cycles),
            Drive::Fixed => {
                solver.set_cfl(4.0);
                solver.solve_fixed_cfl(&cp, 0.0, cycles)
            }
        };
        let fine = &solver.levels[0];
        let state = (0..6).flat_map(|k| fine.u.plane(k).iter().map(|x| x.to_bits()));
        let hierarchy = solver.levels.iter().flat_map(|l| {
            std::iter::once(l.nvertices() as u64)
                .chain(l.to_coarse.iter().flatten().map(|&c| c as u64))
        });
        got.push([
            digest(h.residuals.iter().map(|r| r.to_bits())),
            digest(state),
            digest(solver.level_flops()),
            digest(hierarchy),
        ]);
    }
    for (i, (g, want)) in got.iter().zip(&SERIAL_GOLDEN).enumerate() {
        assert_eq!(
            g, want,
            "config {i} {:?}: digests {g:#018x?}, full table {got:#018x?}",
            SERIAL_CONFIGS[i]
        );
    }
}
