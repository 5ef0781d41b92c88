//! `cart3d_rk`: RK smoothing of the Euler equations on an SSLV cut-cell
//! mesh, SFC-partitioned onto 2 ranks, with a 1-rank baseline.
//!
//! The solve is `parallel_rk_step` driven for a fixed number of steps
//! inside one `run_world`, bracketed by two `parallel_residual_rms` calls
//! for the residual gate. The traced run checks once per pass that this
//! loop leaves the same state bits as `run_parallel_smoothing`, and
//! replays `parallel_rk_step`'s public call sequence with a timer around
//! each call, which counts only when its state bits equal the real call's.

use std::sync::Mutex;
use std::time::Instant;

use columbia_cartesian::{
    build_octree, extract_mesh, partition_cells, sslv_geometry, CartMesh, CutCellConfig, Geometry,
};
use columbia_comm::{run_world, Decomposition, Rank, RankTrace};
use columbia_core::CartAnalysis;
use columbia_euler::level::RK5;
use columbia_euler::parallel::{
    build_local_levels, parallel_residual_rms, parallel_rk_step, run_parallel_smoothing, LocalEuler,
};
use columbia_euler::{freestream5, EulerLevel, State5, NVARS5};
use columbia_rt::env::KernelKind;
use columbia_rt::Pcg32;

use crate::common::{
    comm_counts, config_notes, end_to_end_metrics, measure, pinned_ctx, secs, traced_passes, Fnv,
    Outcome, Pass, RunConfig, Samples, Size, REPORTED_LEVELS,
};
use crate::gate;

struct Sizing {
    min_level: u32,
    max_level: u32,
    steps: usize,
}

impl Sizing {
    fn of(size: Size) -> Self {
        match size {
            Size::Full => Sizing {
                min_level: 5,
                max_level: 8,
                steps: 20,
            },
            Size::Tiny => Sizing {
                min_level: 3,
                max_level: 5,
                steps: 4,
            },
        }
    }
}

/// The case: SSLV at rest, wind drawn from the seed (subsonic Mach in
/// [0.45, 0.6], alpha in [0, 2] degrees).
struct Case {
    analysis: CartAnalysis,
    geom: Geometry,
    fs: State5,
    cfl: f64,
}

impl Case {
    fn new(sz: &Sizing, seed: u64) -> Self {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mach = 0.45 + 0.15 * rng.gen_f64();
        let alpha = 2f64.to_radians() * rng.gen_f64();
        let analysis = CartAnalysis::default()
            .wind(mach, alpha, 0.0)
            .resolution(sz.min_level, sz.max_level);
        let p = analysis.params;
        Case {
            fs: freestream5(p.mach, p.alpha, p.beta),
            cfl: p.cfl,
            geom: sslv_geometry(0.0),
            analysis,
        }
    }

    fn locals(&self, mesh: &CartMesh, nparts: usize) -> (Decomposition, Vec<LocalEuler>) {
        let (decomp, mut locals) = build_local_levels(mesh, nparts, self.fs, self.cfl);
        for l in &mut locals {
            l.level.kernel = KernelKind::Simd;
        }
        (decomp, locals)
    }
}

/// What the real solve loop returns.
struct Solve {
    before: f64,
    after: f64,
    /// Per-rank wall of the step loop alone.
    rank_steps_s: Vec<f64>,
    traces: Vec<RankTrace>,
    /// Global state, assembled from the owners.
    u: Vec<State5>,
}

fn take_locals(locals: Vec<LocalEuler>) -> Mutex<Vec<Option<LocalEuler>>> {
    Mutex::new(locals.into_iter().map(Some).collect())
}

fn owned_states(l: &LocalEuler) -> Vec<(u32, State5)> {
    (0..l.n_owned)
        .map(|c| (l.local_to_global[c], l.level.u.get(c)))
        .collect()
}

fn assemble(ncells: usize, parts: Vec<Vec<(u32, State5)>>) -> Vec<State5> {
    let mut u = vec![[0.0; NVARS5]; ncells];
    for (g, s) in parts.into_iter().flatten() {
        u[g as usize] = s;
    }
    u
}

fn state_digest(u: &[State5]) -> u64 {
    let mut d = Fnv::default();
    d.f64s(u.iter().flatten().copied());
    d.0
}

/// The timed solve: residual norm, `steps` RK steps, residual norm.
fn solve(mesh: &CartMesh, decomp: &Decomposition, locals: Vec<LocalEuler>, steps: usize) -> Solve {
    let cells = take_locals(locals);
    let (res, traces) = run_world(decomp.nparts(), &pinned_ctx(), |rank| {
        let mut l = cells.lock().expect("locals lock")[rank.rank()]
            .take()
            .expect("local level taken twice");
        let before = parallel_residual_rms(&mut l, decomp, rank);
        let t = Instant::now();
        for _ in 0..steps {
            parallel_rk_step(&mut l, decomp, rank);
        }
        let steps_s = secs(t);
        let after = parallel_residual_rms(&mut l, decomp, rank);
        (before, after, steps_s, owned_states(&l))
    });
    let (before, after) = (res[0].0, res[0].1);
    let rank_steps_s = res.iter().map(|r| r.2).collect();
    let u = assemble(mesh.ncells(), res.into_iter().map(|r| r.3).collect());
    Solve {
        before,
        after,
        rank_steps_s,
        traces,
        u,
    }
}

/// Computed bytes of the resident Euler state and mesh over both ranks.
fn working_set_bytes(locals: &[LocalEuler]) -> u64 {
    // u, u0, forcing, restricted_u, res planes + lam; centers, volumes,
    // kind, weight, wall normal, key, level, coords.
    const PER_CELL: u64 = 8 * (5 * NVARS5 as u64 + 1) + 24 + 8 + 1 + 8 + 24 + 8 + 4 + 12;
    const PER_FACE: u64 = 4 + 4 + 24;
    locals
        .iter()
        .map(|l| l.level.mesh.ncells() as u64 * PER_CELL + l.level.mesh.nfaces() as u64 * PER_FACE)
        .sum()
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let sz = Sizing::of(cfg.size);
    let case = Case::new(&sz, cfg.seed);
    let mut out = Outcome::default();
    if cfg.trace {
        traced(cfg, &sz, &case, &mut out);
    } else {
        end_to_end(cfg, &sz, &case, &mut out);
    }
    out
}

/// The end-to-end run: repeated meshing + partitioning + local build,
/// then the 2-rank and 1-rank solves.
fn end_to_end(cfg: &RunConfig, sz: &Sizing, case: &Case, out: &mut Outcome) {
    let deadline = cfg.deadline();
    let mut samples = Samples::default();
    let mut p = Pass::default();
    let (mut ncells, mut ws) = (0, 0);
    let mut rep = 0usize;
    while rep < 2 || Instant::now() < deadline {
        let ((mesh, (d2, l2)), setup) = measure(|| {
            let mesh = case.analysis.mesh(&case.geom);
            let locals = case.locals(&mesh, 2);
            (mesh, locals)
        });
        samples.setup.push(setup);
        ncells = mesh.ncells();
        ws = working_set_bytes(&l2);
        let (d1, l1) = case.locals(&mesh, 1);
        let timed_solve = |d, l| measure(|| solve(&mesh, d, l, sz.steps));
        let ((s2, t2), (s1, t1)) = if rep.is_multiple_of(2) {
            let a = timed_solve(&d2, l2);
            (a, timed_solve(&d1, l1))
        } else {
            let b = timed_solve(&d1, l1);
            (timed_solve(&d2, l2), b)
        };
        p.checks
            .push(gate::residual_falls("2-rank RK solve", s2.before, s2.after));
        p.checks
            .push(gate::residual_falls("1-rank RK solve", s1.before, s1.after));
        samples.solve2.push(t2);
        samples.solve1.push(t1);
        rep += 1;
    }
    let throughput = (ncells * sz.steps) as f64 / samples.solve_busy_s();
    end_to_end_metrics(out, p, &samples, throughput);
    out.note(format!(
        "mesh: {ncells} cells (resolution {}..{}), {} RK steps per solve",
        sz.min_level, sz.max_level, sz.steps
    ));
    out.note("setup: mesh + SFC partition + 2-rank local build");
    out.note("throughput: cell-steps per busy second of the 2-rank solve");
    config_notes(out, cfg, ws);
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

const RESIDUAL: usize = 0;
const FINALIZE: usize = 1;
const STAGE: usize = 2;
const EXCHANGE: usize = 3;
const REDUCE: usize = 4;
const NPHASE: usize = 5;
const PHASE_NAMES: [&str; NPHASE] = ["residual", "finalize", "stage", "exchange", "allreduce"];

#[derive(Clone, Copy, Default)]
struct Phases {
    t: [f64; NPHASE],
    flops: [u64; NPHASE],
    /// Wall of the replayed steps alone.
    steps_s: f64,
}

fn timed<R>(
    acc: &mut Phases,
    ph: usize,
    l: &mut EulerLevel,
    body: impl FnOnce(&mut EulerLevel) -> R,
) -> R {
    let f0 = l.flops;
    let t = Instant::now();
    let r = body(l);
    acc.t[ph] += secs(t);
    acc.flops[ph] += l.flops - f0;
    r
}

/// `parallel_rk_step`'s public call sequence with a timer around each call.
fn replay_step(local: &mut LocalEuler, decomp: &Decomposition, rank: &mut Rank, acc: &mut Phases) {
    let plan = &decomp.plans[rank.rank()];
    let lvl = &mut local.level;
    timed(acc, STAGE, lvl, |l| l.u0.copy_from(&l.u));
    for (stage, &alpha) in RK5.iter().enumerate() {
        let tag = 100 + 10 * stage as u64;
        timed(acc, EXCHANGE, lvl, |l| {
            plan.exchange_copy_field(rank, tag, &mut l.u)
        });
        timed(acc, RESIDUAL, lvl, |l| l.accumulate_residual());
        timed(acc, EXCHANGE, lvl, |l| {
            let EulerLevel { res, lam, .. } = l;
            plan.exchange_add2_field(rank, tag + 1, res, &mut lam[..]);
        });
        timed(acc, FINALIZE, lvl, |l| l.finalize_residual());
        timed(acc, STAGE, lvl, |l| l.apply_stage(alpha));
    }
    timed(acc, EXCHANGE, lvl, |l| {
        plan.exchange_copy_field(rank, 99, &mut l.u)
    });
}

/// `parallel_residual_rms`'s public call sequence, timed.
fn replay_residual(
    local: &mut LocalEuler,
    decomp: &Decomposition,
    rank: &mut Rank,
    acc: &mut Phases,
) -> f64 {
    let plan = &decomp.plans[rank.rank()];
    let lvl = &mut local.level;
    timed(acc, EXCHANGE, lvl, |l| {
        plan.exchange_copy_field(rank, 200, &mut l.u)
    });
    timed(acc, RESIDUAL, lvl, |l| l.accumulate_residual());
    timed(acc, EXCHANGE, lvl, |l| {
        plan.exchange_add_field(rank, 201, &mut l.res)
    });
    timed(acc, FINALIZE, lvl, |l| l.finalize_residual());
    timed(acc, REDUCE, lvl, |l| {
        let (ss, cnt) = l.residual_sumsq();
        let gss = rank.allreduce_sum(ss);
        let gcnt = rank.allreduce_sum(cnt as f64);
        if gcnt == 0.0 {
            0.0
        } else {
            (gss / gcnt).sqrt()
        }
    })
}

/// The solve with every public call timed, on its own identically built
/// local levels.
/// Returns per rank the phases of the steps and of the two residual norms.
fn replay(
    mesh: &CartMesh,
    decomp: &Decomposition,
    locals: Vec<LocalEuler>,
    steps: usize,
) -> (Vec<(Phases, Phases)>, Vec<State5>) {
    let cells = take_locals(locals);
    let (res, _) = run_world(decomp.nparts(), &pinned_ctx(), |rank| {
        let mut l = cells.lock().expect("locals lock")[rank.rank()]
            .take()
            .expect("local level taken twice");
        let (mut steps_acc, mut norms_acc) = (Phases::default(), Phases::default());
        replay_residual(&mut l, decomp, rank, &mut norms_acc);
        let t = Instant::now();
        for _ in 0..steps {
            replay_step(&mut l, decomp, rank, &mut steps_acc);
        }
        steps_acc.steps_s = secs(t);
        replay_residual(&mut l, decomp, rank, &mut norms_acc);
        (steps_acc, norms_acc, owned_states(&l))
    });
    let phases = res.iter().map(|r| (r.0, r.1)).collect();
    let u = assemble(mesh.ncells(), res.into_iter().map(|r| r.2).collect());
    (phases, u)
}

fn traced_pass(sz: &Sizing, case: &Case) -> Pass {
    let mut p = Pass::default();
    // `CartAnalysis::mesh` is these two calls.
    let a = &case.analysis;
    let config = CutCellConfig::around(&case.geom, a.pad, a.min_level, a.max_level);
    let t = Instant::now();
    let tree = build_octree(&case.geom, &config);
    p.measured("cartesian.octree_s", secs(t), "s");
    let t = Instant::now();
    let mesh = extract_mesh(&tree, &case.geom, a.curve, 0.1);
    p.measured("cartesian.extract_s", secs(t), "s");
    p.measured("cartesian.cells", mesh.ncells() as f64, "count");
    p.measured("cartesian.cut_cells", mesh.ncut() as f64, "count");
    p.det("mesh.cells", mesh.ncells());
    p.det("mesh.cut_cells", mesh.ncut());
    p.det("mesh.faces", mesh.nfaces());
    let t = Instant::now();
    let cp = partition_cells(&mesh, 2);
    p.measured("sfc.partition_s", secs(t), "s");
    p.measured("sfc.imbalance", cp.imbalance(&mesh.weights), "ratio");
    p.det("sfc.starts", format!("{:?}", cp.starts));
    let t = Instant::now();
    let (decomp, locals) = case.locals(&mesh, 2);
    p.measured("euler.build_local_s", secs(t), "s");

    let real = solve(&mesh, &decomp, locals, sz.steps);
    p.checks.push(gate::residual_falls(
        "traced 2-rank RK solve",
        real.before,
        real.after,
    ));
    comm_counts(&real.traces, "", &mut p, true);
    let real_digest = state_digest(&real.u);
    p.det("state.digest", format!("{real_digest:016x}"));
    p.det(
        "residual.bits",
        format!(
            "{:016x} {:016x}",
            real.before.to_bits(),
            real.after.to_bits()
        ),
    );

    // The benchmark's loop is the public driver.
    let (u_driver, _, _) =
        run_parallel_smoothing(&mesh, case.fs, case.cfl, 2, sz.steps, &mut pinned_ctx());
    p.checks.push(gate::same_digest(
        "step loop vs run_parallel_smoothing state",
        real_digest,
        state_digest(&u_driver),
    ));

    let (decomp_r, locals_r) = case.locals(&mesh, 2);
    let (phases, u_replay) = replay(&mesh, &decomp_r, locals_r, sz.steps);
    p.checks.push(gate::same_digest(
        "replayed parallel_rk_step state",
        real_digest,
        state_digest(&u_replay),
    ));
    // Phase seconds of the whole solve (steps and both norms), mean over
    // ranks; the overhead and coverage compare the steps alone.
    let n = phases.len() as f64;
    let mean = |f: &dyn Fn(&Phases) -> f64| phases.iter().map(|(s, _)| f(s)).sum::<f64>() / n;
    let solve_mean = |ph: usize| phases.iter().map(|(s, r)| s.t[ph] + r.t[ph]).sum::<f64>() / n;
    for (ph, name) in PHASE_NAMES.iter().enumerate().take(EXCHANGE) {
        p.measured(format!("euler.{name}_s"), solve_mean(ph), "s");
    }
    p.measured("comm.exchange_s", solve_mean(EXCHANGE), "s");
    p.measured("comm.l0.exchange_s", solve_mean(EXCHANGE), "s");
    for l in 1..REPORTED_LEVELS {
        p.measured(format!("comm.l{l}.exchange_s"), 0.0, "s");
    }
    p.measured("comm.allreduce_s", solve_mean(REDUCE), "s");
    let compute = |x: &Phases| x.t[RESIDUAL] + x.t[FINALIZE] + x.t[STAGE];
    let max_compute = phases.iter().map(|(s, _)| compute(s)).fold(0.0, f64::max);
    p.derived("euler.rank_skew", max_compute / mean(&compute), "ratio");
    let res_flops: u64 = phases.iter().map(|(s, _)| s.flops[RESIDUAL]).sum();
    let res_time: f64 = phases.iter().map(|(s, _)| s.t[RESIDUAL]).sum();
    p.derived(
        "euler.residual_gflops",
        res_flops as f64 / res_time / 1e9,
        "GF/s",
    );
    let real_steps = real.rank_steps_s.iter().sum::<f64>() / n;
    p.derived(
        "trace.overhead",
        mean(&|x| x.steps_s) / real_steps - 1.0,
        "ratio",
    );
    p.derived(
        "trace.coverage",
        mean(&|x| x.t[..REDUCE].iter().sum()) / real_steps,
        "ratio",
    );
    for (ph, name) in PHASE_NAMES.iter().enumerate() {
        let f: u64 = phases.iter().map(|(s, r)| s.flops[ph] + r.flops[ph]).sum();
        p.det(format!("flops.{name}"), f);
    }
    p
}

fn traced(cfg: &RunConfig, sz: &Sizing, case: &Case, out: &mut Outcome) {
    traced_passes(cfg, out, || traced_pass(sz, case));
}
