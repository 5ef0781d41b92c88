//! `nsu3d_wcycle`: 5-level line-implicit agglomeration multigrid W(2,1,4)
//! cycles of `ParallelMg` on a stretched-boundary-layer wing mesh, at 2
//! ranks with a 1-rank baseline.
//!
//! The traced run times each public call `parallel_sweep` and
//! `parallel_residual_rms` make, replayed from this file on a hierarchy
//! built exactly like the one `ParallelMg::solve` runs on. A replay counts
//! only when its state bits equal the real functions' on a second,
//! identically built hierarchy.

use std::sync::Mutex;
use std::time::Instant;

use columbia_comm::{run_world, Decomposition, Rank, RankTrace};
use columbia_linalg::soa::SoaStates;
use columbia_mesh::{agglomerate_hierarchy, wing_mesh, UnstructuredMesh, WingMeshSpec};
use columbia_mg::{level_visits, ConvergenceHistory, CycleParams, CycleType};
use columbia_partition::PartitionQuality;
use columbia_rans::parallel::{
    build_local_levels, parallel_residual_rms, parallel_sweep, partition_mesh_line_aware,
    LocalLevel,
};
use columbia_rans::{ParallelMg, SolverParams};
use columbia_rt::env::KernelKind;

use crate::common::{
    comm_counts, config_notes, end_to_end_metrics, measure, pinned_ctx, secs, traced_passes, Fnv,
    Outcome, Pass, RunConfig, Samples, Size, REPORTED_LEVELS,
};
use crate::gate;

/// Fixed CFL of every solve (the paper's NSU3D runs use a fixed CFL).
const CFL: f64 = 4.0;
/// Minimum orders of residual reduction a 2-cycle solve must reach. The
/// solves reduce 1.8-1.9 orders on every seed tried; a smoother or
/// transfer change that loses a third of that fails the run.
const ORDERS_FLOOR: f64 = 1.2;

struct Sizing {
    points: usize,
    levels: usize,
    cycles: usize,
    /// Sweeps replayed per level in the traced run.
    replay_sweeps: usize,
    /// Counts-only rank counts (oversubscribed on this host: no wall clock).
    count_ranks: &'static [usize],
}

impl Sizing {
    fn of(size: Size) -> Self {
        match size {
            Size::Full => Sizing {
                points: 47_000,
                levels: 5,
                cycles: 2,
                replay_sweeps: 3,
                count_ranks: &[4, 8],
            },
            Size::Tiny => Sizing {
                points: 3_000,
                levels: 3,
                cycles: 2,
                replay_sweeps: 1,
                count_ranks: &[4],
            },
        }
    }
}

fn mesh_spec(sz: &Sizing, seed: u64) -> WingMeshSpec {
    WingMeshSpec {
        seed,
        ..WingMeshSpec::with_target_points(sz.points)
    }
}

fn params() -> SolverParams {
    SolverParams {
        mach: 0.5,
        kernel: Some(KernelKind::Simd),
        ..Default::default()
    }
}

fn cycle_params() -> CycleParams {
    CycleParams {
        pre_sweeps: 2,
        post_sweeps: 1,
        coarse_sweeps: 4,
        cycle: CycleType::W,
    }
}

fn solve(pmg: ParallelMg, cycles: usize) -> (ConvergenceHistory, Vec<RankTrace>) {
    pmg.solve(&cycle_params(), CFL, cycles, &mut pinned_ctx())
}

fn history_digest(h: &ConvergenceHistory) -> String {
    let mut d = Fnv::default();
    d.f64s(h.residuals.iter().copied());
    d.hex()
}

/// Computed bytes of the resident solver state and mesh over all levels
/// and ranks (planes, gradient accumulators, diagonal blocks and their
/// pack buffer, points, volumes, wall distance, edges).
fn working_set_bytes(pmg: &ParallelMg) -> u64 {
    const PER_VERTEX: u64 = 8 * (4 * 6 + 9 + 36 + 1 + 37 + 3 + 2);
    const PER_EDGE: u64 = 8 + 24 + 8;
    pmg.locals
        .iter()
        .flatten()
        .map(|l| {
            l.level.mesh.nvertices() as u64 * PER_VERTEX + l.level.mesh.nedges() as u64 * PER_EDGE
        })
        .sum()
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let sz = Sizing::of(cfg.size);
    let mut out = Outcome::default();
    let spec = mesh_spec(&sz, cfg.seed);
    if cfg.trace {
        traced(cfg, &sz, &spec, &mut out);
    } else {
        end_to_end(cfg, &sz, &spec, &mut out);
    }
    out
}

/// The end-to-end run: repeated set-up + 2-rank solve + 1-rank solve.
fn end_to_end(cfg: &RunConfig, sz: &Sizing, spec: &WingMeshSpec, out: &mut Outcome) {
    let deadline = cfg.deadline();
    let mut samples = Samples::default();
    let mut p = Pass::default();
    let (mut nverts, mut ws) = (0, 0);
    let mut rep = 0usize;
    while rep < 2 || Instant::now() < deadline {
        let ((mesh, pmg2), setup) = measure(|| {
            let mesh = wing_mesh(spec);
            let pmg = ParallelMg::new(&mesh, params(), 2, sz.levels);
            (mesh, pmg)
        });
        samples.setup.push(setup);
        nverts = mesh.nvertices();
        ws = working_set_bytes(&pmg2);
        let pmg1 = ParallelMg::new(&mesh, params(), 1, sz.levels);
        let timed_solve = |pmg| measure(|| solve(pmg, sz.cycles));
        // Alternate which rank count goes first so slow drift of a shared
        // host does not bias the efficiency.
        let (((h2, _), t2), ((h1, _), t1)) = if rep.is_multiple_of(2) {
            let a = timed_solve(pmg2);
            (a, timed_solve(pmg1))
        } else {
            let b = timed_solve(pmg1);
            (timed_solve(pmg2), b)
        };
        samples.solve2.push(t2);
        samples.solve1.push(t1);
        p.checks
            .push(gate::history("2-rank solve", &h2, ORDERS_FLOOR));
        p.checks.push(
            gate::history("1-rank solve", &h1, ORDERS_FLOOR)
                .and_then(|_| gate::histories_agree(&h2, &h1)),
        );
        rep += 1;
    }
    let throughput = (nverts * sz.cycles) as f64 / samples.solve_busy_s();
    end_to_end_metrics(out, p, &samples, throughput);
    out.note(format!(
        "mesh: {nverts} vertices, {} levels, {} W(2,1,4) cycles per solve at CFL {CFL}",
        sz.levels, sz.cycles
    ));
    out.note("throughput: fine-grid vertex-cycles per busy second of the 2-rank solve");
    config_notes(out, cfg, ws);
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

const GRADIENT: usize = 0;
const FLUX: usize = 1;
const DIAGONAL: usize = 2;
const FINALIZE: usize = 3;
const IMPLICIT: usize = 4;
const EXCHANGE: usize = 5;
const NPHASE: usize = 6;
const PHASE_NAMES: [&str; NPHASE] = [
    "gradient", "flux", "diagonal", "finalize", "implicit", "exchange",
];

/// Time and FLOPs per phase: `nominal` from the level's own counter
/// (`RansLevel::flops`), `exact` from the dense-kernel counter
/// (`columbia_linalg::flops`).
#[derive(Clone, Copy, Default)]
struct Phases {
    t: [f64; NPHASE],
    nominal: [u64; NPHASE],
    exact: [u64; NPHASE],
    /// Wall time of the whole replayed call sequence.
    wall: f64,
}

/// Runs `body` as phase `ph` of `acc`, charging its wall time and the
/// FLOP deltas of both counters.
fn timed<R>(
    acc: &mut Phases,
    ph: usize,
    local: &mut LocalLevel,
    body: impl FnOnce(&mut LocalLevel) -> R,
) -> R {
    let n0 = local.level.flops.total();
    let e0 = columbia_linalg::flops::total();
    let t = Instant::now();
    let r = body(local);
    acc.t[ph] += secs(t);
    acc.nominal[ph] += local.level.flops.total() - n0;
    acc.exact[ph] += columbia_linalg::flops::total() - e0;
    r
}

/// `parallel_sweep`'s public call sequence with a timer around every call.
fn replay_sweep(local: &mut LocalLevel, decomp: &Decomposition, rank: &mut Rank, acc: &mut Phases) {
    let plan = &decomp.plans[rank.rank()];
    let t0 = Instant::now();
    timed(acc, GRADIENT, local, |l| {
        l.level.begin_residual();
        l.level.accumulate_gradients();
    });
    timed(acc, EXCHANGE, local, |l| {
        plan.exchange_add_field(rank, 10, l.level.grad_mut())
    });
    timed(acc, GRADIENT, local, |l| l.level.finalize_gradients());
    timed(acc, EXCHANGE, local, |l| {
        plan.exchange_copy_field(rank, 11, l.level.grad_mut())
    });
    timed(acc, FLUX, local, |l| l.level.accumulate_fluxes());
    timed(acc, DIAGONAL, local, |l| {
        l.level.accumulate_diagonal();
        l.level.pack_diag_scratch();
    });
    timed(acc, EXCHANGE, local, |l| {
        // The residual planes and the diagonal pack buffer travel in one
        // coalesced exchange; the planes are moved out for the call so
        // both can be borrowed (no allocation: an empty plane set).
        let mut res = std::mem::replace(&mut l.level.res, SoaStates::zeros(0));
        plan.exchange_add2_field(rank, 12, &mut res, l.level.diag_pack_mut());
        l.level.res = res;
    });
    timed(acc, FINALIZE, local, |l| l.level.finalize_residual());
    timed(acc, EXCHANGE, local, |l| {
        plan.exchange_copy_field(rank, 14, l.level.diag_pack_mut())
    });
    timed(acc, DIAGONAL, local, |l| {
        l.level.unpack_diag_scratch();
        l.level.finalize_diagonal();
    });
    timed(acc, IMPLICIT, local, |l| l.level.solve_implicit());
    timed(acc, EXCHANGE, local, |l| {
        plan.exchange_copy_field(rank, 15, &mut l.level.u)
    });
    acc.wall += secs(t0);
}

/// `parallel_residual_rms`'s public call sequence, timed; the two
/// allreduces are returned separately from the phases.
fn replay_residual(
    local: &mut LocalLevel,
    decomp: &Decomposition,
    rank: &mut Rank,
    acc: &mut Phases,
) -> (f64, f64) {
    let plan = &decomp.plans[rank.rank()];
    let t0 = Instant::now();
    timed(acc, GRADIENT, local, |l| {
        l.level.begin_residual();
        l.level.accumulate_gradients();
    });
    timed(acc, EXCHANGE, local, |l| {
        plan.exchange_add_field(rank, 20, l.level.grad_mut())
    });
    timed(acc, GRADIENT, local, |l| l.level.finalize_gradients());
    timed(acc, EXCHANGE, local, |l| {
        plan.exchange_copy_field(rank, 21, l.level.grad_mut())
    });
    timed(acc, FLUX, local, |l| l.level.accumulate_fluxes());
    timed(acc, EXCHANGE, local, |l| {
        plan.exchange_add_field(rank, 22, &mut l.level.res)
    });
    timed(acc, FINALIZE, local, |l| l.level.finalize_residual());
    acc.wall += secs(t0);
    let t = Instant::now();
    let (ss, cnt) = local.level.residual_sumsq();
    let gss = rank.allreduce_sum(ss);
    let gcnt = rank.allreduce_sum(cnt as f64);
    let reduce_s = secs(t);
    let rms = if gcnt == 0.0 {
        0.0
    } else {
        (gss / gcnt).sqrt()
    };
    (rms, reduce_s)
}

/// What one rank measured on one level.
#[derive(Clone, Copy, Default)]
struct LevelRec {
    sweep: Phases,
    residual: Phases,
    allreduce_s: f64,
    /// Untraced wall of the same sweeps / residual through the real calls.
    ref_sweep_s: f64,
    ref_residual_s: f64,
    /// Digest of the replayed state and residual bits after the sequence.
    digest: u64,
    /// Whether the replay's bits equal the real calls'.
    same_bits: bool,
}

fn level_digest(local: &LocalLevel, rms: f64) -> u64 {
    let mut d = Fnv::default();
    for k in 0..6 {
        d.f64s(local.level.u.plane(k).iter().copied());
        d.f64s(local.level.res.plane(k).iter().copied());
    }
    d.word(rms.to_bits());
    d.0
}

/// Per-rank columns of a hierarchy's local levels.
fn columns(pmg: &mut ParallelMg) -> Vec<Vec<LocalLevel>> {
    let mut cols: Vec<Vec<LocalLevel>> = (0..pmg.nparts).map(|_| Vec::new()).collect();
    for lvl in pmg.locals.drain(..) {
        for (r, local) in lvl.into_iter().enumerate() {
            cols[r].push(local);
        }
    }
    cols
}

/// Replays `sweeps` sweeps and one residual evaluation per level on one
/// hierarchy and runs the real calls on a second, identically built one.
fn replay_levels(mesh: &UnstructuredMesh, sz: &Sizing) -> Vec<Vec<LevelRec>> {
    let mut replay = ParallelMg::new(mesh, params(), 2, sz.levels);
    let mut reference = ParallelMg::new(mesh, params(), 2, sz.levels);
    let cols = Mutex::new(
        columns(&mut replay)
            .into_iter()
            .zip(columns(&mut reference))
            .map(Some)
            .collect::<Vec<_>>(),
    );
    let (d_rep, d_ref) = (&replay.decomps, &reference.decomps);
    let sweeps = sz.replay_sweeps;
    let (recs, _) = run_world(2, &pinned_ctx(), |rank| {
        let (mut rep, mut refl) = cols.lock().expect("column lock")[rank.rank()]
            .take()
            .expect("columns taken twice");
        let mut out = Vec::new();
        for l in 0..rep.len() {
            let mut rec = LevelRec::default();
            for (local, d) in [(&mut refl[l], &d_ref[l]), (&mut rep[l], &d_rep[l])] {
                local.level.cfl_now = CFL;
                local.level.apply_bcs();
                d.plans[rank.rank()].exchange_copy_field(rank, 1, &mut local.level.u);
            }
            let t = Instant::now();
            for _ in 0..sweeps {
                parallel_sweep(&mut refl[l], &d_ref[l], rank);
            }
            rec.ref_sweep_s = secs(t);
            let t = Instant::now();
            let rms_ref = parallel_residual_rms(&mut refl[l], &d_ref[l], rank);
            rec.ref_residual_s = secs(t);
            for _ in 0..sweeps {
                replay_sweep(&mut rep[l], &d_rep[l], rank, &mut rec.sweep);
            }
            let (rms, reduce_s) = replay_residual(&mut rep[l], &d_rep[l], rank, &mut rec.residual);
            rec.allreduce_s = reduce_s;
            rec.digest = level_digest(&rep[l], rms);
            rec.same_bits = rec.digest == level_digest(&refl[l], rms_ref);
            out.push(rec);
        }
        out
    });
    recs
}

/// How often one solve runs each per-level call sequence.
struct SolveCounts {
    /// Smoothing sweeps per level.
    sweeps: Vec<f64>,
    /// Residual evaluations without a norm (restriction and FAS forcing).
    residuals: Vec<f64>,
    /// Residual-norm evaluations on the finest level (history entries).
    norms: f64,
}

impl SolveCounts {
    /// Residual call sequences on level `l`, with and without the norm.
    fn residual_calls(&self, l: usize) -> f64 {
        self.residuals[l] + if l == 0 { self.norms } else { 0.0 }
    }
}

fn solve_counts(nlevels: usize, cycles: usize) -> SolveCounts {
    let cp = cycle_params();
    let visits = level_visits(nlevels, cp.cycle);
    let last = nlevels - 1;
    let c = cycles as f64;
    let sweeps = (0..nlevels)
        .map(|l| {
            let per_visit = if l == last {
                cp.coarse_sweeps
            } else {
                cp.pre_sweeps + cp.post_sweeps
            };
            c * (visits[l] * per_visit) as f64
        })
        .collect();
    // Restricting from level l evaluates the residual on l (fine side)
    // and on l+1 (FAS forcing), once per visit of l.
    let residuals = (0..nlevels)
        .map(|l| {
            let fine = if l < last { visits[l] } else { 0 };
            let coarse = if l > 0 { visits[l - 1] } else { 0 };
            c * (fine + coarse) as f64
        })
        .collect();
    SolveCounts {
        sweeps,
        residuals,
        norms: c + 1.0,
    }
}

/// FLOPs over phase time of `phases`, per core, weighted by how often the
/// solve sweeps each level. The implicit phase is rated on the exact
/// dense-kernel count; the others on the level's nominal count.
fn sweep_gflops(
    recs: &[Vec<LevelRec>],
    counts: &SolveCounts,
    sweeps: f64,
    phases: &[usize],
) -> f64 {
    let (mut flops, mut time) = (0.0, 0.0);
    for rank in recs {
        for (l, rec) in rank.iter().enumerate() {
            for &ph in phases {
                let f = if ph == IMPLICIT {
                    rec.sweep.exact[ph]
                } else {
                    rec.sweep.nominal[ph]
                };
                flops += counts.sweeps[l] * f as f64 / sweeps;
                time += counts.sweeps[l] * rec.sweep.t[ph] / sweeps;
            }
        }
    }
    flops / time.max(1e-12) / 1e9
}

fn traced_pass(sz: &Sizing, spec: &WingMeshSpec) -> Pass {
    let mut p = Pass::default();

    // Set-up, split by layer. `ParallelMg::new` runs agglomeration, the
    // line-aware partitions and the local builds internally; the same
    // calls are timed here one by one and the rest of `new` is derived.
    let t = Instant::now();
    let mesh = wing_mesh(spec);
    p.measured("mesh.generate_s", secs(t), "s");
    let t = Instant::now();
    let pmg = ParallelMg::new(&mesh, params(), 2, sz.levels);
    let new_s = secs(t);
    let t = Instant::now();
    let steps = agglomerate_hierarchy(&mesh, sz.levels, 10);
    let agg_s = secs(t);
    let mut meshes: Vec<&UnstructuredMesh> = vec![&mesh];
    meshes.extend(steps.iter().map(|s| &s.coarse));
    let t = Instant::now();
    for lm in &meshes {
        std::hint::black_box(partition_mesh_line_aware(lm, 2, params().line_threshold));
    }
    let part_s = secs(t);
    let t = Instant::now();
    for (l, lm) in meshes.iter().enumerate() {
        std::hint::black_box(build_local_levels(lm, &pmg.parts[l], 2, params()));
    }
    let build_s = secs(t);
    p.measured("mesh.agglomerate_s", agg_s, "s");
    p.measured("partition.line_aware_s", part_s, "s");
    p.measured("rans.build_local_s", build_s, "s");
    p.derived("mg.build_other_s", new_s - agg_s - part_s - build_s, "s");
    let q = PartitionQuality::measure(&mesh.dual_graph(), &pmg.parts[0], 2);
    let max_degree = q.comm_degree.iter().copied().max().unwrap_or(0);
    p.measured("partition.edge_cut", q.edge_cut, "count");
    p.measured("partition.max_comm_degree", max_degree as f64, "count");
    p.det("partition.edge_cut", q.edge_cut);
    let nlevels = pmg.nlevels();

    // The real 2-rank solve: wall time and the teardown ledgers.
    let t = Instant::now();
    let (h, traces) = solve(pmg, sz.cycles);
    let solve_s = secs(t);
    p.checks
        .push(gate::history("traced 2-rank solve", &h, ORDERS_FLOOR));
    p.measured("mg.orders_reduced", h.orders_reduced(), "count");
    p.det("history.digest", history_digest(&h));
    comm_counts(&traces, "", &mut p, true);

    // Replayed call sequences, per level and rank.
    let recs = replay_levels(&mesh, sz);
    for (r, levels) in recs.iter().enumerate() {
        for (l, rec) in levels.iter().enumerate() {
            p.checks.push(if rec.same_bits {
                Ok(())
            } else {
                Err(format!(
                    "rank {r} level {l}: replayed sweep bits differ from parallel_sweep"
                ))
            });
        }
    }
    let counts = solve_counts(nlevels, sz.cycles);
    let nranks = recs.len() as f64;
    let swp = sz.replay_sweeps as f64;
    // Seconds rank `r` spends in phase `ph` per solve: the replayed
    // per-call time scaled by how often the solve makes that call.
    let per_solve = |r: usize, ph: usize| -> f64 {
        recs[r]
            .iter()
            .enumerate()
            .map(|(l, rec)| {
                counts.sweeps[l] * rec.sweep.t[ph] / swp
                    + counts.residual_calls(l) * rec.residual.t[ph]
            })
            .sum()
    };
    let mean_over_ranks = |f: &dyn Fn(usize) -> f64| (0..recs.len()).map(f).sum::<f64>() / nranks;
    for (ph, name) in PHASE_NAMES.iter().enumerate().take(EXCHANGE) {
        p.derived(
            format!("rans.{name}_s"),
            mean_over_ranks(&|r| per_solve(r, ph)),
            "s",
        );
    }
    p.derived(
        "comm.exchange_s",
        mean_over_ranks(&|r| per_solve(r, EXCHANGE)),
        "s",
    );
    p.derived(
        "comm.allreduce_s",
        mean_over_ranks(&|r| counts.norms * recs[r][0].allreduce_s),
        "s",
    );
    let compute: Vec<f64> = (0..recs.len())
        .map(|r| (0..EXCHANGE).map(|ph| per_solve(r, ph)).sum())
        .collect();
    let mean_compute = compute.iter().sum::<f64>() / nranks;
    p.derived(
        "rans.rank_skew",
        compute.iter().copied().fold(0.0, f64::max) / mean_compute,
        "ratio",
    );
    let mut accounted = 0.0;
    // Every reported level gets a row; levels past the hierarchy read 0.
    #[allow(clippy::needless_range_loop)]
    for l in 0..REPORTED_LEVELS {
        let (sweep_s, exch_s) = if l < nlevels {
            let sweep = mean_over_ranks(&|r| counts.sweeps[l] * recs[r][l].sweep.wall / swp);
            let norms = if l == 0 { counts.norms } else { 0.0 };
            let resid = mean_over_ranks(&|r| {
                counts.residual_calls(l) * recs[r][l].residual.wall + norms * recs[r][l].allreduce_s
            });
            accounted += sweep + resid;
            let exch = mean_over_ranks(&|r| {
                counts.sweeps[l] * recs[r][l].sweep.t[EXCHANGE] / swp
                    + counts.residual_calls(l) * recs[r][l].residual.t[EXCHANGE]
            });
            (sweep, exch)
        } else {
            (0.0, 0.0)
        };
        p.derived(format!("rans.l{l}.sweep_s"), sweep_s, "s");
        p.derived(format!("comm.l{l}.exchange_s"), exch_s, "s");
    }
    p.derived("mg.transfer_other_s", solve_s - accounted, "s");
    let compute_phases: Vec<usize> = (0..EXCHANGE).collect();
    p.derived(
        "rans.sweep_gflops",
        sweep_gflops(&recs, &counts, swp, &compute_phases),
        "GF/s",
    );
    p.derived(
        "rans.diagonal_gflops",
        sweep_gflops(&recs, &counts, swp, &[DIAGONAL]),
        "GF/s",
    );
    p.derived(
        "rans.implicit_gflops",
        sweep_gflops(&recs, &counts, swp, &[IMPLICIT]),
        "GF/s",
    );

    // Traced-versus-untraced cost of the same calls, and how much of the
    // real `parallel_sweep` time the timed phases cover.
    let all = || recs.iter().flatten();
    let replay_wall: f64 = all()
        .map(|r| r.sweep.wall + r.residual.wall + r.allreduce_s)
        .sum();
    let real_wall: f64 = all().map(|r| r.ref_sweep_s + r.ref_residual_s).sum();
    let phase_sum: f64 = all().map(|r| r.sweep.t.iter().sum::<f64>()).sum();
    let real_sweeps: f64 = all().map(|r| r.ref_sweep_s).sum();
    p.derived("trace.overhead", replay_wall / real_wall - 1.0, "ratio");
    p.derived("trace.coverage", phase_sum / real_sweeps, "ratio");

    for l in 0..recs[0].len() {
        let mut d = Fnv::default();
        for rank in &recs {
            d.word(rank[l].digest);
        }
        p.det(format!("state.l{l}.digest"), d.hex());
        for (ph, name) in PHASE_NAMES.iter().enumerate().take(EXCHANGE) {
            let nominal: u64 = recs.iter().map(|rk| rk[l].sweep.nominal[ph]).sum();
            let exact: u64 = recs.iter().map(|rk| rk[l].sweep.exact[ph]).sum();
            p.det(format!("flops.l{l}.{name}.nominal"), nominal);
            p.det(format!("flops.l{l}.{name}.exact"), exact);
        }
    }
    p
}

/// The traced run: traced passes until the time budget is spent (at least
/// one), per-layer medians, and the counts-only rows at higher rank counts.
fn traced(cfg: &RunConfig, sz: &Sizing, spec: &WingMeshSpec, out: &mut Outcome) {
    traced_passes(cfg, out, || traced_pass(sz, spec));
    // Counts-only rows: these rank counts oversubscribe the host's cores,
    // so only counts and digests are recorded, no wall clock.
    let mesh = wing_mesh(spec);
    for &n in sz.count_ranks {
        let pmg = ParallelMg::new(&mesh, params(), n, sz.levels);
        let (h, traces) = solve(pmg, 1);
        out.check(gate::history(&format!("{n}-rank solve"), &h, 0.0));
        let mut row = Pass::default();
        row.det(format!("r{n}.history.digest"), history_digest(&h));
        comm_counts(&traces, &format!("r{n}."), &mut row, false);
        out.deterministic.append(&mut row.det);
    }
}
