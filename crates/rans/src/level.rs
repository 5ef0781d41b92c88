//! One multigrid level of the solver: mesh data, state, residual assembly,
//! and the point-/line-implicit smoothers.
//!
//! Solver state is **plane-resident**: `u`, `res`, the FAS fields, and the
//! Green-Gauss gradient accumulators live in [`SoaStates`] component
//! planes, and the residual/gradient sweeps stream over cache-sized plane
//! chunks ([`EDGE_BLOCK`] edges / [`VBLOCK`] vertices per block). Per-edge
//! physics (Rusanov fluxes, Jacobians) gathers the two endpoint blocks in
//! component order — bit-identical to the historical AoS access — so every
//! digest pinned against the AoS goldens still holds, on either kernel
//! path (`COLUMBIA_KERNELS=scalar` keeps the one-block-at-a-time oracle by
//! materialising AoS views lazily per edge/vertex).
//!
//! Per-vertex primitives (velocity, pressure, sound speed, enthalpy,
//! `nu_t`, eddy-viscosity term) are derived once per residual by
//! [`RansLevel::begin_residual`] and read by every incident edge; per-edge
//! `|S|` and `|S|/length` are stored at construction. The implicit
//! diagonal lives in one resident row per vertex ([`DiagRow`]) that the
//! coalesced halo exchange ships as is.

use crate::flops::{self, FlopCounter};
use crate::state::{
    flux_jacobian, flux_jacobian_entries, freestream, fv1, rusanov, sa, spectral_radius, velocity,
    Primitives, State, GAMMA, NVARS,
};
use columbia_linalg::soa::{vec_batch_zero, BlockBatch, SoaStates, TridiagBatch, VecBatch, LANES};
use columbia_linalg::{BlockMat, BlockTridiag};
use columbia_mesh::{extract_lines, BoundaryKind, UnstructuredMesh, Vec3};
use columbia_rt::env::{self, KernelKind};

/// Edges per cache block of the plane-major Green-Gauss sweep: the
/// gathered per-edge average-velocity and normal scratch (48 bytes/edge,
/// ~24 KiB per block) stays cache-resident while the nine gradient
/// component planes stream over it, three at a time.
pub const EDGE_BLOCK: usize = 512;

/// Vertices per cache block of the gradient-finalisation sweep: the
/// inverse control volumes (8 KiB per block) are computed once and reused
/// by all nine plane passes.
pub const VBLOCK: usize = 1024;

/// One vertex's implicit-diagonal row: the 36 row-major entries of its
/// 6x6 block, then `lamsum` (the summed edge wavespeeds that set the local
/// time step). Resident in this layout so the coalesced halo exchange
/// ships it without a pack or unpack copy.
pub(crate) type DiagRow = [f64; DIAG_ROW];

/// Values per [`DiagRow`].
const DIAG_ROW: usize = NVARS * NVARS + 1;

/// Index of `lamsum` in a [`DiagRow`].
const LAMSUM: usize = NVARS * NVARS;

/// Planes of the per-vertex primitive cache: velocity (3), pressure,
/// sound speed, total enthalpy, `nu_t`, and the eddy-viscosity term.
const NPRIM: usize = 8;

/// Static per-edge geometry: `|S|` (spectral radius) and `|S|/length`
/// (edge-based diffusion).
#[derive(Clone, Copy, Debug)]
struct EdgeCoef {
    s_norm: f64,
    coef: f64,
}

/// Physical and numerical parameters shared by all levels.
#[derive(Clone, Copy, Debug)]
pub struct SolverParams {
    /// Free-stream Mach number (paper's benchmark: 0.75).
    pub mach: f64,
    /// Angle of attack in radians.
    pub alpha: f64,
    /// Reynolds number based on the chord (paper: 3e6).
    pub reynolds: f64,
    /// Target CFL number of the implicit smoother.
    pub cfl: f64,
    /// Starting CFL; the solver ramps geometrically from here to `cfl`
    /// over the first cycles (impulsive starts are where implicit schemes
    /// blow up).
    pub cfl_start: f64,
    /// Under-relaxation of the prolonged coarse-grid correction.
    pub prolong_relax: f64,
    /// Anisotropy threshold for implicit-line extraction.
    pub line_threshold: f64,
    /// Free-stream turbulence variable as a multiple of laminar viscosity.
    pub nu_t_inf_ratio: f64,
    /// Dense-kernel path: `None` defers to `COLUMBIA_KERNELS`, falling
    /// back to the lane-interleaved SIMD batches ([`KernelKind::Simd`]).
    /// Both paths are bit-identical (pinned by `tests/kernel_parity.rs`);
    /// [`KernelKind::Scalar`] keeps the one-block-at-a-time oracle.
    pub kernel: Option<KernelKind>,
}

impl Default for SolverParams {
    fn default() -> Self {
        SolverParams {
            mach: 0.75,
            alpha: 0.0,
            reynolds: 3.0e6,
            cfl: 6.0,
            cfl_start: 1.0,
            prolong_relax: 0.75,
            line_threshold: 10.0,
            nu_t_inf_ratio: 3.0,
            kernel: None,
        }
    }
}

impl SolverParams {
    /// Non-dimensional laminar dynamic viscosity `rho_inf q_inf c / Re`.
    pub fn mu_laminar(&self) -> f64 {
        self.mach / self.reynolds
    }

    /// Free-stream conservative state.
    pub fn freestream(&self) -> State {
        freestream(
            self.mach,
            self.alpha,
            self.nu_t_inf_ratio * self.mu_laminar(),
        )
    }
}

/// One endpoint's eddy-viscosity term `rho nu_t fv1` (cached per vertex
/// in the primitive planes), from its density and `nu_t = (rho nu_t)/rho`.
#[inline]
fn eddy_term(mu: f64, rho: f64, nt: f64) -> f64 {
    let nt = nt.max(0.0);
    rho * nt * fv1(nt, mu / rho)
}

/// Effective edge viscosity (laminar + mean turbulent eddy viscosity)
/// from the two endpoints' [`eddy_term`]s.
#[inline]
fn mu_eff(mu: f64, mt_a: f64, mt_b: f64) -> f64 {
    mu + 0.5 * (mt_a + mt_b)
}

/// Vertex `i`'s cached velocity (the only primitive the gradient reads).
#[inline]
fn velocity_at(prim: &SoaStates<NPRIM>, i: usize) -> Vec3 {
    Vec3::new(prim.at(0, i), prim.at(1, i), prim.at(2, i))
}

/// Vertex `i`'s cached primitives and eddy-viscosity term.
#[inline]
fn primitives_at(prim: &SoaStates<NPRIM>, i: usize) -> (Primitives, f64) {
    let r = prim.get(i);
    let w = Primitives {
        vel: Vec3::new(r[0], r[1], r[2]),
        p: r[3],
        c: r[4],
        h: r[5],
        nt: r[6],
    };
    (w, r[7])
}

/// The 6x6 block of a resident diagonal row.
#[inline]
fn diag_block(row: &DiagRow) -> BlockMat<NVARS> {
    BlockMat::from_fn(|r, c| row[r * NVARS + c])
}

/// Accumulate `0.5 A(w, s) + d I` into a diagonal row in place. Skipping
/// the Jacobian's structural zeros is exact: an accumulator that starts
/// at `+0.0` can never become `-0.0`, so adding `+0.0` to it is a no-op.
#[inline(always)]
fn add_half_jacobian(row: &mut DiagRow, w: &Primitives, s: Vec3, d: f64) {
    flux_jacobian_entries(w, s, |r, c, v| {
        row[r * NVARS + c] += if r == c { v * 0.5 + d } else { v * 0.5 };
    });
    row[0] += d; // (0, 0) is a structural zero of the Jacobian
}

/// Read-only per-edge inputs of the line assembly besides the state: the
/// mesh, the primitive cache, the per-edge geometry and `mu`.
#[derive(Clone, Copy)]
struct LineInputs<'a> {
    mesh: &'a UnstructuredMesh,
    prim: &'a SoaStates<NPRIM>,
    edge_coef: &'a [EdgeCoef],
    mu: f64,
}

/// Off-diagonal Jacobian blocks for line edge `i` (joining `line[i]` to
/// `line[i+1]`): the `(upper_i, lower_{i+1})` pair. Shared by the scalar
/// and the batched line solvers so the assembly arithmetic is one piece
/// of code; a free function so the callers can hold disjoint borrows of
/// the level's other fields (no `mem::take` dance).
fn line_edge_blocks(
    inp: LineInputs<'_>,
    u: &SoaStates<NVARS>,
    line: &[u32],
    i: usize,
    ei: u32,
    sign: f64,
) -> (BlockMat<NVARS>, BlockMat<NVARS>) {
    let e = &inp.mesh.edges[ei as usize];
    let ec = inp.edge_coef[ei as usize];
    let s = e.normal * sign; // oriented line[i] -> line[i+1]
    let (vi, vj) = (line[i] as usize, line[i + 1] as usize);
    let (wi, mti) = primitives_at(inp.prim, vi);
    let (wj, mtj) = primitives_at(inp.prim, vj);
    let lam = spectral_radius(&wi, s, ec.s_norm).max(spectral_radius(&wj, s, ec.s_norm));
    let me = mu_eff(inp.mu, mti, mtj);
    let visc = me * ec.coef / u.at(0, vi).min(u.at(0, vj));
    // dN_i/du_j = 0.5 A(u_j, S_out) - (0.5 lam + visc) I.
    let mut upper = flux_jacobian(&wj, s) * 0.5;
    upper.add_diagonal(-(0.5 * lam + visc));
    // dN_{i+1}/du_i with outward normal -S.
    let mut lower = flux_jacobian(&wi, -s) * 0.5;
    lower.add_diagonal(-(0.5 * lam + visc));
    (upper, lower)
}

/// Solve the block-tridiagonal system along one line and update. All
/// operands are disjoint borrows of the level's fields.
#[allow(clippy::too_many_arguments)]
fn solve_line_scalar(
    inp: LineInputs<'_>,
    u: &mut SoaStates<NVARS>,
    diag: &[DiagRow],
    res: &SoaStates<NVARS>,
    tridiag: &mut BlockTridiag<NVARS>,
    line_x: &mut Vec<State>,
    fc: &mut FlopCounter,
    line: &[u32],
    les: &[(u32, f64)],
) {
    let m = line.len();
    tridiag.reset(m);
    for (i, &v) in line.iter().enumerate() {
        *tridiag.diag_mut(i) = diag_block(&diag[v as usize]);
        *tridiag.rhs_mut(i) = res.get(v as usize);
    }
    for (i, &(ei, sign)) in les.iter().enumerate() {
        let (upper, lower) = line_edge_blocks(inp, u, line, i, ei, sign);
        *tridiag.upper_mut(i) = upper;
        *tridiag.lower_mut(i + 1) = lower;
    }
    line_x.resize(m, [0.0; NVARS]);
    if tridiag.solve_into(line_x).is_ok() {
        for (i, &v) in line.iter().enumerate() {
            for k in 0..NVARS {
                *u.at_mut(k, v as usize) += line_x[i][k];
            }
        }
    }
    fc.add(m as u64 * flops::TRIDIAG_ROW);
}

/// Batched line solve: up to [`LANES`] equal-length lines through one
/// interleaved tridiagonal factorisation, using the level's persistent
/// batch scratch.
#[allow(clippy::too_many_arguments)]
fn solve_line_batch(
    inp: LineInputs<'_>,
    u: &mut SoaStates<NVARS>,
    diag: &[DiagRow],
    res: &SoaStates<NVARS>,
    tb: &mut TridiagBatch<NVARS>,
    line_x_batch: &mut Vec<VecBatch<NVARS>>,
    fc: &mut FlopCounter,
    chunk: &[u32],
    lines: &[Vec<u32>],
    line_edges: &[Vec<(u32, f64)>],
) {
    let m = lines[chunk[0] as usize].len();
    let nl = chunk.len();
    tb.reset(m, nl);
    for (l, &li) in chunk.iter().enumerate() {
        let line = &lines[li as usize];
        let les = &line_edges[li as usize];
        for (i, &v) in line.iter().enumerate() {
            tb.set_diag(i, l, &diag_block(&diag[v as usize]));
            tb.set_rhs(i, l, &res.get(v as usize));
        }
        for (i, &(ei, sign)) in les.iter().enumerate() {
            let (upper, lower) = line_edge_blocks(inp, u, line, i, ei, sign);
            tb.set_upper(i, l, &upper);
            tb.set_lower(i + 1, l, &lower);
        }
    }
    line_x_batch.clear();
    line_x_batch.resize(m, vec_batch_zero());
    let ok = tb.solve_into(line_x_batch);
    for (l, &li) in chunk.iter().enumerate() {
        let line = &lines[li as usize];
        if ok[l] {
            for (i, &v) in line.iter().enumerate() {
                for k in 0..NVARS {
                    *u.at_mut(k, v as usize) += line_x_batch[i][k][l];
                }
            }
        }
        fc.add(line.len() as u64 * flops::TRIDIAG_ROW);
    }
}

/// One solver level: the mesh dual plus all per-vertex solver state, held
/// in resident [`SoaStates`] component planes.
pub struct RansLevel {
    /// The level's mesh (finest: generated; coarser: agglomerated).
    pub mesh: UnstructuredMesh,
    /// Implicit lines (multi-vertex only).
    pub lines: Vec<Vec<u32>>,
    /// Per line: the edge index joining consecutive line vertices, and the
    /// sign of its stored normal relative to the walk direction.
    line_edges: Vec<Vec<(u32, f64)>>,
    in_line: Vec<bool>,
    /// Conservative state, one plane per component.
    pub u: SoaStates<NVARS>,
    /// FAS forcing (zero on the finest level).
    pub forcing: SoaStates<NVARS>,
    /// State stored at restriction time (for the coarse-grid correction).
    pub restricted_u: SoaStates<NVARS>,
    /// Residual scratch `r = forcing - N(u)`.
    pub res: SoaStates<NVARS>,
    /// Green-Gauss velocity-gradient accumulators (nine planes,
    /// row-major `3 i + j` = `d v_i / d x_j`).
    grad: SoaStates<9>,
    /// Per-vertex primitives, a snapshot of `u` taken by
    /// [`Self::begin_residual`] (see its phase contract).
    prim: SoaStates<NPRIM>,
    /// Digest of `u` when `prim` was taken (debug builds only; checked at
    /// the entry of every phase that reads `prim`).
    prim_stamp: u64,
    /// Per-edge `|S|` and `|S|/length`, fixed with the mesh.
    edge_coef: Vec<EdgeCoef>,
    /// Resident implicit diagonal, one [`DiagRow`] per vertex; the
    /// coalesced halo exchange adds and copies these rows in place.
    pub(crate) diag: Vec<DiagRow>,
    tridiag: BlockTridiag<NVARS>,
    line_x: Vec<State>,
    /// Resolved dense-kernel path (params override, else env, else SIMD).
    pub kernel: KernelKind,
    /// Line indices grouped by (length, index): equal-length lines are
    /// adjacent so the SIMD path can solve up to [`LANES`] of them in
    /// lockstep. Lines are vertex-disjoint, so solving them in this order
    /// is bit-identical to the construction order.
    line_order: Vec<u32>,
    tridiag_batch: TridiagBatch<NVARS>,
    line_x_batch: Vec<VecBatch<NVARS>>,
    /// Per-block scratch of the plane-major gradient sweep: gathered edge
    /// average velocities and normals ([`EDGE_BLOCK`] entries, persistent
    /// so steady-state sweeps allocate nothing).
    edge_avg: Vec<[f64; 3]>,
    edge_nrm: Vec<[f64; 3]>,
    /// Per-block inverse control volumes of the finalisation sweep.
    vol_inv: Vec<f64>,
    /// Solver parameters.
    pub params: SolverParams,
    /// Free-stream state (BC and initialisation).
    pub fs: State,
    /// Current CFL (ramped by the solver driver from `params.cfl_start`
    /// towards `params.cfl`).
    pub cfl_now: f64,
    /// Map from this level's vertices to the next coarser level (if any).
    pub to_coarse: Option<Vec<u32>>,
    /// Software FLOP counter.
    pub flops: FlopCounter,
    /// Vertices this instance is responsible for updating. All-true for the
    /// serial solver; the domain-decomposed solver marks ghosts inactive.
    pub active: Vec<bool>,
}

impl RansLevel {
    /// Build a level from a mesh. Lines are extracted here; state starts at
    /// free stream.
    pub fn new(mesh: UnstructuredMesh, params: SolverParams) -> Self {
        let lines = extract_lines(&mesh, params.line_threshold).lines;
        Self::with_lines(mesh, params, lines)
    }

    /// Build a level with an explicitly supplied line set (the
    /// domain-decomposed solver passes the restriction of the *global*
    /// lines so every rank smooths exactly what the serial solver would).
    pub fn with_lines(mesh: UnstructuredMesh, params: SolverParams, lines: Vec<Vec<u32>>) -> Self {
        let n = mesh.nvertices();
        let mut in_line = vec![false; n];
        for line in &lines {
            for &v in line {
                in_line[v as usize] = true;
            }
        }
        // Pre-resolve the edge joining each consecutive line pair.
        let ve = mesh.vertex_edges();
        let mut line_edges = Vec::with_capacity(lines.len());
        for line in &lines {
            let mut les = Vec::with_capacity(line.len() - 1);
            for w in line.windows(2) {
                let mut found = None;
                for r in ve.of(w[0] as usize) {
                    if r.other == w[1] {
                        found = Some((r.edge, r.sign));
                        break;
                    }
                }
                les.push(found.expect("line pair without mesh edge"));
            }
            line_edges.push(les);
        }
        let fs = params.freestream();
        let mut line_order: Vec<u32> = (0..lines.len() as u32).collect();
        line_order.sort_by_key(|&i| (lines[i as usize].len(), i));
        let kernel = params
            .kernel
            .or_else(env::kernels)
            .unwrap_or(KernelKind::Simd);
        let mut u = SoaStates::zeros(n);
        u.fill_with(&fs);
        let mut restricted_u = SoaStates::zeros(n);
        restricted_u.fill_with(&fs);
        let edge_coef = mesh
            .edges
            .iter()
            .map(|e| {
                let s_norm = e.normal.norm();
                EdgeCoef {
                    s_norm,
                    coef: s_norm / e.length,
                }
            })
            .collect();
        RansLevel {
            lines,
            line_edges,
            in_line,
            kernel,
            line_order,
            tridiag_batch: TridiagBatch::new(),
            line_x_batch: Vec::new(),
            u,
            forcing: SoaStates::zeros(n),
            restricted_u,
            res: SoaStates::zeros(n),
            grad: SoaStates::zeros(n),
            prim: SoaStates::zeros(n),
            prim_stamp: 0,
            edge_coef,
            diag: vec![[0.0; DIAG_ROW]; n],
            tridiag: BlockTridiag::new(),
            line_x: Vec::new(),
            edge_avg: vec![[0.0; 3]; EDGE_BLOCK],
            edge_nrm: vec![[0.0; 3]; EDGE_BLOCK],
            vol_inv: vec![0.0; VBLOCK],
            cfl_now: params.cfl_start.min(params.cfl),
            params,
            fs,
            to_coarse: None,
            mesh,
            flops: FlopCounter::default(),
            active: vec![true; n],
        }
    }

    /// Number of vertices.
    pub fn nvertices(&self) -> usize {
        self.mesh.nvertices()
    }

    /// Fraction of vertices covered by implicit lines.
    pub fn line_coverage(&self) -> f64 {
        self.in_line.iter().filter(|&&b| b).count() as f64 / self.nvertices().max(1) as f64
    }

    /// Assemble the full residual `r = forcing - N(u)` into `self.res`.
    ///
    /// `N(u)` = convective + viscous edge fluxes minus sources. Rows
    /// governed by strong boundary conditions are zeroed.
    ///
    /// The four phases are public so the domain-decomposed solver can
    /// interleave ghost exchanges between them.
    pub fn compute_residual(&mut self) {
        self.begin_residual();
        self.accumulate_gradients();
        self.finalize_gradients();
        self.accumulate_fluxes();
        self.finalize_residual();
    }

    /// Phase 1: clear the residual and gradient accumulators and take the
    /// per-vertex primitive snapshot of `u`.
    ///
    /// **Phase contract.** The gradient (SIMD path), flux and diagonal
    /// phases and the line assembly of [`Self::solve_implicit`] read the
    /// snapshot instead of `u`, so `u` must not change between this call
    /// and theirs. It holds through the line solves because lines are
    /// vertex-disjoint and each line's vertices are updated only after
    /// that line is assembled and solved. Debug builds check it at the
    /// entry of each of those phases.
    pub fn begin_residual(&mut self) {
        self.res.fill_zero();
        self.grad.fill_zero();
        let mu = self.params.mu_laminar();
        let Self { u, prim, .. } = self;
        // Every slice cut to `n` so the loop runs free of bounds checks
        // (and vectorises).
        let n = u.len();
        let up: [&[f64]; NVARS] = std::array::from_fn(|k| &u.plane(k)[..n]);
        let [vx, vy, vz, p, c, h, nt, mt] = prim.planes_mut().map(|pl| &mut pl[..n]);
        for v in 0..n {
            let uv: State = std::array::from_fn(|k| up[k][v]);
            let w = Primitives::of(&uv);
            (vx[v], vy[v], vz[v]) = (w.vel.x, w.vel.y, w.vel.z);
            (p[v], c[v], h[v], nt[v]) = (w.p, w.c, w.h, w.nt);
            mt[v] = eddy_term(mu, uv[0], w.nt);
        }
        if cfg!(debug_assertions) {
            self.prim_stamp = state_stamp(&self.u);
        }
    }

    /// Debug builds: panic unless `u` is unchanged since
    /// [`Self::begin_residual`] took the primitive snapshot `phase` reads.
    #[inline]
    fn check_primitives(&self, phase: &str) {
        debug_assert!(
            state_stamp(&self.u) == self.prim_stamp,
            "{phase}: u changed since begin_residual, so the primitive cache is stale"
        );
    }

    /// Phase 2: accumulate raw Green-Gauss velocity-gradient sums
    /// (not yet divided by the control volume).
    ///
    /// The SIMD path is a cache-blocked plane-major sweep: per
    /// [`EDGE_BLOCK`] of edges it gathers the average edge velocity (from
    /// the primitive cache) and normal once, then makes one pass per
    /// velocity component over its three gradient planes. Every
    /// accumulator still receives its incident-edge contributions in
    /// global edge order and each product is computed exactly once, so the
    /// result is bit-identical to the scalar edge-at-a-time oracle, which
    /// derives the velocities from `u` itself.
    pub fn accumulate_gradients(&mut self) {
        self.check_primitives("accumulate_gradients");
        let Self {
            mesh,
            u,
            prim,
            grad,
            edge_avg,
            edge_nrm,
            kernel,
            flops: fc,
            ..
        } = self;
        match *kernel {
            KernelKind::Scalar => {
                for e in &mesh.edges {
                    let (a, b) = (e.a as usize, e.b as usize);
                    let va = velocity(&u.get(a));
                    let vb = velocity(&u.get(b));
                    let avg = (va + vb) * 0.5;
                    let s = e.normal;
                    let comp = [avg.x, avg.y, avg.z];
                    let sv = [s.x, s.y, s.z];
                    for i in 0..3 {
                        for j in 0..3 {
                            let c = comp[i] * sv[j];
                            *grad.at_mut(3 * i + j, a) += c;
                            *grad.at_mut(3 * i + j, b) -= c;
                        }
                    }
                }
            }
            KernelKind::Simd => {
                let mut gp = grad.planes_mut();
                for chunk in mesh.edges.chunks(EDGE_BLOCK) {
                    for (t, e) in chunk.iter().enumerate() {
                        let va = velocity_at(prim, e.a as usize);
                        let vb = velocity_at(prim, e.b as usize);
                        let avg = (va + vb) * 0.5;
                        edge_avg[t] = [avg.x, avg.y, avg.z];
                        edge_nrm[t] = [e.normal.x, e.normal.y, e.normal.z];
                    }
                    // One pass per velocity component over its three
                    // gradient planes (`d v_i / d x_j`, j = x, y, z).
                    for i in 0..3 {
                        let [px, py, pz] = &mut gp[3 * i..3 * i + 3] else {
                            unreachable!()
                        };
                        for (t, e) in chunk.iter().enumerate() {
                            let (a, b) = (e.a as usize, e.b as usize);
                            let vi = edge_avg[t][i];
                            let n = edge_nrm[t];
                            let (cx, cy, cz) = (vi * n[0], vi * n[1], vi * n[2]);
                            px[a] += cx;
                            px[b] -= cx;
                            py[a] += cy;
                            py[b] -= cy;
                            pz[a] += cz;
                            pz[b] -= cz;
                        }
                    }
                }
            }
        }
        fc.add(mesh.nedges() as u64 * flops::GRADIENT_EDGE);
    }

    /// Phase 3: divide gradient sums by the control volumes. The SIMD
    /// path computes [`VBLOCK`] inverse volumes once per block and reuses
    /// them across all nine plane passes — the same single divide per
    /// vertex the scalar path performs.
    pub fn finalize_gradients(&mut self) {
        let Self {
            mesh,
            grad,
            vol_inv,
            kernel,
            ..
        } = self;
        let n = mesh.nvertices();
        match *kernel {
            KernelKind::Scalar => {
                for v in 0..n {
                    let inv = 1.0 / mesh.volumes[v];
                    for k in 0..9 {
                        *grad.at_mut(k, v) *= inv;
                    }
                }
            }
            KernelKind::Simd => {
                let mut start = 0;
                while start < n {
                    let end = (start + VBLOCK).min(n);
                    for v in start..end {
                        vol_inv[v - start] = 1.0 / mesh.volumes[v];
                    }
                    for k in 0..9 {
                        let p = grad.plane_mut(k);
                        for v in start..end {
                            p[v] *= vol_inv[v - start];
                        }
                    }
                    start = end;
                }
            }
        }
    }

    /// Direct access to the raw gradient planes (ghost exchange).
    pub fn grad_mut(&mut self) -> &mut SoaStates<9> {
        &mut self.grad
    }

    /// Phase 4: accumulate convective and diffusive edge fluxes into
    /// `res = -N` (flux part). Endpoint states and cached primitives are
    /// gathered per edge; residual updates scatter straight into the
    /// component planes.
    pub fn accumulate_fluxes(&mut self) {
        self.check_primitives("accumulate_fluxes");
        let Self {
            mesh,
            u,
            prim,
            edge_coef,
            res,
            params,
            flops: fc,
            ..
        } = self;
        let mu = params.mu_laminar();
        let mut rp = res.planes_mut();
        for (e, ec) in mesh.edges.iter().zip(edge_coef.iter()) {
            let (a, b) = (e.a as usize, e.b as usize);
            let s = e.normal;
            let ua = u.get(a);
            let ub = u.get(b);
            let (wa, mta) = primitives_at(prim, a);
            let (wb, mtb) = primitives_at(prim, b);
            let f = rusanov(&ua, &wa, &ub, &wb, s, ec.s_norm);
            for (k, rk) in rp.iter_mut().enumerate() {
                // res = -N: flux out of a decreases res[a].
                rk[a] -= f[k];
                rk[b] += f[k];
            }
            // Edge-based diffusion (viscous + turbulence transport).
            let coef = ec.coef;
            let me = mu_eff(mu, mta, mtb);
            let dv = wb.vel - wa.vel;
            let dvc = [dv.x, dv.y, dv.z];
            for k in 0..3 {
                let d = me * coef * dvc[k];
                // Diffusive flux out of a is -me*coef*(v_b - v_a): N[a] -= d.
                rp[1 + k][a] += d;
                rp[1 + k][b] -= d;
            }
            let de = me * coef * (wb.h - wa.h);
            rp[4][a] += de;
            rp[4][b] -= de;
            let mt = mu + 0.5 * (ua[5].max(0.0) + ub[5].max(0.0));
            let dn = mt / sa::SIGMA * coef * (wb.nt - wa.nt);
            rp[5][a] += dn;
            rp[5][b] -= dn;
        }
        fc.add(mesh.nedges() as u64 * (flops::FLUX + flops::VISCOUS));
    }

    /// Phase 5: turbulence sources, FAS forcing, boundary-row zeroing.
    /// Inactive (ghost) rows are zeroed — their flux contributions have
    /// already been shipped to the owning rank.
    pub fn finalize_residual(&mut self) {
        let Self {
            mesh,
            u,
            res,
            grad,
            forcing,
            active,
            flops: fc,
            ..
        } = self;
        let n = mesh.nvertices();
        let mut rp = res.planes_mut();
        for v in 0..n {
            if !active[v] {
                for rk in rp.iter_mut() {
                    rk[v] = 0.0;
                }
                continue;
            }
            let vol = mesh.volumes[v];
            match mesh.bc[v] {
                BoundaryKind::FarField => {
                    for rk in rp.iter_mut() {
                        rk[v] = 0.0;
                    }
                    continue;
                }
                BoundaryKind::Wall => {
                    // Strongly enforced momentum and turbulence rows.
                    for k in 1..4 {
                        rp[k][v] = 0.0;
                    }
                    rp[5][v] = 0.0;
                }
                BoundaryKind::Interior => {
                    // Vorticity from the velocity-gradient tensor
                    // (row-major g[3i + j] = d v_i / d x_j).
                    let wx = grad.at(7, v) - grad.at(5, v);
                    let wy = grad.at(2, v) - grad.at(6, v);
                    let wz = grad.at(3, v) - grad.at(1, v);
                    let omega = (wx * wx + wy * wy + wz * wz).sqrt();
                    let rho = u.at(0, v);
                    let rnt = u.at(5, v).max(0.0);
                    let nt = rnt / rho;
                    let d = mesh.wall_distance[v].max(1e-12);
                    let prod = sa::CB1 * omega * rnt;
                    let dest = sa::CW1 * rho * (nt / d) * (nt / d);
                    // res = -N and N includes -(P - D)*V.
                    rp[5][v] += (prod - dest) * vol;
                }
            }
            for (k, rk) in rp.iter_mut().enumerate() {
                rk[v] += forcing.at(k, v);
            }
            // BC rows of the forcing must not leak into constrained rows.
            match mesh.bc[v] {
                BoundaryKind::Wall => {
                    for k in 1..4 {
                        rp[k][v] = 0.0;
                    }
                    rp[5][v] = 0.0;
                }
                BoundaryKind::FarField => {
                    for rk in rp.iter_mut() {
                        rk[v] = 0.0;
                    }
                }
                BoundaryKind::Interior => {}
            }
        }
        fc.add(n as u64 * flops::SOURCE);
    }

    /// Sum of squares and entry count of the residual over active rows
    /// (no recompute; parallel ranks combine these with an allreduce).
    /// Vertex-outer, component-inner — the historical AoS summation
    /// order, so the floating-point sum is unchanged.
    pub fn residual_sumsq(&self) -> (f64, usize) {
        let mut ss = 0.0;
        let mut cnt = 0usize;
        for v in 0..self.res.len() {
            if self.active[v] {
                for k in 0..NVARS {
                    let x = self.res.at(k, v);
                    ss += x * x;
                }
                cnt += NVARS;
            }
        }
        (ss, cnt)
    }

    /// RMS norm of the current residual (recomputed, active rows only).
    pub fn residual_rms(&mut self) -> f64 {
        self.compute_residual();
        let (ss, cnt) = self.residual_sumsq();
        if cnt == 0 {
            0.0
        } else {
            (ss / cnt as f64).sqrt()
        }
    }

    /// Enforce strong boundary conditions on the state (per-vertex
    /// load/store views over the planes; same component read/write order
    /// as the AoS path).
    pub fn apply_bcs(&mut self) {
        for v in 0..self.nvertices() {
            let mut p = self.u.point_mut(v);
            match self.mesh.bc[v] {
                BoundaryKind::Wall => {
                    p.set(1, 0.0);
                    p.set(2, 0.0);
                    p.set(3, 0.0);
                    p.set(5, 0.0);
                }
                BoundaryKind::FarField => {
                    p.store(&self.fs);
                }
                BoundaryKind::Interior => {}
            }
            // Positivity guards: keep the implicit updates out of vacuum.
            let mut u = p.load();
            u[0] = u[0].clamp(0.05, 20.0);
            u[5] = u[5].max(0.0);
            let q2 = (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / u[0];
            let pr = (GAMMA - 1.0) * (u[4] - 0.5 * q2);
            let pmin = 0.02 / GAMMA;
            if pr < pmin {
                u[4] = pmin / (GAMMA - 1.0) + 0.5 * q2;
            }
            p.store(&u);
        }
    }

    /// One implicit smoothing sweep: residual assembly, block-diagonal
    /// (and block-tridiagonal along lines) solve, state update, BCs.
    pub fn smooth_sweep(&mut self) {
        self.compute_residual();
        self.assemble_diagonal();
        self.solve_implicit();
    }

    /// The implicit solve + update of a sweep, given `res` and `diag` are
    /// assembled (the parallel solver assembles them with exchanges first).
    ///
    /// Dispatches on [`Self::kernel`]: the scalar path solves one block /
    /// one line at a time (the reference oracle); the SIMD path batches up
    /// to [`LANES`] point blocks and equal-length lines through the
    /// lane-interleaved kernels in `columbia_linalg::soa`. The two paths
    /// are bit-identical, so every golden holds under either. All scratch
    /// (tridiagonal systems, batch buffers) is level-owned, so the steady
    /// state allocates nothing (asserted by `tests/kernel_parity.rs`).
    pub fn solve_implicit(&mut self) {
        self.check_primitives("solve_implicit");
        match self.kernel {
            KernelKind::Scalar => {
                let Self {
                    mesh,
                    lines,
                    line_edges,
                    tridiag,
                    line_x,
                    prim,
                    edge_coef,
                    diag,
                    res,
                    u,
                    params,
                    flops: fc,
                    ..
                } = self;
                let inp = LineInputs {
                    mesh,
                    prim,
                    edge_coef,
                    mu: params.mu_laminar(),
                };
                for (line, les) in lines.iter().zip(line_edges.iter()) {
                    solve_line_scalar(inp, u, diag, res, tridiag, line_x, fc, line, les);
                }
                self.solve_points_scalar();
            }
            KernelKind::Simd => {
                self.solve_lines_simd();
                self.solve_points_simd();
            }
        }
        self.apply_bcs();
    }

    /// Point-implicit update for everything not in a line, one block at a
    /// time. Vertices with no incident edges (possible on degenerate
    /// coarsest levels) have no physics to advance and are skipped.
    fn solve_points_scalar(&mut self) {
        for v in 0..self.nvertices() {
            if !self.point_eligible(v) {
                continue;
            }
            if let Ok(lu) = diag_block(&self.diag[v]).lu() {
                let du = lu.solve(&self.res.get(v));
                for (k, d) in du.iter().enumerate() {
                    *self.u.at_mut(k, v) += d;
                }
            }
            self.flops.add(flops::LU_SOLVE + flops::UPDATE);
        }
    }

    #[inline]
    fn point_eligible(&self, v: usize) -> bool {
        !(self.in_line[v]
            || !self.active[v]
            || self.diag[v][LAMSUM] <= 0.0
            || self.mesh.bc[v] == BoundaryKind::FarField)
    }

    /// Point-implicit update batching up to [`LANES`] eligible vertices
    /// (in the same ascending order the scalar path visits them) through
    /// one interleaved LU factorise + solve. Point updates touch only
    /// their own vertex, so batching cannot change any result bit; lanes
    /// whose block is singular are discarded exactly as the scalar path
    /// skips `Err` factorisations.
    fn solve_points_simd(&mut self) {
        let n = self.nvertices();
        let mut batch = [0usize; LANES];
        let mut count = 0usize;
        for v in 0..n {
            if !self.point_eligible(v) {
                continue;
            }
            batch[count] = v;
            count += 1;
            if count == LANES {
                self.flush_point_batch(&batch[..count]);
                count = 0;
            }
        }
        if count > 0 {
            self.flush_point_batch(&batch[..count]);
        }
    }

    fn flush_point_batch(&mut self, vs: &[usize]) {
        let nl = vs.len();
        let mut mats = BlockBatch::<NVARS>::identity();
        let mut rhs = vec_batch_zero::<NVARS>();
        for (l, &v) in vs.iter().enumerate() {
            mats.set_lane(l, &diag_block(&self.diag[v]));
            let r = self.res.get(v);
            for (k, row) in rhs.iter_mut().enumerate() {
                row[l] = r[k];
            }
        }
        let lu = mats.lu(nl);
        let du = lu.solve(&rhs, nl);
        for (l, &v) in vs.iter().enumerate() {
            if lu.ok()[l] {
                for (k, row) in du.iter().enumerate() {
                    *self.u.at_mut(k, v) += row[l];
                }
            }
            self.flops.add(flops::LU_SOLVE + flops::UPDATE);
        }
    }

    /// Line-implicit solves in (length, index) order, batching up to
    /// [`LANES`] equal-length lines per interleaved tridiagonal solve.
    /// Lines are vertex-disjoint (proven by the mesh line-extraction
    /// tests), so both the reordering and the batching leave every line's
    /// arithmetic untouched.
    fn solve_lines_simd(&mut self) {
        let Self {
            mesh,
            lines,
            line_edges,
            line_order,
            tridiag_batch,
            line_x_batch,
            prim,
            edge_coef,
            diag,
            res,
            u,
            params,
            flops: fc,
            ..
        } = self;
        let inp = LineInputs {
            mesh,
            prim,
            edge_coef,
            mu: params.mu_laminar(),
        };
        let mut i = 0;
        while i < line_order.len() {
            let len = lines[line_order[i] as usize].len();
            let mut j = i + 1;
            while j < line_order.len()
                && j - i < LANES
                && lines[line_order[j] as usize].len() == len
            {
                j += 1;
            }
            solve_line_batch(
                inp,
                u,
                diag,
                res,
                tridiag_batch,
                line_x_batch,
                fc,
                &line_order[i..j],
                lines,
                line_edges,
            );
            i = j;
        }
    }

    /// Assemble the implicit diagonal blocks and local time steps
    /// (phases public for the domain-decomposed solver).
    pub fn assemble_diagonal(&mut self) {
        self.accumulate_diagonal();
        self.finalize_diagonal();
    }

    /// Diagonal phase 1: per-edge Jacobian contributions, accumulated in
    /// place into the resident rows (no temporary blocks).
    pub fn accumulate_diagonal(&mut self) {
        self.check_primitives("accumulate_diagonal");
        let Self {
            mesh,
            u,
            prim,
            edge_coef,
            diag,
            params,
            flops: fc,
            ..
        } = self;
        for row in diag.iter_mut() {
            row.fill(0.0);
        }
        let mu = params.mu_laminar();
        let rho = u.plane(0);
        for (e, ec) in mesh.edges.iter().zip(edge_coef.iter()) {
            let (a, b) = (e.a as usize, e.b as usize);
            let s = e.normal;
            let (wa, mta) = primitives_at(prim, a);
            let (wb, mtb) = primitives_at(prim, b);
            let lam = spectral_radius(&wa, s, ec.s_norm).max(spectral_radius(&wb, s, ec.s_norm));
            let me = mu_eff(mu, mta, mtb);
            let visc = me * ec.coef / rho[a].min(rho[b]);
            let d = 0.5 * lam + visc;
            // Row a: +0.5 A(u_a, S) + (0.5 lam + visc) I.
            add_half_jacobian(&mut diag[a], &wa, s, d);
            // Row b: outward normal is -S.
            add_half_jacobian(&mut diag[b], &wb, -s, d);
            diag[a][LAMSUM] += lam + visc;
            diag[b][LAMSUM] += lam + visc;
        }
        fc.add(mesh.nedges() as u64 * flops::JACOBIAN_EDGE);
    }

    /// Diagonal phase 2: time-step and source-Jacobian terms.
    pub fn finalize_diagonal(&mut self) {
        let Self {
            mesh,
            u,
            diag,
            cfl_now,
            ..
        } = self;
        for (v, row) in diag.iter_mut().enumerate() {
            // V/dt = lamsum / CFL.
            let vdt = (row[LAMSUM] / *cfl_now).max(1e-300);
            for i in 0..NVARS {
                row[i * NVARS + i] += vdt;
            }
            // Turbulence destruction Jacobian (stabilising, positive).
            let rho = u.at(0, v);
            let nt = (u.at(5, v) / rho).max(0.0);
            let d = mesh.wall_distance[v].max(1e-12);
            let dj = 2.0 * sa::CW1 * nt / (d * d) * mesh.volumes[v];
            row[5 * NVARS + 5] += dj;
        }
    }

    /// No-op, kept for callers that replay the parallel sweep's phases:
    /// the diagonal is resident in its exchange layout, so there is
    /// nothing to pack.
    pub fn pack_diag_scratch(&mut self) {}

    /// No-op counterpart of [`Self::pack_diag_scratch`].
    pub fn unpack_diag_scratch(&mut self) {}

    /// The resident diagonal rows (36 Jacobian entries + lamsum per
    /// vertex) as a mutable slice: the coalesced halo exchange rides them
    /// together with the residual planes.
    pub fn diag_pack_mut(&mut self) -> &mut [[f64; 37]] {
        &mut self.diag
    }
}

/// Word-wise FNV-1a digest of the state planes (debug-build staleness
/// check of the primitive cache).
fn state_stamp(u: &SoaStates<NVARS>) -> u64 {
    (0..NVARS)
        .flat_map(|k| u.plane(k))
        .fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{self, pressure};
    use columbia_mesh::{isotropic_box_mesh, wing_mesh, WingMeshSpec};

    fn small_wing() -> RansLevel {
        let spec = WingMeshSpec {
            ni: 16,
            nj: 4,
            nk: 10,
            nk_bl: 5,
            jitter: 0.0,
            ..Default::default()
        };
        RansLevel::new(
            wing_mesh(&spec),
            SolverParams {
                mach: 0.5,
                cfl: 10.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn freestream_is_near_steady_on_isotropic_box() {
        // With state == freestream everywhere, interior convective residuals
        // involve identical states: Rusanov dissipation vanishes and the
        // central fluxes telescope except for metric closure at boundaries
        // (all far-field here, so zeroed). Residual must be ~machine zero.
        let mesh = isotropic_box_mesh(6, 6, 6);
        let mut lvl = RansLevel::new(
            mesh,
            SolverParams {
                mach: 0.5,
                ..Default::default()
            },
        );
        let r = lvl.residual_rms();
        assert!(r < 1e-10, "freestream residual {r}");
    }

    #[test]
    fn wall_disturbs_freestream() {
        let mut lvl = small_wing();
        lvl.apply_bcs(); // zero wall momentum
        let r = lvl.residual_rms();
        assert!(r > 1e-8, "wall should generate residual, got {r}");
    }

    #[test]
    fn smoothing_reduces_residual() {
        let mut lvl = small_wing();
        lvl.apply_bcs();
        let r0 = lvl.residual_rms();
        for _ in 0..30 {
            lvl.smooth_sweep();
        }
        let r1 = lvl.residual_rms();
        assert!(
            r1 < 0.5 * r0,
            "smoother failed to reduce residual: {r0} -> {r1}"
        );
        // State must stay physical.
        for u in lvl.u.to_aos() {
            assert!(u[0] > 0.0 && pressure(&u) > 0.0);
            assert!(u.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn lines_cover_boundary_layer() {
        let lvl = small_wing();
        assert!(
            lvl.line_coverage() > 0.3,
            "line coverage {} too small",
            lvl.line_coverage()
        );
    }

    #[test]
    fn flop_counter_grows_with_sweeps() {
        let mut lvl = small_wing();
        lvl.smooth_sweep();
        let f1 = lvl.flops.total();
        lvl.smooth_sweep();
        let f2 = lvl.flops.total();
        assert!(f1 > 0);
        assert!(f2 > f1);
    }

    #[test]
    fn wall_bcs_enforced_after_sweep() {
        let mut lvl = small_wing();
        for _ in 0..3 {
            lvl.smooth_sweep();
        }
        for v in 0..lvl.nvertices() {
            if lvl.mesh.bc[v] == BoundaryKind::Wall {
                assert_eq!(lvl.u.at(1, v), 0.0);
                assert_eq!(lvl.u.at(2, v), 0.0);
                assert_eq!(lvl.u.at(3, v), 0.0);
                assert_eq!(lvl.u.at(5, v), 0.0);
            }
            if lvl.mesh.bc[v] == BoundaryKind::FarField {
                assert_eq!(lvl.u.get(v), lvl.fs);
            }
        }
    }

    /// Rank 0's local level of a jittered wing split over two ranks (so
    /// it has ghost rows), with a perturbed, non-free-stream state: random
    /// density, velocity and energy, some negative `rho nu_t`, and the
    /// wall BCs applied so zero wall velocities exercise signed zeros.
    fn perturbed_local_level() -> RansLevel {
        use crate::parallel::{build_local_levels, partition_mesh_line_aware};
        let mesh = wing_mesh(&WingMeshSpec {
            ni: 16,
            nj: 4,
            nk: 10,
            nk_bl: 5,
            jitter: 0.15,
            ..Default::default()
        });
        let params = SolverParams {
            mach: 0.6,
            ..Default::default()
        };
        let part = partition_mesh_line_aware(&mesh, 2, params.line_threshold);
        let (_, mut locals) = build_local_levels(&mesh, &part, 2, params);
        let mut lvl = locals.swap_remove(0).level;
        assert!(lvl.active.iter().any(|&a| !a), "no ghost rows");
        assert!(!lvl.lines.is_empty(), "no implicit lines");
        let mut rng = columbia_rt::Pcg32::seed_from_u64(0x5eed);
        let fs = lvl.fs;
        for v in 0..lvl.nvertices() {
            let mut r = || rng.gen_f64() - 0.5;
            let rho = fs[0] * (1.0 + 0.4 * r());
            let vel = [0.6 + 0.3 * r(), 0.2 * r(), 0.2 * r()];
            let p = (1.0 + 0.5 * r()) / GAMMA;
            let q2 = vel.iter().map(|x| x * x).sum::<f64>();
            let nt = 1e-4 * (4.0 * r() + 1.0);
            lvl.u.set(
                v,
                &[
                    rho,
                    rho * vel[0],
                    rho * vel[1],
                    rho * vel[2],
                    p / (GAMMA - 1.0) + 0.5 * rho * q2,
                    rho * nt,
                ],
            );
        }
        lvl.apply_bcs();
        lvl
    }

    /// The pre-cache edge loop: flux residual and implicit diagonal from
    /// the state-taking reference physics, every primitive re-derived per
    /// edge endpoint.
    fn reference_edge_loop(lvl: &RansLevel) -> (Vec<State>, Vec<DiagRow>) {
        use crate::state::reference::{flux_jacobian, rusanov, spectral_radius};
        let mu = lvl.params.mu_laminar();
        let mt = |u: &State| eddy_term(mu, u[0], state::nu_tilde(u));
        let n = lvl.nvertices();
        let mut res = vec![[0.0; NVARS]; n];
        let mut diag = vec![BlockMat::<NVARS>::zero(); n];
        let mut lamsum = vec![0.0; n];
        for e in &lvl.mesh.edges {
            let (a, b) = (e.a as usize, e.b as usize);
            let s = e.normal;
            let (ua, ub) = (lvl.u.get(a), lvl.u.get(b));
            let f = rusanov(&ua, &ub, s);
            for k in 0..NVARS {
                res[a][k] -= f[k];
                res[b][k] += f[k];
            }
            let coef = e.normal.norm() / e.length;
            let me = mu + 0.5 * (mt(&ua) + mt(&ub));
            let dv = velocity(&ub) - velocity(&ua);
            for (k, d) in [dv.x, dv.y, dv.z].into_iter().enumerate() {
                res[a][1 + k] += me * coef * d;
                res[b][1 + k] -= me * coef * d;
            }
            let ha = (ua[4] + pressure(&ua)) / ua[0];
            let hb = (ub[4] + pressure(&ub)) / ub[0];
            res[a][4] += me * coef * (hb - ha);
            res[b][4] -= me * coef * (hb - ha);
            let mtt = mu + 0.5 * (ua[5].max(0.0) + ub[5].max(0.0));
            let dn = mtt / sa::SIGMA * coef * (ub[5] / ub[0] - ua[5] / ua[0]);
            res[a][5] += dn;
            res[b][5] -= dn;

            let lam = spectral_radius(&ua, s).max(spectral_radius(&ub, s));
            let visc = me * coef / ua[0].min(ub[0]);
            let mut ja = flux_jacobian(&ua, s) * 0.5;
            ja.add_diagonal(0.5 * lam + visc);
            diag[a] += ja;
            let mut jb = flux_jacobian(&ub, -s) * 0.5;
            jb.add_diagonal(0.5 * lam + visc);
            diag[b] += jb;
            lamsum[a] += lam + visc;
            lamsum[b] += lam + visc;
        }
        let rows = diag
            .iter()
            .zip(&lamsum)
            .map(|(m, &l)| {
                let mut row = [0.0; DIAG_ROW];
                for r in 0..NVARS {
                    for c in 0..NVARS {
                        row[r * NVARS + c] = m.get(r, c);
                    }
                }
                row[LAMSUM] = l;
                row
            })
            .collect();
        (res, rows)
    }

    fn block_bits(m: &BlockMat<NVARS>) -> Vec<u64> {
        (0..NVARS * NVARS)
            .map(|i| m.get(i / NVARS, i % NVARS).to_bits())
            .collect()
    }

    /// The cached-primitive flux, diagonal and line-block kernels equal the
    /// state-taking reference physics bit for bit, ghost rows included.
    #[test]
    fn primitive_cache_matches_reference_edge_loop_bits() {
        let mut lvl = perturbed_local_level();
        lvl.begin_residual();
        lvl.accumulate_fluxes();
        lvl.accumulate_diagonal();
        let (res, diag) = reference_edge_loop(&lvl);
        for v in 0..lvl.nvertices() {
            for k in 0..NVARS {
                assert_eq!(
                    lvl.res.at(k, v).to_bits(),
                    res[v][k].to_bits(),
                    "flux residual at v={v} k={k}"
                );
            }
            for (i, (x, y)) in lvl.diag[v].iter().zip(&diag[v]).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "diagonal row {v} entry {i}");
            }
        }

        use crate::state::reference::{flux_jacobian, spectral_radius};
        let mu = lvl.params.mu_laminar();
        let inp = LineInputs {
            mesh: &lvl.mesh,
            prim: &lvl.prim,
            edge_coef: &lvl.edge_coef,
            mu,
        };
        let mut checked = 0;
        for (line, les) in lvl.lines.iter().zip(&lvl.line_edges) {
            for (i, &(ei, sign)) in les.iter().enumerate() {
                let (upper, lower) = line_edge_blocks(inp, &lvl.u, line, i, ei, sign);
                let e = &lvl.mesh.edges[ei as usize];
                let s = e.normal * sign;
                let ui = lvl.u.get(line[i] as usize);
                let uj = lvl.u.get(line[i + 1] as usize);
                let lam = spectral_radius(&ui, s).max(spectral_radius(&uj, s));
                let mt = |u: &State| eddy_term(mu, u[0], state::nu_tilde(u));
                let me = mu + 0.5 * (mt(&ui) + mt(&uj));
                let visc = me * (e.normal.norm() / e.length) / ui[0].min(uj[0]);
                let mut ref_upper = flux_jacobian(&uj, s) * 0.5;
                ref_upper.add_diagonal(-(0.5 * lam + visc));
                let mut ref_lower = flux_jacobian(&ui, -s) * 0.5;
                ref_lower.add_diagonal(-(0.5 * lam + visc));
                assert_eq!(block_bits(&upper), block_bits(&ref_upper), "upper {ei}");
                assert_eq!(block_bits(&lower), block_bits(&ref_lower), "lower {ei}");
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    /// Debug builds catch a phase reading primitives of a state that has
    /// changed since `begin_residual`.
    #[test]
    #[cfg(debug_assertions)]
    fn stale_primitives_are_caught_in_debug_builds() {
        type Phase = fn(&mut RansLevel);
        let phases: [(&str, Phase); 4] = [
            ("accumulate_gradients", RansLevel::accumulate_gradients),
            ("accumulate_fluxes", RansLevel::accumulate_fluxes),
            ("accumulate_diagonal", RansLevel::accumulate_diagonal),
            ("solve_implicit", RansLevel::solve_implicit),
        ];
        for (name, phase) in phases {
            let mut lvl = small_wing();
            lvl.begin_residual();
            phase(&mut lvl); // fresh snapshot: no complaint
            lvl.begin_residual();
            *lvl.u.at_mut(1, 0) += 1e-3;
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| phase(&mut lvl)))
                .expect_err(name);
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or("");
            assert!(msg.contains("primitive cache is stale"), "{name}: {msg}");
        }
    }

    /// The scalar lazy-AoS-view sweeps and the cache-blocked plane sweeps
    /// must agree bit for bit on every phase output after several full
    /// smoothing sweeps (the global parity suite pins the same property on
    /// partitioned meshes; this is the fast in-crate check).
    #[test]
    fn blocked_plane_sweeps_match_scalar_bits() {
        let mk = |kernel| {
            let spec = WingMeshSpec {
                ni: 16,
                nj: 4,
                nk: 10,
                nk_bl: 5,
                jitter: 0.0,
                ..Default::default()
            };
            let mut lvl = RansLevel::new(
                wing_mesh(&spec),
                SolverParams {
                    mach: 0.5,
                    cfl: 10.0,
                    kernel: Some(kernel),
                    ..Default::default()
                },
            );
            lvl.apply_bcs();
            for _ in 0..4 {
                lvl.smooth_sweep();
            }
            lvl.compute_residual();
            lvl
        };
        let a = mk(KernelKind::Scalar);
        let b = mk(KernelKind::Simd);
        for v in 0..a.nvertices() {
            for k in 0..NVARS {
                assert_eq!(
                    a.u.at(k, v).to_bits(),
                    b.u.at(k, v).to_bits(),
                    "u mismatch at v={v} k={k}"
                );
                assert_eq!(
                    a.res.at(k, v).to_bits(),
                    b.res.at(k, v).to_bits(),
                    "res mismatch at v={v} k={k}"
                );
            }
        }
    }
}
