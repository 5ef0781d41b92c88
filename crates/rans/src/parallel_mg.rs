//! Fully distributed multigrid: every level domain-decomposed, with
//! cross-rank restriction/prolongation schedules.
//!
//! This is the machinery behind the paper's inter-grid transfer discussion
//! (§III and §VI): each level is partitioned *independently* for intra-level
//! balance, coarse partitions are greedily matched to fine partitions by
//! overlap, and the remaining non-local fine-coarse pairs exchange packed
//! transfer messages (state + residual down, corrections up). The measured
//! non-local fraction of these transfers is exactly what the machine model
//! prices against InfiniBand's random-ring weakness.
//!
//! The implementation is SPMD: every rank runs the same W-cycle control
//! flow over its local sub-levels; transfers and norms are collectives.
//! It is the only RANS multigrid driver: `RansSolver` runs it on one rank.

use crate::level::{RansLevel, SolverParams};
use crate::parallel::{
    build_local_levels, partition_mesh_line_aware, residual_rms_tagged, residual_with_exchanges,
    sweep_with_exchanges, LocalLevel,
};
use crate::state::{pressure, NVARS};
use columbia_comm::{run_world, Decomposition, ExecContext, Rank, RankTrace};
use columbia_mesh::{agglomerate_hierarchy, BoundaryKind, UnstructuredMesh};
use columbia_mg::{ConvergenceHistory, CycleParams, CycleType};
use columbia_partition::match_levels;
use columbia_rt::trace::SpanKey;
use std::sync::Mutex;

/// Packed restriction entry: `vol * u` (6), fine residual (6) — the fine
/// volume rides along as entry 12 for the volume-weighted average.
const RESTRICT_WIDTH: usize = 13;

/// One fine→coarse transfer pair, local indices on both sides.
#[derive(Clone, Debug)]
struct TransferPair {
    /// Owned fine vertex (local index on the fine rank).
    fine_local: u32,
    /// Target coarse vertex (local index on the coarse rank).
    coarse_local: u32,
}

/// Transfer schedule between two adjacent levels for all ranks.
#[derive(Clone, Debug, Default)]
pub struct TransferSchedule {
    /// `local[rank]`: same-rank pairs.
    local: Vec<Vec<TransferPair>>,
    /// `sends[fine_rank]`: per peer coarse rank, ordered pairs (the fine
    /// side packs `fine_local` in list order).
    sends: Vec<Vec<(usize, Vec<TransferPair>)>>,
    /// `recvs[coarse_rank]`: per peer fine rank, the coarse-local targets
    /// in the exact order the fine side packs them.
    recvs: Vec<Vec<(usize, Vec<u32>)>>,
}

impl TransferSchedule {
    /// `rank`'s same-rank fine→coarse map, indexed by fine-local vertex
    /// (local indices on both sides). Only defined when every one of the
    /// rank's `n_fine` owned fine vertices transfers locally, as at one
    /// part.
    pub(crate) fn local_map(&self, rank: usize, n_fine: usize) -> Vec<u32> {
        assert_eq!(
            self.local[rank].len(),
            n_fine,
            "rank {rank} has remote transfers"
        );
        let mut map = vec![0; n_fine];
        for pr in &self.local[rank] {
            map[pr.fine_local as usize] = pr.coarse_local;
        }
        map
    }

    /// Fraction of fine vertices whose transfer crosses ranks.
    pub fn nonlocal_fraction(&self) -> f64 {
        let local: usize = self.local.iter().map(|v| v.len()).sum();
        let remote: usize = self
            .sends
            .iter()
            .flat_map(|peers| peers.iter().map(|(_, v)| v.len()))
            .sum();
        if local + remote == 0 {
            0.0
        } else {
            remote as f64 / (local + remote) as f64
        }
    }
}

/// The distributed multigrid solver state (builder side).
pub struct ParallelMg {
    /// Per level: the partition vector over global vertices.
    pub parts: Vec<Vec<u32>>,
    /// Per level: decomposition (ghost plans etc.).
    pub decomps: Vec<Decomposition>,
    /// Per level, per rank: local sub-level.
    pub locals: Vec<Vec<LocalLevel>>,
    /// Per level pair `l -> l+1`: transfer schedule.
    pub transfers: Vec<TransferSchedule>,
    /// Number of ranks.
    pub nparts: usize,
}

impl ParallelMg {
    /// Build the distributed hierarchy: agglomerate, partition every level
    /// independently (line-aware on the finest), greedily match coarse to
    /// fine partition labels, and precompute the transfer schedules.
    pub fn new(
        mesh: &UnstructuredMesh,
        params: SolverParams,
        nparts: usize,
        nlevels: usize,
    ) -> Self {
        let steps = agglomerate_hierarchy(mesh, nlevels, 10);
        // Global meshes per level (level 0 borrows the caller's).
        let mut meshes: Vec<&UnstructuredMesh> = vec![mesh];
        for s in &steps {
            meshes.push(&s.coarse);
        }
        let nlev = meshes.len();

        // Partition each level independently (all line-aware), then
        // relabel each coarse partition for overlap with the next finer
        // level (the paper's greedy matching).
        let mut parts: Vec<Vec<u32>> = Vec::with_capacity(nlev);
        parts.push(partition_mesh_line_aware(
            mesh,
            nparts,
            params.line_threshold,
        ));
        for l in 1..nlev {
            // Coarse levels are also partitioned line-aware (implicit lines
            // exist on agglomerated levels too and must not be broken).
            let raw = partition_mesh_line_aware(meshes[l], nparts, params.line_threshold);
            let map = &steps[l - 1].fine_to_coarse;
            let w = vec![1.0; meshes[l - 1].nvertices()];
            let (matched, _aligned) = match_levels(&parts[l - 1], map, &raw, nparts, &w);
            parts.push(matched);
        }

        // Local levels per (level, rank); coarse levels use generic line
        // extraction on their local meshes via build_local_levels.
        let mut decomps = Vec::with_capacity(nlev);
        let mut locals = Vec::with_capacity(nlev);
        for l in 0..nlev {
            let (d, ls) = build_local_levels(meshes[l], &parts[l], nparts, params);
            decomps.push(d);
            locals.push(ls);
        }

        // Transfer schedules between adjacent levels.
        let mut transfers = Vec::with_capacity(nlev.saturating_sub(1));
        for l in 0..nlev - 1 {
            let map = &steps[l].fine_to_coarse;
            let fine_part = &parts[l];
            let coarse_part = &parts[l + 1];
            let fine_d = &decomps[l];
            let coarse_d = &decomps[l + 1];
            let mut sched = TransferSchedule {
                local: vec![Vec::new(); nparts],
                sends: vec![Vec::new(); nparts],
                recvs: vec![Vec::new(); nparts],
            };
            // Group pairs by (fine_rank, coarse_rank), ordered by
            // (coarse_global, fine_global) so both sides agree on layout.
            // Entry: (coarse_global, fine_local, coarse_local).
            type PairsByRanks = std::collections::BTreeMap<(usize, usize), Vec<(u32, u32, u32)>>;
            let mut grouped: PairsByRanks = PairsByRanks::new();
            for v in 0..meshes[l].nvertices() {
                let g = map[v];
                let fr = fine_part[v] as usize;
                let cr = coarse_part[g as usize] as usize;
                let fl = fine_d
                    .local_index(fr, v as u32)
                    .expect("owned fine vertex must be local");
                let cl = coarse_d
                    .local_index(cr, g)
                    .expect("owned coarse vertex must be local");
                grouped.entry((fr, cr)).or_default().push((g, v as u32, 0));
                let e = grouped.get_mut(&(fr, cr)).unwrap().last_mut().unwrap();
                *e = (g, fl, cl);
            }
            for ((fr, cr), mut pairs) in grouped {
                pairs.sort_unstable();
                let tp: Vec<TransferPair> = pairs
                    .iter()
                    .map(|&(_, fl, cl)| TransferPair {
                        fine_local: fl,
                        coarse_local: cl,
                    })
                    .collect();
                if fr == cr {
                    sched.local[fr].extend(tp);
                } else {
                    sched.recvs[cr].push((fr, tp.iter().map(|p| p.coarse_local).collect()));
                    sched.sends[fr].push((cr, tp));
                }
            }
            // Deterministic peer order.
            for s in sched.sends.iter_mut() {
                s.sort_by_key(|(p, _)| *p);
            }
            for r in sched.recvs.iter_mut() {
                r.sort_by_key(|(p, _)| *p);
            }
            transfers.push(sched);
        }

        ParallelMg {
            parts,
            decomps,
            locals,
            transfers,
            nparts,
        }
    }

    /// Number of levels built.
    pub fn nlevels(&self) -> usize {
        self.locals.len()
    }

    /// Measured non-local transfer fractions per level pair.
    pub fn nonlocal_fractions(&self) -> Vec<f64> {
        self.transfers
            .iter()
            .map(|t| t.nonlocal_fraction())
            .collect()
    }

    /// Run `max_cycles` W-/V-cycles in parallel; returns the residual
    /// history (identical on every rank) and the per-rank teardown ledgers.
    ///
    /// Every rank runs under a multigrid-level context (sweeps attributed
    /// to their level, restriction/prolongation traffic to the *coarse*
    /// level of the pair — the intergrid cost the paper charges against
    /// coarse grids), so `traces[p].per_level` is always populated. A fault
    /// plan on `ctx` injects message/barrier faults per its seed, and an
    /// enabled tracer additionally records the ledgers under an `mg_solve`
    /// span. The default context runs clean with no recording overhead.
    pub fn solve(
        mut self,
        cp: &CycleParams,
        cfl: f64,
        max_cycles: usize,
        ctx: &mut ExecContext,
    ) -> (ConvergenceHistory, Vec<RankTrace>) {
        let nparts = self.nparts;
        // Move each rank's column of levels into a per-rank bundle.
        let mut bundles: Vec<Option<Vec<RansLevel>>> =
            (0..nparts).map(|_| Some(Vec::new())).collect();
        for lvl in self.locals.drain(..) {
            for (r, local) in lvl.into_iter().enumerate() {
                bundles[r].as_mut().unwrap().push(local.level);
            }
        }
        let bundles = Mutex::new(bundles);
        let decomps = &self.decomps;
        let transfers = &self.transfers;

        let (results, traces) = run_world(nparts, ctx, |rank| {
            let mut levels = bundles.lock().unwrap()[rank.rank()]
                .take()
                .expect("bundle already taken");
            for (l, lv) in levels.iter_mut().enumerate() {
                rank.enter_level(l);
                lv.cfl_now = cfl;
                lv.apply_bcs();
                decomps[l].plans[rank.rank()].exchange_copy_field(rank, 1, &mut lv.u);
                rank.exit_level();
            }
            // No take_stats: the teardown sink hands the whole ledger back.
            run_cycles(
                &mut levels,
                decomps,
                transfers,
                cp,
                max_cycles,
                rank,
                |_, _| true,
            )
        });

        let history = results.into_iter().next_back().unwrap_or_default();
        let tracer = ctx.tracer();
        tracer.scoped(SpanKey::new("mg_solve"), |t| {
            t.add("cycles", history.cycles() as u64);
            t.gauge("orders_reduced", history.orders_reduced());
            if let Some(&r) = history.residuals.last() {
                t.gauge("final_residual_rms", r);
            }
            for tr in &traces {
                tr.record_to(t);
            }
        });
        (history, traces)
    }
}

/// The per-rank cycle loop of both RANS drivers ([`ParallelMg::solve`]
/// and [`crate::RansSolver`]): the fine residual norm (tag 900), then up
/// to `max_cycles` FAS cycles, each followed by the fine residual norm
/// (tag 901). Before every cycle `before_cycle` sees the levels and the
/// last residual; it may adjust the CFL, and returning `false` stops the
/// loop. Returns the residual history (identical on every rank).
pub(crate) fn run_cycles(
    levels: &mut [RansLevel],
    decomps: &[Decomposition],
    transfers: &[TransferSchedule],
    cp: &CycleParams,
    max_cycles: usize,
    rank: &mut Rank,
    mut before_cycle: impl FnMut(&mut [RansLevel], f64) -> bool,
) -> ConvergenceHistory {
    let mut history = ConvergenceHistory::default();
    rank.enter_level(0);
    history
        .residuals
        .push(residual_rms_tagged(&mut levels[0], &decomps[0], rank, 900));
    rank.exit_level();
    for _cycle in 0..max_cycles {
        if !before_cycle(levels, *history.residuals.last().unwrap()) {
            break;
        }
        mg_recurse(levels, decomps, transfers, cp, 0, rank);
        rank.enter_level(0);
        history
            .residuals
            .push(residual_rms_tagged(&mut levels[0], &decomps[0], rank, 901));
        rank.exit_level();
    }
    history
}

/// Recursive SPMD FAS cycle over the rank's local levels.
pub(crate) fn mg_recurse(
    levels: &mut [RansLevel],
    decomps: &[Decomposition],
    transfers: &[TransferSchedule],
    cp: &CycleParams,
    l: usize,
    rank: &mut Rank,
) {
    let last = levels.len() - 1;
    if l == last {
        rank.enter_level(l);
        for _ in 0..cp.coarse_sweeps {
            sweep_with_exchanges(&mut levels[l], &decomps[l].plans[rank.rank()], rank);
        }
        rank.exit_level();
        return;
    }
    rank.enter_level(l);
    for _ in 0..cp.pre_sweeps {
        sweep_with_exchanges(&mut levels[l], &decomps[l].plans[rank.rank()], rank);
    }
    rank.exit_level();
    // Intergrid transfers are charged to the coarse level of the pair —
    // the same attribution the paper's per-level tables use.
    rank.enter_level(l + 1);
    parallel_restrict(levels, decomps, transfers, l, rank);
    rank.exit_level();
    let visits = match cp.cycle {
        CycleType::V => 1,
        CycleType::W => 2,
    };
    for _ in 0..visits {
        mg_recurse(levels, decomps, transfers, cp, l + 1, rank);
    }
    rank.enter_level(l + 1);
    parallel_prolong(levels, decomps, transfers, l, rank);
    rank.exit_level();
    rank.enter_level(l);
    for _ in 0..cp.post_sweeps {
        sweep_with_exchanges(&mut levels[l], &decomps[l].plans[rank.rank()], rank);
    }
    rank.exit_level();
}

/// Distributed FAS restriction `l -> l+1`.
fn parallel_restrict(
    levels: &mut [RansLevel],
    decomps: &[Decomposition],
    transfers: &[TransferSchedule],
    l: usize,
    rank: &mut Rank,
) {
    let p = rank.rank();
    let tag = 300 + 10 * l as u64;

    // Fine residual (complete at owners).
    residual_with_exchanges(&mut levels[l], &decomps[l].plans[p], rank, tag);

    let (fine_slice, coarse_slice) = levels.split_at_mut(l + 1);
    let fine = &fine_slice[l];
    let coarse = &mut coarse_slice[0];
    let sched = &transfers[l];

    // Accumulators over the coarse rank's local vertices.
    let nc = coarse.nvertices();
    let mut acc_u = vec![[0.0f64; NVARS]; nc];
    let mut acc_r = vec![[0.0f64; NVARS]; nc];

    // Send packed (vol*u, r, vol) per remote coarse rank. Payloads come
    // from the rank's pool, sized for the wider (restrict) direction so
    // restriction and prolongation ping-pong one recycled buffer per
    // peer pair.
    for (peer, pairs) in &sched.sends[p] {
        let mut buf = rank.buffer(*peer, RESTRICT_WIDTH.max(NVARS) * pairs.len());
        for pr in pairs {
            let v = pr.fine_local as usize;
            let vol = fine.mesh.volumes[v];
            for k in 0..NVARS {
                buf.push(vol * fine.u.at(k, v));
            }
            for k in 0..NVARS {
                buf.push(fine.res.at(k, v));
            }
            buf.push(vol);
        }
        rank.send(*peer, tag + 3, buf);
    }
    // Local pairs accumulate directly.
    for pr in &sched.local[p] {
        let v = pr.fine_local as usize;
        let c = pr.coarse_local as usize;
        let vol = fine.mesh.volumes[v];
        for k in 0..NVARS {
            acc_u[c][k] += vol * fine.u.at(k, v);
            acc_r[c][k] += fine.res.at(k, v);
        }
    }
    // Receive remote contributions.
    for (peer, targets) in &sched.recvs[p] {
        let buf = rank.recv(*peer, tag + 3);
        assert_eq!(
            buf.len(),
            targets.len() * RESTRICT_WIDTH,
            "rank {p}: restriction buffer size mismatch from peer {peer} on tag {}",
            tag + 3
        );
        for (i, &cl) in targets.iter().enumerate() {
            let base = i * RESTRICT_WIDTH;
            let c = cl as usize;
            for k in 0..NVARS {
                acc_u[c][k] += buf[base + k];
                acc_r[c][k] += buf[base + NVARS + k];
            }
        }
        rank.recycle(*peer, buf);
    }

    // Coarse state = volume-weighted average (coarse volume is the exact
    // sum of child volumes by construction of the agglomeration).
    for c in 0..nc {
        if !coarse.active[c] {
            continue;
        }
        let iv = 1.0 / coarse.mesh.volumes[c];
        for k in 0..NVARS {
            *coarse.u.at_mut(k, c) = acc_u[c][k] * iv;
        }
    }
    coarse.apply_bcs();
    let plan_c = &decomps[l + 1].plans[p];
    plan_c.exchange_copy_field(rank, tag + 4, &mut coarse.u);
    let RansLevel {
        restricted_u, u, ..
    } = coarse;
    restricted_u.copy_from(u);

    // FAS forcing: f_c = N_c(u_hat) + R(r_f) — compute N_c with zero
    // forcing via the parallel residual phases.
    coarse.forcing.fill_zero();
    residual_with_exchanges(coarse, plan_c, rank, tag + 5);
    for c in 0..nc {
        for k in 0..NVARS {
            *coarse.forcing.at_mut(k, c) = -coarse.res.at(k, c) + acc_r[c][k];
        }
    }
}

/// Distributed FAS prolongation `l+1 -> l`: the damped coarse correction
/// (`prolong_relax`), halved up to six times until density and pressure
/// stay within a factor of 2 of the current state (positivity
/// backtracking).
fn parallel_prolong(
    levels: &mut [RansLevel],
    decomps: &[Decomposition],
    transfers: &[TransferSchedule],
    l: usize,
    rank: &mut Rank,
) {
    let p = rank.rank();
    let tag = 600 + 10 * l as u64;
    let (fine_slice, coarse_slice) = levels.split_at_mut(l + 1);
    let fine = &mut fine_slice[l];
    let coarse = &coarse_slice[0];
    let sched = &transfers[l];

    // Corrections per coarse vertex.
    let corr_of = |c: usize| -> [f64; NVARS] {
        let mut out = [0.0; NVARS];
        for k in 0..NVARS {
            out[k] = coarse.u.at(k, c) - coarse.restricted_u.at(k, c);
        }
        out
    };

    // Remote: the coarse side sends one 6-vector per fine vertex in the
    // agreed order (reverse direction of the restriction lists). The
    // pooled request is sized for the wider restrict direction so the
    // buffer received during restriction is reused here.
    for (peer, targets) in &sched.recvs[p] {
        let mut buf = rank.buffer(*peer, RESTRICT_WIDTH.max(NVARS) * targets.len());
        for &cl in targets {
            let corr = corr_of(cl as usize);
            buf.extend_from_slice(&corr);
        }
        rank.send(*peer, tag, buf);
    }
    let relax = fine.params.prolong_relax;
    let apply = |lvl: &mut RansLevel, v: usize, corr: &[f64; NVARS]| {
        if lvl.mesh.bc[v] == BoundaryKind::FarField {
            return;
        }
        let mut scaled = [0.0; NVARS];
        for k in 0..NVARS {
            scaled[k] = relax * corr[k];
        }
        let uv = lvl.u.get(v);
        let mut alpha = 1.0;
        for _ in 0..6 {
            let mut trial = uv;
            for k in 0..NVARS {
                trial[k] += alpha * scaled[k];
            }
            let rho_ok = trial[0] > 0.5 * uv[0] && trial[0] < 2.0 * uv[0];
            let p_old = pressure(&uv);
            let p_new = pressure(&trial);
            if rho_ok && p_new > 0.5 * p_old && p_new < 2.0 * p_old {
                break;
            }
            alpha *= 0.5;
        }
        for k in 0..NVARS {
            *lvl.u.at_mut(k, v) += alpha * scaled[k];
        }
    };
    for pr in &sched.local[p] {
        let corr = corr_of(pr.coarse_local as usize);
        apply(fine, pr.fine_local as usize, &corr);
    }
    for (peer, pairs) in &sched.sends[p] {
        let buf = rank.recv(*peer, tag);
        assert_eq!(
            buf.len(),
            pairs.len() * NVARS,
            "rank {p}: prolongation buffer size mismatch from peer {peer} on tag {tag}"
        );
        for (i, pr) in pairs.iter().enumerate() {
            let mut corr = [0.0; NVARS];
            corr.copy_from_slice(&buf[i * NVARS..(i + 1) * NVARS]);
            apply(fine, pr.fine_local as usize, &corr);
        }
        rank.recycle(*peer, buf);
    }
    fine.apply_bcs();
    decomps[l].plans[p].exchange_copy_field(rank, tag + 1, &mut fine.u);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::RansSolver;
    use columbia_mesh::{wing_mesh, WingMeshSpec};

    fn mesh() -> UnstructuredMesh {
        wing_mesh(&WingMeshSpec {
            ni: 24,
            nj: 5,
            nk: 12,
            nk_bl: 6,
            jitter: 0.0,
            ..Default::default()
        })
    }

    fn params() -> SolverParams {
        SolverParams {
            mach: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn schedules_cover_every_fine_vertex_exactly_once() {
        let m = mesh();
        let pmg = ParallelMg::new(&m, params(), 4, 3);
        assert!(pmg.nlevels() >= 3);
        for (l, sched) in pmg.transfers.iter().enumerate() {
            let local: usize = sched.local.iter().map(|v| v.len()).sum();
            let remote: usize = sched
                .sends
                .iter()
                .flat_map(|s| s.iter().map(|(_, v)| v.len()))
                .sum();
            let n_fine: usize = pmg.decomps[l].n_owned.iter().sum();
            assert_eq!(local + remote, n_fine, "level {l} transfer coverage");
        }
        // Greedy matching keeps most transfers local.
        let fr = pmg.nonlocal_fractions();
        assert!(fr.iter().all(|&f| f < 0.7), "nonlocal fractions {fr:?}");
    }

    /// `RansSolver` (the one-rank hierarchy) against a three-rank
    /// hierarchy: each level is partitioned and its edges and transfers
    /// summed in a different order, so the histories agree to 1e-6, not
    /// bitwise.
    #[test]
    fn parallel_multigrid_matches_serial_history() {
        let m = mesh();
        let cp = CycleParams::default();
        let cfl = 4.0;

        // One-rank reference at fixed CFL.
        let mut serial = RansSolver::new(m.clone(), params(), 3);
        serial.set_cfl(cfl);
        let sh = serial.solve_fixed_cfl(&cp, 0.0, 3);

        let pmg = ParallelMg::new(&m, params(), 3, 3);
        let (ph, traces) = pmg.solve(&cp, cfl, 3, &mut ExecContext::default());

        assert_eq!(sh.residuals.len(), ph.residuals.len());
        for (i, (a, b)) in sh.residuals.iter().zip(ph.residuals.iter()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-6 * (1.0 + a.abs()),
                "cycle {i}: serial {a} vs parallel {b}"
            );
        }
        // Inter-grid messages actually flowed.
        assert!(traces.iter().any(|t| t.stats.total_msgs() > 0));
    }

    #[test]
    fn traced_solve_attributes_traffic_per_level() {
        let m = mesh();
        let nlevels = {
            let pmg = ParallelMg::new(&m, params(), 3, 3);
            pmg.nlevels()
        };
        let run = || {
            let pmg = ParallelMg::new(&m, params(), 3, 3);
            let mut ctx = ExecContext::traced();
            let (h, traces) = pmg.solve(&CycleParams::default(), 4.0, 2, &mut ctx);
            (h, traces, ctx.finish_trace().to_json().render())
        };
        let (h, traces, json) = run();
        assert!(h.cycles() == 2);
        for tr in &traces {
            // Every level has an attributed ledger, and it's all attributed:
            // no send escaped the level contexts.
            assert_eq!(tr.per_level.len(), nlevels, "rank {}", tr.rank);
            let attributed: u64 = tr.per_level.values().map(|s| s.total_msgs()).sum();
            assert_eq!(attributed, tr.stats.total_msgs(), "rank {}", tr.rank);
            // Smoothing happens on every level, so every level communicates.
            assert!(tr.per_level.values().all(|s| s.total_msgs() > 0));
        }
        // Byte-identical across runs, structure intact.
        let (_, _, json2) = run();
        assert_eq!(json, json2, "traced solve must be deterministic");
        assert!(json.contains("\"mg_solve\""));
        assert!(json.contains("\"comm_level\""));
    }

    #[test]
    fn parallel_multigrid_converges_on_more_ranks() {
        let m = mesh();
        let pmg = ParallelMg::new(&m, params(), 6, 3);
        let (h, _) = pmg.solve(
            &CycleParams::default(),
            6.0,
            12,
            &mut ExecContext::default(),
        );
        assert!(
            h.orders_reduced() > 2.0,
            "distributed MG failed to converge: {} orders",
            h.orders_reduced()
        );
    }
}
