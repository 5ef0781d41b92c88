//! The NSU3D-style solver driver: the one-rank case of the distributed
//! multigrid ([`ParallelMg`]), so one SPMD cycle, restriction and
//! prolongation serve every rank count.

use crate::level::RansLevel;
pub use crate::level::SolverParams;
use crate::parallel_mg::{mg_recurse, run_cycles, ParallelMg, TransferSchedule};
use columbia_comm::{run_world, Decomposition, ExecContext, Rank};
use columbia_mesh::UnstructuredMesh;
use columbia_mg::{ConvergenceHistory, CycleParams};
use std::sync::Mutex;

/// The NSU3D-style solver: an agglomeration multigrid hierarchy over an
/// unstructured mesh, run as a one-rank world.
pub struct RansSolver {
    /// Levels, finest first.
    pub levels: Vec<RansLevel>,
    /// Per level: the one-part decomposition (no ghosts, no peers).
    decomps: Vec<Decomposition>,
    /// Per level pair `l -> l+1`: the one-rank transfer schedule.
    transfers: Vec<TransferSchedule>,
}

impl RansSolver {
    /// Build a solver with up to `nlevels` agglomerated levels (coarsening
    /// stops early if a level would drop below ~10 vertices).
    pub fn new(mesh: UnstructuredMesh, params: SolverParams, nlevels: usize) -> Self {
        assert!(nlevels >= 1);
        let pmg = ParallelMg::new(&mesh, params, 1, nlevels);
        // At one part `decompose` numbers the owned vertices ascending
        // with no ghosts, so every local index is the global one.
        let mut levels: Vec<RansLevel> = pmg
            .locals
            .into_iter()
            .map(|mut ranks| ranks.pop().expect("one rank per level").level)
            .collect();
        for (l, sched) in pmg.transfers.iter().enumerate() {
            let n = levels[l].nvertices();
            levels[l].to_coarse = Some(sched.local_map(0, n));
        }
        let mut solver = RansSolver {
            levels,
            decomps: pmg.decomps,
            transfers: pmg.transfers,
        };
        solver.initialize();
        solver
    }

    /// Reset all levels to free stream with boundary conditions applied.
    pub fn initialize(&mut self) {
        for lvl in &mut self.levels {
            let fs = lvl.fs;
            lvl.u.fill_with(&fs);
            lvl.forcing.fill_zero();
            lvl.apply_bcs();
        }
    }

    /// Number of levels actually built.
    pub fn nlevels(&self) -> usize {
        self.levels.len()
    }

    /// Vertex counts per level, finest first.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.nvertices()).collect()
    }

    /// Run `body` on the hierarchy as rank 0 of a one-rank world.
    fn on_one_rank<T: Send>(
        &mut self,
        body: impl Fn(&mut [RansLevel], &[Decomposition], &[TransferSchedule], &mut Rank) -> T + Sync,
    ) -> T {
        let levels = Mutex::new(&mut self.levels);
        let (decomps, transfers) = (&self.decomps, &self.transfers);
        let (mut out, _) = run_world(1, &ExecContext::default(), |rank| {
            let mut levels = levels
                .lock()
                .expect("levels mutex poisoned by a panicked rank");
            body(&mut levels, decomps, transfers, rank)
        });
        out.pop().expect("one rank")
    }

    /// Run one multigrid cycle.
    pub fn cycle(&mut self, params: &CycleParams) {
        self.on_one_rank(|levels, decomps, transfers, rank| {
            mg_recurse(levels, decomps, transfers, params, 0, rank)
        });
    }

    /// Set the working CFL on every level.
    pub fn set_cfl(&mut self, cfl: f64) {
        for lvl in &mut self.levels {
            lvl.cfl_now = cfl;
        }
    }

    /// Run cycles to tolerance with geometric CFL ramping from
    /// `params.cfl_start` to `params.cfl`; returns the fine residual
    /// history.
    pub fn solve(
        &mut self,
        params: &CycleParams,
        tol: f64,
        max_cycles: usize,
    ) -> ConvergenceHistory {
        let sp = self.levels[0].params;
        self.cycles_to_tolerance(params, tol, max_cycles, Some(sp.cfl_start.min(sp.cfl)))
    }

    /// Run cycles at a fixed CFL (no ramping).
    pub fn solve_fixed_cfl(
        &mut self,
        params: &CycleParams,
        tol: f64,
        max_cycles: usize,
    ) -> ConvergenceHistory {
        self.cycles_to_tolerance(params, tol, max_cycles, None)
    }

    /// Cycles until the fine residual is at or below `tol`, all in one
    /// world. A `ramp` start CFL is set before the first cycle and grows
    /// 1.6× per cycle up to `params.cfl`; `None` keeps the current CFL.
    fn cycles_to_tolerance(
        &mut self,
        params: &CycleParams,
        tol: f64,
        max_cycles: usize,
        ramp: Option<f64>,
    ) -> ConvergenceHistory {
        let cfl_max = self.levels[0].params.cfl;
        self.on_one_rank(|levels, decomps, transfers, rank| {
            let mut cfl = ramp;
            let mut before_cycle = |levels: &mut [RansLevel], r: f64| {
                if r <= tol {
                    return false;
                }
                if let Some(c) = cfl.as_mut() {
                    for lvl in levels.iter_mut() {
                        lvl.cfl_now = *c;
                    }
                    *c = (*c * 1.6).min(cfl_max);
                }
                true
            };
            run_cycles(
                levels,
                decomps,
                transfers,
                params,
                max_cycles,
                rank,
                &mut before_cycle,
            )
        })
    }

    /// Total software-counted FLOPs across all levels (and reset counters).
    pub fn take_flops(&mut self) -> u64 {
        self.levels.iter_mut().map(|l| l.flops.take()).sum()
    }

    /// Per-level FLOPs since the last reset, finest first (not reset).
    pub fn level_flops(&self) -> Vec<u64> {
        self.levels.iter().map(|l| l.flops.total()).collect()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use columbia_mesh::{wing_mesh, WingMeshSpec};
    use columbia_mg::CycleType;

    fn wing(n: usize) -> UnstructuredMesh {
        wing_mesh(&WingMeshSpec {
            jitter: 0.0,
            ..WingMeshSpec::with_target_points(n)
        })
    }

    fn params() -> SolverParams {
        SolverParams {
            mach: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn hierarchy_has_requested_levels() {
        let s = RansSolver::new(wing(4000), params(), 4);
        assert_eq!(s.nlevels(), 4);
        let sizes = s.level_sizes();
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "levels must shrink: {sizes:?}");
        }
    }

    #[test]
    fn multigrid_drives_residual_down() {
        let mut s = RansSolver::new(wing(3000), params(), 4);
        let hist = s.solve(&CycleParams::default(), 0.0, 25);
        assert!(
            hist.orders_reduced() > 2.0,
            "only {} orders in 25 cycles: {:?}",
            hist.orders_reduced(),
            &hist.residuals
        );
    }

    #[test]
    fn multigrid_beats_single_grid_per_cycle() {
        let mesh = wing(3000);
        let mut mg = RansSolver::new(mesh.clone(), params(), 4);
        let mut sg = RansSolver::new(mesh, params(), 1);
        let cp = CycleParams::default();
        let hm = mg.solve(&cp, 0.0, 12);
        let hs = sg.solve(&cp, 0.0, 12);
        assert!(
            hm.orders_reduced() > hs.orders_reduced(),
            "mg {} vs single {}",
            hm.orders_reduced(),
            hs.orders_reduced()
        );
    }

    #[test]
    fn w_cycle_at_least_matches_v_cycle() {
        let mesh = wing(3000);
        let mut v = RansSolver::new(mesh.clone(), params(), 4);
        let mut w = RansSolver::new(mesh, params(), 4);
        let cv = CycleParams {
            cycle: CycleType::V,
            ..Default::default()
        };
        let cw = CycleParams {
            cycle: CycleType::W,
            ..Default::default()
        };
        let hv = v.solve(&cv, 0.0, 10);
        let hw = w.solve(&cw, 0.0, 10);
        assert!(
            hw.orders_reduced() >= hv.orders_reduced() - 0.3,
            "W {} vs V {}",
            hw.orders_reduced(),
            hv.orders_reduced()
        );
    }

    #[test]
    fn flop_accounting_scales_with_cycles() {
        let mut s = RansSolver::new(wing(2000), params(), 3);
        s.cycle(&CycleParams::default());
        let f1 = s.take_flops();
        s.cycle(&CycleParams::default());
        s.cycle(&CycleParams::default());
        let f2 = s.take_flops();
        assert!(f1 > 0);
        let ratio = f2 as f64 / f1 as f64;
        assert!(
            (1.5..=2.5).contains(&ratio),
            "2 cycles should cost ~2x one: ratio {ratio}"
        );
    }
}
