//! `aero_db`: write an aero database, then read one.
//!
//! Write: `DatabaseFill::run` of the SSLV geometry over 2 deflections x 3
//! Mach x 2 alpha on 2 threads, with a 1-thread baseline. Read: a seeded
//! closed-loop storm of `serve_batch` calls against a synthetic 17x97x49
//! table (the `bench_database` shape, ~7.8 MB), three batches in four
//! trajectory-clustered and one envelope-wide.
//!
//! The traced run times the fill's cases one by one through the calls
//! `CartAnalysis::mesh` and `run_on_mesh` make, on the fill's own thread
//! chunking, and counts the replay only when its loads agree with the
//! fill's (to a relative 1e-9: the fill's last bits vary from run to run).

use std::time::Instant;

use columbia_bench::database::{storm_axes, synthetic_entries};
use columbia_cartesian::{build_octree, extract_mesh, sslv_geometry, CutCellConfig};
use columbia_core::{
    digest_responses, AeroDatabase, CartAnalysis, CaseStatus, DatabaseEntry, DatabaseFill,
    DatabaseServer, DatabaseSpec, Fallback, Query, ServePolicy,
};
use columbia_rt::Pcg32;

use crate::common::{
    config_notes, end_to_end_metrics, measure, median, pinned_ctx, quantile, secs, traced_passes,
    Fnv, Outcome, Pass, RunConfig, Samples, Size,
};
use crate::gate;

/// Hot-region cache capacity of the server (the repository default).
const CACHE_CELLS: usize = 512;
/// Concurrent trajectories in a clustered batch.
const TRAJECTORIES: usize = 16;
/// Consecutive identical queries a trajectory issues before it moves.
const DWELL: usize = 8;
/// Table builds per repetition (set-up is short; its median is reported).
const SETUP_BUILDS: usize = 3;

struct Sizing {
    min_level: u32,
    max_level: u32,
    cycles: usize,
    batches: usize,
    batch_len: usize,
}

impl Sizing {
    fn of(size: Size) -> Self {
        match size {
            Size::Full => Sizing {
                min_level: 3,
                max_level: 6,
                cycles: 6,
                batches: 2000,
                batch_len: 1024,
            },
            Size::Tiny => Sizing {
                min_level: 3,
                max_level: 4,
                cycles: 3,
                batches: 8,
                batch_len: 64,
            },
        }
    }
}

fn fill_spec(sz: &Sizing) -> DatabaseSpec {
    DatabaseSpec {
        deflections: vec![0.0, 0.1],
        machs: vec![0.6, 0.9, 1.2],
        alphas: vec![0.0, 0.05],
        betas: vec![0.0],
        cycles: sz.cycles,
    }
}

fn analysis(sz: &Sizing) -> CartAnalysis {
    CartAnalysis::default().resolution(sz.min_level, sz.max_level)
}

fn policy() -> ServePolicy {
    ServePolicy {
        cache_capacity: Some(CACHE_CELLS),
        fallback: Fallback::Strict,
        refine_budget: Some(0),
    }
}

/// The set-up of the read side: tabulate, validate and serve.
fn build_server() -> DatabaseServer {
    let db = AeroDatabase::from_entries(&synthetic_entries())
        .expect("the synthetic table is a complete, finite grid");
    DatabaseServer::new(db, &policy())
}

/// The seeded query storm. Clustered batches interleave `TRAJECTORIES`
/// flight paths that each repeat a condition `DWELL` times before taking a
/// small step (cache and dedup hits); every fourth batch is uniform over
/// the envelope (cache misses).
pub fn storm(seed: u64, batches: usize, batch_len: usize) -> Vec<Vec<Query>> {
    let (ds, ms, als) = storm_axes();
    let lo = [ds[0], ms[0], als[0]];
    let hi = [ds[ds.len() - 1], ms[ms.len() - 1], als[als.len() - 1]];
    let mut rng = Pcg32::seed_from_u64(seed);
    let uniform = |rng: &mut Pcg32| -> [f64; 3] {
        std::array::from_fn(|k| lo[k] + (hi[k] - lo[k]) * rng.gen_f64())
    };
    let mut pos: Vec<[f64; 3]> = (0..TRAJECTORIES).map(|_| uniform(&mut rng)).collect();
    // Every trajectory moves at the same rate along each axis (a random
    // direction only), so the storm's cache behaviour does not vary with
    // the seed.
    let mut vel: Vec<[f64; 3]> = (0..TRAJECTORIES)
        .map(|_| {
            std::array::from_fn(|k| {
                let sign = if rng.gen_f64() < 0.5 { -1.0 } else { 1.0 };
                sign * (hi[k] - lo[k]) * 1e-3
            })
        })
        .collect();
    let mut issued = [0usize; TRAJECTORIES];
    let q = |x: [f64; 3]| Query {
        deflection: x[0],
        mach: x[1],
        alpha: x[2],
    };
    (0..batches)
        .map(|b| {
            (0..batch_len)
                .map(|j| {
                    if b % 4 == 3 {
                        return q(uniform(&mut rng));
                    }
                    let t = j % TRAJECTORIES;
                    issued[t] += 1;
                    if issued[t].is_multiple_of(DWELL) {
                        for k in 0..3 {
                            let next = pos[t][k] + vel[t][k];
                            if next < lo[k] || next > hi[k] {
                                vel[t][k] = -vel[t][k];
                            }
                            pos[t][k] = (pos[t][k] + vel[t][k]).clamp(lo[k], hi[k]);
                        }
                    }
                    q(pos[t])
                })
                .collect()
        })
        .collect()
}

/// Serve the storm; returns per-batch latencies (s) and the digest of
/// every response, and records a served-answer check per batch.
fn serve(server: &mut DatabaseServer, storm: &[Vec<Query>], p: &mut Pass) -> (Vec<f64>, u64) {
    let mut lat = Vec::with_capacity(storm.len());
    let mut digest = Fnv::default();
    for batch in storm {
        let t = Instant::now();
        let resp = server.serve_batch(batch);
        lat.push(secs(t));
        digest.word(digest_responses(&resp));
        p.checks.push(gate::served(server.database(), batch, &resp));
    }
    (lat, digest.0)
}

fn fill_check(entries: &[DatabaseEntry]) -> Result<(), String> {
    gate::fill(entries).map(|_| ())
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let sz = Sizing::of(cfg.size);
    let mut out = Outcome::default();
    let storm = storm(cfg.seed, sz.batches, sz.batch_len);
    if cfg.trace {
        traced(cfg, &sz, &storm, &mut out);
    } else {
        end_to_end(cfg, &sz, &storm, &mut out);
    }
    out
}

fn end_to_end(cfg: &RunConfig, sz: &Sizing, storm: &[Vec<Query>], out: &mut Outcome) {
    let deadline = cfg.deadline();
    let fill = DatabaseFill::new(analysis(sz), sslv_geometry);
    let spec = fill_spec(sz);
    let run_fill = |threads: usize| measure(|| fill.run(&spec, threads, &mut pinned_ctx()));
    let mut samples = Samples::default();
    let (mut lat, mut qps) = (Vec::new(), Vec::new());
    let mut p = Pass::default();
    let mut rep = 0usize;
    while rep < 2 || Instant::now() < deadline {
        let mut server = None;
        for _ in 0..SETUP_BUILDS {
            let (built, setup) = measure(build_server);
            server = Some(built);
            samples.setup.push(setup);
        }
        let mut server = server.expect("at least one build");
        let ((e2, t2), (e1, t1)) = if rep.is_multiple_of(2) {
            let a = run_fill(2);
            (a, run_fill(1))
        } else {
            let b = run_fill(1);
            (run_fill(2), b)
        };
        p.checks.push(fill_check(&e2));
        p.checks.push(fill_check(&e1));
        samples.solve2.push(t2);
        samples.solve1.push(t1);
        let ((batch_lat, _), served) = measure(|| serve(&mut server, storm, &mut p));
        // The storm's busy time: its batch latencies scaled by the busy
        // share of the loop (which also ran the answer checks).
        let serving: f64 = batch_lat.iter().sum();
        let queries = (batch_lat.len() * sz.batch_len) as f64;
        qps.push(queries / (serving * served.busy() / served.wall));
        lat.extend(batch_lat);
        rep += 1;
    }
    end_to_end_metrics(out, p, &samples, median(&qps));
    let us: Vec<f64> = lat.iter().map(|s| s * 1e6).collect();
    out.note(format!(
        "fill: {} cases at resolution {}..{}, {} cycles each; solve_s is the 2-thread fill (fill_s)",
        spec.ncases(),
        sz.min_level,
        sz.max_level,
        sz.cycles
    ));
    out.note("setup: synthetic table build + from_entries + server, 3 per repetition");
    out.note("throughput: served queries per busy second (serve_qps), median over repetitions");
    out.note(format!(
        "raw serve_batch_p50_us: {:.3} us, serve_batch_p99_us: {:.3} us over {} batches of {}",
        quantile(&us, 0.5),
        quantile(&us, 0.99),
        us.len(),
        sz.batch_len
    ));
    let table_bytes = {
        let (nd, nm, na) = columbia_bench::database::DB_SHAPE;
        (nd * nm * na * (2 * 24 + 1)) as u64
    };
    config_notes(out, cfg, table_bytes);
}

/// One fill case as `DatabaseFill::run` executes it, timed.
struct CaseRun {
    seconds: f64,
    loads: [f64; 6],
}

fn loads(f: &columbia_euler::Forces) -> [f64; 6] {
    let (a, b) = (f.force, f.moment);
    [a.x, a.y, a.z, b.x, b.y, b.z]
}

fn traced_pass(sz: &Sizing, storm: &[Vec<Query>]) -> Pass {
    let mut p = Pass::default();
    let a = analysis(sz);
    let fill = DatabaseFill::new(a.clone(), sslv_geometry);
    let spec = fill_spec(sz);
    let t = Instant::now();
    let entries = fill.run(&spec, 2, &mut pinned_ctx());
    let fill_s = secs(t);
    p.checks.push(fill_check(&entries));
    let quarantined = entries
        .iter()
        .filter(|e| matches!(e.status, CaseStatus::Quarantined { .. }))
        .count();
    let attempts: u32 = entries
        .iter()
        .map(|e| match e.status {
            CaseStatus::Converged => 1,
            CaseStatus::Recovered { attempts } | CaseStatus::Quarantined { attempts, .. } => {
                attempts
            }
        })
        .sum();
    p.measured("core.cases_quarantined", quarantined as f64, "count");
    p.measured("core.attempts", attempts as f64, "count");
    // The fill's loads are not bit-reproducible from run to run (the
    // Euler coarse-level face order follows hash-map iteration), so the
    // deterministic section records the fill's shape, not its loads.
    p.det("fill.cases", entries.len());
    p.det("fill.quarantined", quarantined);
    p.det("fill.attempts", attempts);

    // Replay: one mesh per configuration, wind cases chunked over two
    // threads exactly as `DatabaseFill::run` chunks them.
    let threads = 2;
    let t_replay = Instant::now();
    let (mut octree_s, mut extract_s, mut covered) = (0.0, 0.0, 0.0);
    let mut cases: Vec<CaseRun> = Vec::new();
    let mut cells = (0, 0);
    for &defl in &spec.deflections {
        let geom = sslv_geometry(defl);
        let config = CutCellConfig::around(&geom, a.pad, a.min_level, a.max_level);
        let t = Instant::now();
        let tree = build_octree(&geom, &config);
        octree_s += secs(t);
        let t = Instant::now();
        let mesh = extract_mesh(&tree, &geom, a.curve, 0.1);
        extract_s += secs(t);
        cells = (mesh.ncells(), mesh.ncut());
        let mut wind = Vec::new();
        for &m in &spec.machs {
            for &al in &spec.alphas {
                for &b in &spec.betas {
                    wind.push((m, al, b));
                }
            }
        }
        let chunk = wind.len().div_ceil(threads);
        let runs: Vec<Vec<CaseRun>> = std::thread::scope(|scope| {
            let handles: Vec<_> = wind
                .chunks(chunk)
                .map(|batch| {
                    let (a, mesh) = (&a, &mesh);
                    scope.spawn(move || {
                        batch
                            .iter()
                            .map(|&(m, al, b)| {
                                let t = Instant::now();
                                let report = a
                                    .clone()
                                    .wind(m, al, b)
                                    .run_on_mesh(mesh.clone(), spec.cycles);
                                CaseRun {
                                    seconds: secs(t),
                                    loads: loads(&report.forces),
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay worker panicked"))
                .collect()
        });
        covered += runs
            .iter()
            .map(|r| r.iter().map(|c| c.seconds).sum::<f64>())
            .fold(0.0, f64::max);
        cases.extend(runs.into_iter().flatten());
    }
    covered += octree_s + extract_s;
    let replay_s = secs(t_replay);
    let fill_loads: Vec<[f64; 6]> = entries.iter().map(|e| loads(&e.forces)).collect();
    let replay_loads: Vec<[f64; 6]> = cases.iter().map(|c| c.loads).collect();
    p.checks.push(gate::loads_agree(&fill_loads, &replay_loads));
    let case_s: Vec<f64> = cases.iter().map(|c| c.seconds).collect();
    p.measured("cartesian.octree_s", octree_s, "s");
    p.measured("cartesian.extract_s", extract_s, "s");
    p.measured("cartesian.cells", cells.0 as f64, "count");
    p.measured("cartesian.cut_cells", cells.1 as f64, "count");
    p.measured("core.case_s_p50", quantile(&case_s, 0.5), "s");
    p.measured("core.case_s_p99", quantile(&case_s, 0.99), "s");
    p.derived(
        "core.fill_thread_util",
        case_s.iter().sum::<f64>() / (threads as f64 * fill_s),
        "ratio",
    );
    p.derived("trace.overhead", replay_s / fill_s - 1.0, "ratio");
    p.derived("trace.coverage", covered / replay_s, "ratio");

    // Read side.
    let mut server = build_server();
    let (lat, digest) = serve(&mut server, storm, &mut p);
    let st = server.stats();
    let us: Vec<f64> = lat.iter().map(|s| s * 1e6).collect();
    p.measured("server.batch_p50_us", quantile(&us, 0.5), "us");
    p.measured("server.batch_p99_us", quantile(&us, 0.99), "us");
    let lookups = st.cache_hits + st.cache_misses;
    p.derived(
        "server.hit_ratio",
        st.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    p.derived(
        "server.dedup_ratio",
        st.dedup_hits as f64 / st.queries.max(1) as f64,
        "ratio",
    );
    p.measured("server.evictions", st.evictions as f64, "count");
    p.measured("server.errors", st.errors as f64, "count");
    p.measured("server.degraded", st.degraded as f64, "count");
    p.det("serve.responses.digest", format!("{digest:016x}"));
    p.det(
        "serve.stats",
        format!(
            "queries={} hits={} misses={} dedup={} evictions={} errors={} degraded={}",
            st.queries,
            st.cache_hits,
            st.cache_misses,
            st.dedup_hits,
            st.evictions,
            st.errors,
            st.degraded
        ),
    );

    // An uncached direct lookup of the same conditions.
    let db = server.database();
    let nq: usize = storm.iter().map(Vec::len).sum();
    let t = Instant::now();
    for q in storm.iter().flatten() {
        std::hint::black_box(db.lookup(q.deflection, q.mach, q.alpha));
    }
    p.measured("flight.lookup_ns", secs(t) * 1e9 / nq as f64, "ns");
    p
}

fn traced(cfg: &RunConfig, sz: &Sizing, storm: &[Vec<Query>], out: &mut Outcome) {
    traced_passes(cfg, out, || traced_pass(sz, storm));
}
