//! Halo-exchange benchmark: the pooled/coalesced hot path against the
//! seed per-field allocating path, on a real wing-mesh decomposition.
//!
//! Usage:
//!   bench_exchange [--json PATH] [--stable]
//!
//! Two sections:
//!
//! * **microbench** — 2-rank ping-pong `exchange_copy_field` at several
//!   payload sizes, pooled vs seed (`_ref`), isolating the per-message
//!   allocation and packing cost;
//! * **macrobench** — 8 ranks exchanging the RANS smoothing sweep's
//!   field sequence (gradient accumulate + copy at width 9, residual 6 +
//!   diagonal 37 coalesced, diagonal 37 + state 6 copies coalesced) over
//!   a partitioned wing mesh: the seed path sends one freshly allocated
//!   message per field (six per peer per sweep), the pooled path recycles
//!   every payload and rides four messages per peer per sweep.
//!
//! Counters (message/byte counts, pool hits/misses, coalescing) are
//! deterministic and always emitted; wall-clock timings go into a
//! `measured` section that `--stable` omits, so a double run under
//! `--stable` must be byte-identical — that is the CI smoke check.

use columbia_comm::{decompose, run_ranks, CommStats, Decomposition, ExchangePlan, Rank};
use columbia_mesh::{wing_mesh, WingMeshSpec};
use columbia_rans::parallel::partition_mesh_line_aware;
use columbia_rt::Json;
use std::sync::Arc;
use std::time::Instant;

/// Ranks in the macrobench (the acceptance criterion's world size).
const RANKS: usize = 8;
/// Measured sweeps per macrobench repetition (after one warm-up sweep).
const SWEEPS: usize = 800;
/// Timing repetitions; the minimum is reported.
const REPS: usize = 8;
/// Microbench payload sizes (exchanged entries per side, width 6).
const MICRO_ENTRIES: [usize; 3] = [64, 1024, 16384];
/// Microbench iterations per repetition.
const MICRO_ITERS: usize = 1000;

fn wing_decomp(nparts: usize) -> Decomposition {
    let mesh = wing_mesh(&WingMeshSpec {
        jitter: 0.0,
        ..WingMeshSpec::with_target_points(1_000)
    });
    let part = partition_mesh_line_aware(&mesh, nparts, 10.0);
    let pairs: Vec<(u32, u32)> = mesh.edges.iter().map(|e| (e.a, e.b)).collect();
    decompose(mesh.nvertices(), &part, nparts, &pairs)
}

/// Per-rank working fields with the smoothing sweep's widths.
struct Fields {
    grad: Vec<[f64; 9]>,
    res: Vec<[f64; 6]>,
    diag: Vec<[f64; 37]>,
    u: Vec<[f64; 6]>,
}

impl Fields {
    fn new(decomp: &Decomposition, p: usize) -> Self {
        let n = decomp.local_to_global[p].len();
        Fields {
            grad: vec![[1.0; 9]; n],
            res: vec![[1.0; 6]; n],
            diag: vec![[1.0; 37]; n],
            u: vec![[1.0; 6]; n],
        }
    }
}

/// The smoothing sweep's exchange sequence on the pooled/coalesced path:
/// 4 messages per peer (residual + diagonal accumulate together, and the
/// dependency-free trailing copies of diagonal + state ride together),
/// zero steady-state allocations.
fn pooled_sweep(plan: &ExchangePlan, rank: &mut Rank, f: &mut Fields) {
    plan.exchange_add_field(rank, 10, &mut f.grad[..]);
    plan.exchange_copy_field(rank, 11, &mut f.grad[..]);
    plan.exchange_add2_field(rank, 12, &mut f.res[..], &mut f.diag[..]);
    plan.exchange_copy2_field(rank, 14, &mut f.diag[..], &mut f.u[..]);
}

/// The same sequence on the seed path: one message per peer per field
/// (6 total), each in a freshly allocated buffer.
fn seed_sweep(plan: &ExchangePlan, rank: &mut Rank, f: &mut Fields) {
    plan.exchange_add_ref::<9>(rank, 10, &mut f.grad);
    plan.exchange_copy_ref::<9>(rank, 11, &mut f.grad);
    plan.exchange_add_ref::<6>(rank, 12, &mut f.res);
    plan.exchange_add_ref::<37>(rank, 13, &mut f.diag);
    plan.exchange_copy_ref::<37>(rank, 14, &mut f.diag);
    plan.exchange_copy_ref::<6>(rank, 15, &mut f.u);
}

/// Run `SWEEPS` sweeps on every rank (after one untimed warm-up sweep);
/// returns (wall seconds, per-rank stats for the measured sweeps only).
fn run_macro(decomp: &Arc<Decomposition>, pooled: bool) -> (f64, Vec<CommStats>) {
    let d = Arc::clone(decomp);
    let start = Instant::now();
    let stats = run_ranks(RANKS, move |rank| {
        let p = rank.rank();
        let plan = &d.plans[p];
        let mut f = Fields::new(&d, p);
        let sweep: fn(&ExchangePlan, &mut Rank, &mut Fields) =
            if pooled { pooled_sweep } else { seed_sweep };
        sweep(plan, rank, &mut f);
        rank.take_stats(); // discard warm-up counters
        for _ in 0..SWEEPS {
            sweep(plan, rank, &mut f);
        }
        rank.take_stats()
    });
    (start.elapsed().as_secs_f64(), stats)
}

/// 2-rank ping-pong copy of `entries` 6-wide rows; returns wall seconds
/// for `MICRO_ITERS` iterations after one warm-up.
fn run_micro(entries: usize, pooled: bool) -> f64 {
    // A 2-partition chain whose single boundary exchanges `entries` rows:
    // partition 0 owns vertices 0..entries, partition 1 the rest, with one
    // edge per boundary row.
    let n = 2 * entries;
    let edges: Vec<(u32, u32)> = (0..entries as u32)
        .map(|i| (i, i + entries as u32))
        .collect();
    let part: Vec<u32> = (0..n).map(|v| (v >= entries) as u32).collect();
    let decomp = Arc::new(decompose(n, &part, 2, &edges));
    let start = Instant::now();
    run_ranks(2, move |rank| {
        let p = rank.rank();
        let plan = &decomp.plans[p];
        let mut data = vec![[1.0f64; 6]; decomp.local_to_global[p].len()];
        for it in 0..=MICRO_ITERS {
            if it == 1 {
                // warm-up done; the clock outside covers everything, but
                // the pool is hot from here on either way.
            }
            if pooled {
                plan.exchange_copy_field(rank, 7, &mut data[..]);
            } else {
                plan.exchange_copy_ref::<6>(rank, 7, &mut data);
            }
        }
    });
    start.elapsed().as_secs_f64()
}

fn min_of(mut f: impl FnMut() -> f64) -> f64 {
    (0..REPS).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn pool_json(total: &CommStats) -> Json {
    let p = total.pool();
    Json::obj([
        ("hits", Json::UInt(p.hits)),
        ("misses", Json::UInt(p.misses)),
        ("recycled", Json::UInt(p.recycled)),
        ("coalesced_msgs", Json::UInt(p.coalesced_msgs)),
        ("coalesced_fields", Json::UInt(p.coalesced_fields)),
    ])
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut stable = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = Some(args.next().expect("--json requires a path")),
            "--stable" => stable = true,
            other => panic!("unknown argument {other}"),
        }
    }

    columbia_bench::header(
        "exchange bench",
        "pooled/coalesced halo exchange vs the seed per-field path",
    );

    let decomp = Arc::new(wing_decomp(RANKS));
    let nvertices: usize = decomp.n_owned.iter().sum();

    // Deterministic counters from single stats runs.
    let (_, seed_stats) = run_macro(&decomp, false);
    let (_, pooled_stats) = run_macro(&decomp, true);
    let sum = |stats: &[CommStats]| {
        let mut t = CommStats::default();
        for s in stats {
            t.merge(s);
        }
        t
    };
    let seed_total = sum(&seed_stats);
    let pooled_total = sum(&pooled_stats);
    let steady_misses = pooled_total.pool().misses;
    assert_eq!(
        steady_misses, 0,
        "pooled macrobench must be allocation-free after warm-up"
    );

    println!("macro: {RANKS} ranks, {nvertices} vertices, {SWEEPS} sweeps/run");
    println!(
        "  seed   path: {:>8} msgs, {:>12} bytes",
        seed_total.total_msgs(),
        seed_total.total_bytes()
    );
    println!(
        "  pooled path: {:>8} msgs, {:>12} bytes ({} coalesced, {} pool hits, {} misses)",
        pooled_total.total_msgs(),
        pooled_total.total_bytes(),
        pooled_total.pool().coalesced_msgs,
        pooled_total.pool().hits,
        steady_misses,
    );

    let mut root = Json::obj([
        ("bench", Json::Str("exchange".into())),
        (
            "config",
            Json::obj([
                ("ranks", Json::UInt(RANKS as u64)),
                ("sweeps", Json::UInt(SWEEPS as u64)),
                ("reps", Json::UInt(REPS as u64)),
                ("vertices", Json::UInt(nvertices as u64)),
                ("micro_iters", Json::UInt(MICRO_ITERS as u64)),
            ]),
        ),
        (
            "deterministic",
            Json::obj([
                (
                    "macro",
                    Json::obj([
                        ("seed_msgs", Json::UInt(seed_total.total_msgs())),
                        ("seed_bytes", Json::UInt(seed_total.total_bytes())),
                        ("pooled_msgs", Json::UInt(pooled_total.total_msgs())),
                        ("pooled_bytes", Json::UInt(pooled_total.total_bytes())),
                        ("steady_state_pool_misses", Json::UInt(steady_misses)),
                        ("pool", pool_json(&pooled_total)),
                    ]),
                ),
                (
                    "micro",
                    Json::arr(MICRO_ENTRIES.iter().map(|&e| {
                        Json::obj([
                            ("entries", Json::UInt(e as u64)),
                            ("width", Json::UInt(6)),
                            ("bytes_per_msg", Json::UInt((e * 6 * 8) as u64)),
                        ])
                    })),
                ),
            ]),
        ),
    ]);

    if !stable {
        let seed_s = min_of(|| run_macro(&decomp, false).0);
        let pooled_s = min_of(|| run_macro(&decomp, true).0);
        let speedup = seed_s / pooled_s;
        println!(
            "  wall: seed {:.4} s, pooled {:.4} s -> {speedup:.2}x speedup",
            seed_s, pooled_s
        );

        let mut micro = Vec::new();
        for &e in &MICRO_ENTRIES {
            let ref_s = min_of(|| run_micro(e, false));
            let pool_s = min_of(|| run_micro(e, true));
            println!(
                "micro: {e:>6} entries: ref {:>10.2} µs/op, pooled {:>10.2} µs/op ({:.2}x)",
                ref_s * 1e6 / MICRO_ITERS as f64,
                pool_s * 1e6 / MICRO_ITERS as f64,
                ref_s / pool_s
            );
            micro.push(Json::obj([
                ("entries", Json::UInt(e as u64)),
                ("ref_s", Json::Num(ref_s)),
                ("pooled_s", Json::Num(pool_s)),
                ("speedup", Json::Num(ref_s / pool_s)),
            ]));
        }
        root.set(
            "measured",
            Json::obj([
                ("macro_seed_s", Json::Num(seed_s)),
                ("macro_pooled_s", Json::Num(pooled_s)),
                ("macro_speedup", Json::Num(speedup)),
                ("micro", Json::Arr(micro)),
            ]),
        );
    }

    if let Some(path) = json_path {
        std::fs::write(&path, root.render_pretty()).expect("write bench json");
        println!("wrote {path}");
    }
}
