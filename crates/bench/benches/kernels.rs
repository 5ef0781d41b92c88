//! Microbenchmarks of the computational kernels (columbia-rt harness).

use columbia_linalg::{BlockMat, BlockTridiag};
use columbia_mesh::Vec3;
use columbia_partition::{graph::grid_graph, partition_graph, PartitionConfig};
use columbia_rans::state::{flux_jacobian, freestream, rusanov, Primitives};
use columbia_rt::bench::{black_box, Bench, Throughput};
use columbia_sfc::{hilbert_encode, morton_encode};

fn bench_block_kernels(c: &mut Bench) {
    let mut g = c.benchmark_group("linalg");
    let mut m = BlockMat::<6>::from_fn(|r, c| 0.1 * (r as f64) - 0.2 * (c as f64));
    m.add_diagonal(8.0);
    let b = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0];
    g.bench_function("lu6_factor_solve", |bench| {
        bench.iter(|| {
            let lu = black_box(&m).lu().unwrap();
            black_box(lu.solve(&b))
        })
    });
    // Block tridiagonal line of 32 points (typical boundary-layer line).
    g.bench_function("block_tridiag_32", |bench| {
        let mut t = BlockTridiag::<6>::new();
        let mut x = vec![[0.0f64; 6]; 32];
        bench.iter(|| {
            t.reset(32);
            for i in 0..32 {
                let mut d = m;
                d.add_diagonal(2.0);
                *t.diag_mut(i) = d;
                if i > 0 {
                    *t.lower_mut(i) = BlockMat::scaled_identity(-0.5);
                }
                if i + 1 < 32 {
                    *t.upper_mut(i) = BlockMat::scaled_identity(-0.5);
                }
                *t.rhs_mut(i) = b;
            }
            t.solve_into(&mut x).unwrap();
            black_box(x[16][0])
        })
    });
    g.finish();
}

fn bench_flux_kernels(c: &mut Bench) {
    let mut g = c.benchmark_group("flux");
    let ul = freestream(0.75, 0.02, 1e-4);
    let mut ur = ul;
    ur[0] = 1.1;
    let s = Vec3::new(0.4, -0.2, 0.1);
    // The solver derives primitives once per vertex and reuses them on
    // every incident edge, so the per-edge kernels are timed without it.
    let (wl, wr) = (Primitives::of(&ul), Primitives::of(&ur));
    let s_norm = s.norm();
    g.throughput(Throughput::Elements(1));
    g.bench_function("rusanov6", |bench| {
        bench.iter(|| {
            black_box(rusanov(
                black_box(&ul),
                black_box(&wl),
                black_box(&ur),
                black_box(&wr),
                s,
                s_norm,
            ))
        })
    });
    g.bench_function("flux_jacobian6", |bench| {
        bench.iter(|| black_box(flux_jacobian(black_box(&wl), s)))
    });
    g.finish();
}

fn bench_sfc(c: &mut Bench) {
    let mut g = c.benchmark_group("sfc");
    g.throughput(Throughput::Elements(1));
    g.bench_function("morton_encode", |bench| {
        bench.iter(|| black_box(morton_encode(black_box(123456), 654321, 111111, 21)))
    });
    g.bench_function("hilbert_encode", |bench| {
        bench.iter(|| black_box(hilbert_encode(black_box(123456), 654321, 111111, 21)))
    });
    g.finish();
}

fn bench_partitioner(c: &mut Bench) {
    let mut g = c.benchmark_group("partition");
    g.sample_size(10);
    let graph = grid_graph(24, 24, 24);
    g.bench_function("kway16_13824v", |bench| {
        bench.iter(|| black_box(partition_graph(&graph, 16, &PartitionConfig::default())))
    });
    g.finish();
}

fn bench_mesh_algorithms(c: &mut Bench) {
    use columbia_mesh::{
        agglomerate, extract_lines, reverse_cuthill_mckee, wing_mesh, WingMeshSpec,
    };
    let mut g = c.benchmark_group("mesh");
    g.sample_size(10);
    let mesh = wing_mesh(&WingMeshSpec {
        jitter: 0.0,
        ..WingMeshSpec::with_target_points(12_000)
    });
    g.bench_function("agglomerate_12k", |bench| {
        bench.iter(|| black_box(agglomerate(black_box(&mesh))))
    });
    g.bench_function("extract_lines_12k", |bench| {
        bench.iter(|| black_box(extract_lines(black_box(&mesh), 10.0)))
    });
    let graph = mesh.dual_graph();
    g.bench_function("rcm_12k", |bench| {
        bench.iter(|| black_box(reverse_cuthill_mckee(black_box(&graph))))
    });
    g.finish();
}

columbia_rt::bench_main!(
    bench_block_kernels,
    bench_flux_kernels,
    bench_sfc,
    bench_partitioner,
    bench_mesh_algorithms
);
