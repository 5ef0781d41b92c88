//! Shared pieces of the benchmark: run configuration, the result record
//! every workload fills, steal-aware timing, sample statistics, digests
//! and host facts.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use columbia_comm::{ExecContext, Executor, RankTrace};

/// Problem sizes. `Full` is the benchmark; `Tiny` runs every code path in
/// well under a second per workload for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Measured time budget: repetitions continue until it is spent.
    pub seconds: f64,
    /// `false`: end-to-end run, tracing off. `true`: the per-layer run.
    pub trace: bool,
    pub size: Size,
}

impl RunConfig {
    /// Deadline of the measured loop, starting now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// The pinned execution context of every world the benchmark starts:
/// rank-per-thread executor, clean (no fault plan), tracer off.
pub fn pinned_ctx() -> ExecContext {
    ExecContext::default().with_executor(Executor::Threads)
}

/// Whether a metric is a direct measurement or computed from others.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Measured,
    Derived,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (solves, fills, served batches, replay checks).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Human-readable reasons for every failed check.
    pub errors: Vec<String>,
    /// `true` when a digest that must repeat did not: the run is void.
    pub digest_mismatch: bool,
    pub metrics: Vec<Metric>,
    /// Informational lines (samples, quartiles, run configuration).
    pub notes: Vec<String>,
    /// Deterministic section: counts and digests that must be
    /// byte-identical across runs with the same seed.
    pub deterministic: BTreeMap<String, String>,
}

impl Outcome {
    /// Record one checked operation: a failed check counts against
    /// `failed` and keeps its reason.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Summarise a sample set as a note: count, median and quartiles.
    pub fn note_samples(&mut self, name: &str, unit: &str, xs: &[f64]) {
        let (q1, q2, q3) = quartiles(xs);
        self.notes.push(format!(
            "{name}: n={} median={q2:.6} q1={q1:.6} q3={q3:.6} {unit}",
            xs.len()
        ));
    }
}

/// Metrics, deterministic entries and checks of one measured pass.
#[derive(Debug, Default)]
pub struct Pass {
    pub metrics: Vec<Metric>,
    pub det: BTreeMap<String, String>,
    pub checks: Vec<Result<(), String>>,
}

impl Pass {
    pub fn measured(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, Kind::Measured);
    }

    pub fn derived(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, Kind::Derived);
    }

    fn push(&mut self, name: String, value: f64, unit: &'static str, kind: Kind) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            kind,
        });
    }

    pub fn det(&mut self, key: impl Into<String>, value: impl ToString) {
        self.det.insert(key.into(), value.to_string());
    }
}

/// Run traced passes until the run's time budget is spent (at least one)
/// and fold them into the outcome.
pub fn traced_passes(cfg: &RunConfig, out: &mut Outcome, mut pass: impl FnMut() -> Pass) {
    let deadline = cfg.deadline();
    let mut passes = Vec::new();
    while passes.is_empty() || Instant::now() < deadline {
        passes.push(pass());
    }
    fold_passes(out, passes);
}

/// Fold passes into the outcome: each metric is the median over
/// passes, every check counts, and the deterministic section
/// of every pass must equal the first pass's byte for byte.
pub fn fold_passes(out: &mut Outcome, passes: Vec<Pass>) {
    let first = &passes[0];
    for (i, m) in first.metrics.iter().enumerate() {
        let xs: Vec<f64> = passes.iter().map(|p| p.metrics[i].value).collect();
        out.metrics.push(Metric {
            value: median(&xs),
            ..m.clone()
        });
    }
    for p in &passes[1..] {
        if p.det != first.det {
            out.digest_mismatch = true;
            out.errors
                .push("deterministic section differs between passes".into());
        }
    }
    out.note(format!("passes: {}", passes.len()));
    let mut passes = passes;
    out.deterministic.append(&mut passes[0].det);
    for p in passes {
        for c in p.checks {
            out.check(c);
        }
    }
}

/// Multigrid levels reported one by one (`l0..l4`).
pub const REPORTED_LEVELS: usize = 5;

/// Message, byte and pool counts of a run's teardown ledgers into the
/// deterministic section under `prefix`, and as per-layer metrics when
/// `metrics` is set. A driver that attributes no traffic to levels (the
/// single-level Euler driver) has all of it reported as level 0.
pub fn comm_counts(traces: &[RankTrace], prefix: &str, p: &mut Pass, metrics: bool) {
    let msgs: u64 = traces.iter().map(|t| t.stats.total_msgs()).sum();
    let bytes: u64 = traces.iter().map(|t| t.stats.total_bytes()).sum();
    let misses: u64 = traces.iter().map(|t| t.stats.pool().misses).sum();
    let retries: u64 = traces.iter().map(|t| t.stats.faults().retries).sum();
    p.det(format!("{prefix}comm.msgs"), msgs);
    p.det(format!("{prefix}comm.bytes"), bytes);
    p.det(format!("{prefix}comm.pool_misses"), misses);
    let nlev = traces
        .iter()
        .flat_map(|t| t.per_level.keys().copied())
        .max()
        .map_or(1, |l| l + 1);
    for l in 0..nlev.max(REPORTED_LEVELS) {
        let (lm, lb) = if traces.iter().all(|t| t.per_level.is_empty()) {
            if l == 0 {
                (msgs, bytes)
            } else {
                (0, 0)
            }
        } else {
            let level = || traces.iter().filter_map(move |t| t.per_level.get(&l));
            (
                level().map(|s| s.total_msgs()).sum(),
                level().map(|s| s.total_bytes()).sum(),
            )
        };
        if l < nlev {
            p.det(format!("{prefix}comm.l{l}.msgs"), lm);
            p.det(format!("{prefix}comm.l{l}.bytes"), lb);
        }
        if metrics && l < REPORTED_LEVELS {
            p.measured(format!("comm.l{l}.bytes"), lb as f64, "count");
        }
    }
    if metrics {
        p.measured("comm.msgs", msgs as f64, "count");
        p.measured("comm.bytes", bytes as f64, "count");
        p.measured("comm.pool_misses", misses as f64, "count");
        p.measured("comm.retries", retries as f64, "count");
    }
}

/// One timed section: its wall time and the steal time of each vCPU
/// within it.
#[derive(Clone, Debug)]
pub struct Span {
    pub wall: f64,
    pub steal: Vec<f64>,
}

impl Span {
    /// Total steal seconds over all vCPUs.
    pub fn steal_total(&self) -> f64 {
        self.steal.iter().sum()
    }

    /// The time the section would have taken had the hypervisor not taken
    /// the vCPUs away: wall x the product over vCPUs of the share of the
    /// interval each one ran. The product is the share of time every vCPU
    /// ran at once — the time a lock-step 2-rank solve (11 exchanges per
    /// RK step, 5 per sweep) makes progress, assuming the steal on
    /// different vCPUs is independent; a single thread sees only its own
    /// vCPU's steal, an idle vCPU accrues none.
    pub fn busy(&self) -> f64 {
        self.steal.iter().fold(self.wall, |b, s| {
            b * (1.0 - (s / self.wall).clamp(0.0, 0.95))
        })
    }
}

/// Run `f` and time it.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Span) {
    let steal0 = steal_s();
    let t = Instant::now();
    let r = f();
    let wall = secs(t);
    let steal = steal_s().iter().zip(&steal0).map(|(b, a)| b - a).collect();
    (r, Span { wall, steal })
}

/// Per-repetition timings of an end-to-end run.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup: Vec<Span>,
    /// The solve at 2 ranks (2 fill threads).
    pub solve2: Vec<Span>,
    /// The 1-rank (1-thread) baseline.
    pub solve1: Vec<Span>,
}

fn busy(xs: &[Span]) -> Vec<f64> {
    xs.iter().map(Span::busy).collect()
}

fn wall(xs: &[Span]) -> Vec<f64> {
    xs.iter().map(|s| s.wall).collect()
}

impl Samples {
    /// Median busy seconds of the 2-rank solve.
    pub fn solve_busy_s(&self) -> f64 {
        median(&busy(&self.solve2))
    }
}

/// The end-to-end metrics of a run: medians of busy seconds (see
/// [`Span::busy`]), the efficiency from the two solve medians,
/// `throughput` (per busy second) and peak memory. Per-repetition times,
/// raw wall-clock medians and quartiles and the steal totals go to the
/// notes.
pub fn end_to_end_metrics(out: &mut Outcome, mut p: Pass, s: &Samples, throughput: f64) {
    let solve_s = s.solve_busy_s();
    p.measured("setup_s", median(&busy(&s.setup)), "s");
    p.measured("solve_s", solve_s, "s");
    p.derived(
        "parallel_eff",
        median(&busy(&s.solve1)) / (2.0 * solve_s),
        "ratio",
    );
    p.derived("throughput", throughput, "1/s");
    p.measured("peak_rss_mb", peak_rss_mb(), "MB");
    fold_passes(out, vec![p]);
    for (i, (two, one)) in s.solve2.iter().zip(&s.solve1).enumerate() {
        out.note(format!(
            "repetition {i}: 2-rank wall {:.4} steal {:.2?} busy {:.4}, 1-rank wall {:.4} steal {:.2?} busy {:.4}",
            two.wall, two.steal, two.busy(), one.wall, one.steal, one.busy()
        ));
    }
    for (name, xs) in [
        ("setup", &s.setup),
        ("solve, 2 ranks/threads", &s.solve2),
        ("solve, 1 rank/thread", &s.solve1),
    ] {
        out.note_samples(&format!("busy {name}"), "s", &busy(xs));
        out.note_samples(&format!("wall {name}"), "s", &wall(xs));
        let steal: f64 = xs.iter().map(Span::steal_total).sum();
        out.note(format!("host steal during {name}: {steal:.2} s in total"));
    }
}

/// Steal time of each vCPU so far, in seconds: time the hypervisor gave
/// this machine's vCPUs to other guests (`/proc/stat` `cpuN` lines, 10 ms
/// ticks). The benchmark's hosts are shared; the end-to-end times
/// discount it (see [`Span::busy`]).
pub fn steal_s() -> Vec<f64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .map(|l| {
            l.split_whitespace()
                .nth(8)
                .and_then(|v| v.parse::<f64>().ok())
                .map_or(0.0, |t| t / 100.0)
        })
        .collect()
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (`q` in [0, 1]) of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    (quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75))
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of the highest-level CPU cache as reported by sysfs, in bytes.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Ok(level), Ok(size)) = (
            std::fs::read_to_string(format!("{dir}/level")),
            std::fs::read_to_string(format!("{dir}/size")),
        ) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_cache_size(&size))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// Parse a sysfs cache size such as `32K` or `105M`.
fn parse_cache_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1u64 << 20),
        'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Run-configuration notes common to every workload.
pub fn config_notes(out: &mut Outcome, cfg: &RunConfig, working_set_bytes: u64) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let llc = llc_bytes();
    out.note(format!("config.nproc: {nproc}"));
    match llc {
        Some(b) => out.note(format!("config.llc_bytes: {b}")),
        None => out.note("config.llc_bytes: unknown"),
    }
    out.note(format!(
        "config.working_set_bytes (computed): {working_set_bytes}{}",
        match llc {
            Some(b) if working_set_bytes <= b => " (fits in the LLC: no bandwidth claim)",
            Some(_) => " (exceeds the LLC)",
            None => "",
        }
    ));
    out.note(format!("config.seed: {}", cfg.seed));
    out.note(
        "config.knobs: executor=threads kernels=simd fabric=none faults=none \
              db_cache=512 db_fallback=strict db_refine=0",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quartiles(&xs), (2.0, 3.0, 4.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("32K\n"), Some(32 << 10));
        assert_eq!(parse_cache_size("105M"), Some(105 << 20));
        assert_eq!(parse_cache_size("x"), None);
    }
}
