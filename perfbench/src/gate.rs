//! Correctness gates. Each returns `Err` with a reason the run report
//! prints; a failed gate counts against `failed` and makes the run exit
//! non-zero.

use columbia_core::{AeroDatabase, CaseStatus, DatabaseEntry, LookupError, Query, Response};
use columbia_mg::ConvergenceHistory;

/// Relative tolerance of the repository's parallel-vs-serial multigrid
/// history test, applied here between the 2-rank and 1-rank solves.
pub const HISTORY_RTOL: f64 = 1e-6;

/// The residual history is finite and the solve reduced the residual by at
/// least `floor` orders of magnitude.
pub fn history(what: &str, h: &ConvergenceHistory, floor: f64) -> Result<(), String> {
    if h.residuals.is_empty() || h.residuals.iter().any(|r| !r.is_finite()) {
        return Err(format!("{what}: non-finite or empty residual history"));
    }
    let orders = h.orders_reduced();
    let enough = orders >= floor;
    if !enough {
        return Err(format!(
            "{what}: {orders:.4} orders reduced, below the floor {floor}"
        ));
    }
    Ok(())
}

/// Two histories of the same solve on different rank counts agree cycle
/// by cycle within [`HISTORY_RTOL`].
pub fn histories_agree(a: &ConvergenceHistory, b: &ConvergenceHistory) -> Result<(), String> {
    if a.residuals.len() != b.residuals.len() {
        return Err(format!(
            "history lengths differ: {} vs {}",
            a.residuals.len(),
            b.residuals.len()
        ));
    }
    for (i, (x, y)) in a.residuals.iter().zip(&b.residuals).enumerate() {
        let close = (x - y).abs() <= HISTORY_RTOL * (1.0 + x.abs());
        if !close {
            return Err(format!("cycle {i}: 2-rank residual {x} vs 1-rank {y}"));
        }
    }
    Ok(())
}

/// The RK smoothing residual is finite and fell over the solve.
pub fn residual_falls(what: &str, before: f64, after: f64) -> Result<(), String> {
    if !(before.is_finite() && after.is_finite() && after < before) {
        return Err(format!(
            "{what}: residual did not fall ({before:e} -> {after:e})"
        ));
    }
    Ok(())
}

/// No case of the fill was quarantined and the strict table constructor
/// accepts the entries.
pub fn fill(entries: &[DatabaseEntry]) -> Result<AeroDatabase, String> {
    if let Some(e) = entries
        .iter()
        .find(|e| matches!(e.status, CaseStatus::Quarantined { .. }))
    {
        return Err(format!(
            "fill case (defl {}, mach {}, alpha {}) quarantined: {:?}",
            e.deflection, e.mach, e.alpha, e.status
        ));
    }
    AeroDatabase::from_entries(entries).map_err(|e| format!("from_entries refused the fill: {e:?}"))
}

/// Every served answer is a strict (non-degraded) answer whose loads are
/// bit-equal to a direct table lookup of the same query.
pub fn served(
    db: &AeroDatabase,
    queries: &[Query],
    responses: &[Result<Response, LookupError>],
) -> Result<(), String> {
    if queries.len() != responses.len() {
        return Err(format!(
            "{} responses for {} queries",
            responses.len(),
            queries.len()
        ));
    }
    for (i, (q, r)) in queries.iter().zip(responses).enumerate() {
        let resp = match r {
            Ok(resp) if !resp.degraded => resp,
            Ok(_) => return Err(format!("query {i}: degraded answer")),
            Err(e) => return Err(format!("query {i}: server error {e:?}")),
        };
        let (f, m) = db.lookup(q.deflection, q.mach, q.alpha);
        let bits = |v: columbia_mesh::Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        if bits(resp.force) != bits(f) || bits(resp.moment) != bits(m) {
            return Err(format!(
                "query {i}: served loads differ from a direct lookup"
            ));
        }
    }
    Ok(())
}

/// Relative tolerance between a fill's loads and a replay of its cases.
/// The Euler multigrid coarse levels order some boundary faces by
/// hash-map iteration, so a case's loads vary in their last bits between
/// runs of the same program; 1e-9 is far above that and far below any
/// real change.
pub const LOADS_RTOL: f64 = 1e-9;

/// Two runs of the same fill cases produced the same loads, case by case,
/// within [`LOADS_RTOL`].
pub fn loads_agree(a: &[[f64; 6]], b: &[[f64; 6]]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} fill cases vs {} replayed", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let scale = 1.0 + x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let close = x
            .iter()
            .zip(y)
            .all(|(p, q)| (p - q).abs() <= LOADS_RTOL * scale);
        if !close {
            return Err(format!("fill case {i}: replayed loads {y:?} vs fill {x:?}"));
        }
    }
    Ok(())
}

/// Two digests of what must be the same bits agree.
pub fn same_digest(what: &str, a: u64, b: u64) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: digest {a:016x} != {b:016x}"))
    }
}
