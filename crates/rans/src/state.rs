//! Flow state, fluxes, and Jacobians for the six-variable system.
//!
//! Conservative variables per vertex: `[rho, rho*u, rho*v, rho*w, E,
//! rho*nu_t]` — compressible flow plus a passively advected, diffused and
//! sourced turbulence working variable (Spalart-Allmaras style), solved
//! coupled as in NSU3D.

use columbia_linalg::BlockMat;
use columbia_mesh::Vec3;

/// Number of coupled unknowns per vertex (paper: "six degrees of freedom at
/// each grid point").
pub const NVARS: usize = 6;

/// Conservative state vector.
pub type State = [f64; NVARS];

/// Ratio of specific heats.
pub const GAMMA: f64 = 1.4;

/// Turbulence model constants (Spalart-Allmaras).
pub mod sa {
    /// Production coefficient.
    pub const CB1: f64 = 0.1355;
    /// Diffusion coefficient.
    pub const SIGMA: f64 = 2.0 / 3.0;
    /// Second diffusion coefficient.
    pub const CB2: f64 = 0.622;
    /// Kármán constant.
    pub const KAPPA: f64 = 0.41;
    /// Destruction coefficient `cb1/kappa^2 + (1 + cb2)/sigma`.
    pub const CW1: f64 = CB1 / (KAPPA * KAPPA) + (1.0 + CB2) / SIGMA;
    /// Wall-damping constant.
    pub const CV1: f64 = 7.1;
}

/// Static pressure from the conservative state.
#[inline]
pub fn pressure(u: &State) -> f64 {
    let rho = u[0];
    let q2 = (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / rho;
    (GAMMA - 1.0) * (u[4] - 0.5 * q2)
}

/// A state on which the acoustic wavespeed is undefined: nonpositive (or
/// non-finite) `c^2 = GAMMA p / rho`, i.e. vacuum, negative pressure or a
/// NaN-contaminated state. Carries the offending quantities so solver
/// diagnostics can report the actual bad state instead of a symptom.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NonPhysicalState {
    /// Density of the offending state.
    pub rho: f64,
    /// Static pressure of the offending state.
    pub pressure: f64,
    /// The squared wavespeed that failed the `> 0` check.
    pub c2: f64,
}

impl std::fmt::Display for NonPhysicalState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nonphysical state: c^2 = GAMMA p / rho = {:e} (rho = {:e}, p = {:e})",
            self.c2, self.rho, self.pressure
        )
    }
}

impl std::error::Error for NonPhysicalState {}

/// Speed of sound, reporting nonphysical states instead of masking them.
pub fn try_sound_speed(u: &State) -> Result<f64, NonPhysicalState> {
    let p = pressure(u);
    let c2 = GAMMA * p / u[0];
    if c2.is_finite() && c2 > 0.0 {
        Ok(c2.sqrt())
    } else {
        Err(NonPhysicalState {
            rho: u[0],
            pressure: p,
            c2,
        })
    }
}

/// Speed of sound.
///
/// The `1e-300` floor exists so a *release* solver keeps marching on a
/// transiently bad state (the positivity guards in `apply_bcs` repair it
/// within the sweep); in debug builds a nonphysical state trips the
/// assert instead of silently yielding a near-zero wavespeed (and so a
/// near-zero CFL time step). Diagnostics that want the error as a value
/// use [`try_sound_speed`].
#[inline]
pub fn sound_speed(u: &State) -> f64 {
    sound_speed_of(u[0], pressure(u))
}

/// [`sound_speed`] from density and an already-derived pressure.
#[inline]
fn sound_speed_of(rho: f64, p: f64) -> f64 {
    debug_assert!(
        {
            let c2 = GAMMA * p / rho;
            c2.is_finite() && c2 > 0.0
        },
        "nonphysical state in sound_speed: rho = {rho:e}, p = {p:e} (the 1e-300 floor would mask it)",
    );
    (GAMMA * p / rho).max(1e-300).sqrt()
}

/// Velocity vector.
#[inline]
pub fn velocity(u: &State) -> Vec3 {
    Vec3::new(u[1] / u[0], u[2] / u[0], u[3] / u[0])
}

/// Turbulence working variable `nu_t = (rho*nu_t)/rho`.
#[inline]
pub fn nu_tilde(u: &State) -> f64 {
    u[5] / u[0]
}

/// Primitive quantities of one state, derived once per vertex by
/// [`Primitives::of`] and read by every edge that touches the vertex.
/// Each field is the expression the per-edge physics used to re-derive,
/// so a kernel reading a cached copy is bit-identical to one deriving it
/// afresh.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Primitives {
    /// Velocity `(rho u)/rho` ([`velocity`]).
    pub vel: Vec3,
    /// Static pressure ([`pressure`]).
    pub p: f64,
    /// Speed of sound ([`sound_speed`]).
    pub c: f64,
    /// Total enthalpy `(E + p)/rho`.
    pub h: f64,
    /// Turbulence working variable `(rho nu_t)/rho` ([`nu_tilde`]).
    pub nt: f64,
}

impl Primitives {
    /// Derive the primitives of `u`.
    #[inline]
    pub fn of(u: &State) -> Self {
        let p = pressure(u);
        Primitives {
            vel: velocity(u),
            p,
            c: sound_speed_of(u[0], p),
            h: (u[4] + p) / u[0],
            nt: nu_tilde(u),
        }
    }
}

/// Convective flux of state `u` (primitives `w`) through area vector `s`
/// (magnitude = face area).
#[inline]
pub fn flux(u: &State, w: &Primitives, s: Vec3) -> State {
    let un = w.vel.dot(s); // volume flux through the face
    let p = w.p;
    [
        u[0] * un,
        u[1] * un + p * s.x,
        u[2] * un + p * s.y,
        u[3] * un + p * s.z,
        (u[4] + p) * un,
        u[5] * un,
    ]
}

/// Convective spectral radius `|V.S| + c|S|`; `s_norm` is `|S|`, which the
/// edge loops store per edge.
#[inline]
pub fn spectral_radius(w: &Primitives, s: Vec3, s_norm: f64) -> f64 {
    w.vel.dot(s).abs() + w.c * s_norm
}

/// Rusanov (local Lax-Friedrichs) numerical flux from `ul` to `ur` through
/// area vector `s` (oriented l -> r, `|S| = s_norm`). Robust, monotone,
/// and smooth enough to be driven hard by implicit smoothers — the
/// appropriate model operator for a scalability reproduction.
#[inline]
pub fn rusanov(
    ul: &State,
    wl: &Primitives,
    ur: &State,
    wr: &Primitives,
    s: Vec3,
    s_norm: f64,
) -> State {
    let fl = flux(ul, wl, s);
    let fr = flux(ur, wr, s);
    let lam = spectral_radius(wl, s, s_norm).max(spectral_radius(wr, s, s_norm));
    let mut out = [0.0; NVARS];
    for k in 0..NVARS {
        out[k] = 0.5 * (fl[k] + fr[k]) - 0.5 * lam * (ur[k] - ul[k]);
    }
    out
}

/// Analytic Jacobian `dF/dU` of the convective flux through `s`, as a
/// visit of its structurally nonzero entries: `f(r, c, a_rc)` once per
/// entry. [`flux_jacobian`] collects the entries into a block; the
/// implicit-diagonal assembly accumulates them in place.
///
/// Standard compressible-flow Jacobian extended with the passively advected
/// sixth variable (pressure does not depend on `rho*nu_t`). Column 0 of
/// the mass row and the cross terms between energy and turbulence are
/// structurally zero and never visited.
#[inline(always)]
pub(crate) fn flux_jacobian_entries(w: &Primitives, s: Vec3, mut f: impl FnMut(usize, usize, f64)) {
    let vel = w.vel;
    let (vx, vy, vz) = (vel.x, vel.y, vel.z);
    let un = vel.dot(s);
    let q2 = vx * vx + vy * vy + vz * vz;
    let phi = 0.5 * (GAMMA - 1.0) * q2;
    let h = w.h;
    let nt = w.nt;
    let g1 = GAMMA - 1.0;

    // Mass row.
    f(0, 1, s.x);
    f(0, 2, s.y);
    f(0, 3, s.z);
    // Momentum rows.
    let sv = [s.x, s.y, s.z];
    let vv = [vx, vy, vz];
    for i in 0..3 {
        f(1 + i, 0, phi * sv[i] - vv[i] * un);
        for j in 0..3 {
            let mut val = vv[i] * sv[j] - g1 * vv[j] * sv[i];
            if i == j {
                val += un;
            }
            f(1 + i, 1 + j, val);
        }
        f(1 + i, 4, g1 * sv[i]);
    }
    // Energy row.
    f(4, 0, un * (phi - h));
    for j in 0..3 {
        f(4, 1 + j, h * sv[j] - g1 * vv[j] * un);
    }
    f(4, 4, GAMMA * un);
    // Turbulence row: F6 = (rho nu) * un.
    f(5, 0, -nt * un);
    for j in 0..3 {
        f(5, 1 + j, nt * sv[j]);
    }
    f(5, 5, un);
}

/// Analytic Jacobian `dF/dU` of the convective flux through `s` (primitives
/// `w`) as a dense block.
#[inline]
pub fn flux_jacobian(w: &Primitives, s: Vec3) -> BlockMat<NVARS> {
    let mut a = BlockMat::zero();
    flux_jacobian_entries(w, s, |r, c, v| a.set(r, c, v));
    a
}

/// State-taking forms of the edge physics: each derives the primitives
/// afresh and calls the one primitive-taking formula. The tests use them
/// as the per-edge reference the cached kernels must match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::{BlockMat, Primitives, State, Vec3, NVARS};

    /// [`super::flux`] of `u` through `s`.
    pub fn flux(u: &State, s: Vec3) -> State {
        super::flux(u, &Primitives::of(u), s)
    }

    /// [`super::spectral_radius`] of `u` through `s`.
    pub fn spectral_radius(u: &State, s: Vec3) -> f64 {
        super::spectral_radius(&Primitives::of(u), s, s.norm())
    }

    /// [`super::rusanov`] from `ul` to `ur` through `s`.
    pub fn rusanov(ul: &State, ur: &State, s: Vec3) -> State {
        let (wl, wr) = (Primitives::of(ul), Primitives::of(ur));
        super::rusanov(ul, &wl, ur, &wr, s, s.norm())
    }

    /// [`super::flux_jacobian`] of `u` through `s`.
    pub fn flux_jacobian(u: &State, s: Vec3) -> BlockMat<NVARS> {
        super::flux_jacobian(&Primitives::of(u), s)
    }
}

/// Free-stream conservative state for Mach number `mach` at `alpha` radians
/// angle of attack (in the x-y plane) with unit density and unit sound
/// speed, and turbulence variable `nu_t_inf`.
pub fn freestream(mach: f64, alpha: f64, nu_t_inf: f64) -> State {
    let rho = 1.0;
    let p = 1.0 / GAMMA; // c = 1
    let q = mach;
    let (vx, vy, vz) = (q * alpha.cos(), q * alpha.sin(), 0.0);
    let e = p / (GAMMA - 1.0) + 0.5 * rho * q * q;
    [rho, rho * vx, rho * vy, rho * vz, e, rho * nu_t_inf]
}

/// SA wall-damping function `fv1 = chi^3 / (chi^3 + cv1^3)`, `chi = nu_t/nu`.
#[inline]
pub fn fv1(nu_t: f64, nu_laminar: f64) -> f64 {
    let chi = (nu_t / nu_laminar).max(0.0);
    let c3 = chi * chi * chi;
    c3 / (c3 + sa::CV1 * sa::CV1 * sa::CV1)
}

#[cfg(test)]
mod tests {
    use super::reference::{flux, flux_jacobian, rusanov, spectral_radius};
    use super::*;

    fn fs() -> State {
        freestream(0.5, 0.02, 1e-4)
    }

    #[test]
    fn freestream_has_unit_sound_speed() {
        let u = fs();
        assert!((sound_speed(&u) - 1.0).abs() < 1e-12);
        assert!((velocity(&u).norm() - 0.5).abs() < 1e-12);
        assert!((nu_tilde(&u) - 1e-4).abs() < 1e-18);
    }

    #[test]
    fn flux_in_zero_normal_is_zero() {
        let u = fs();
        let f = flux(&u, Vec3::ZERO);
        assert!(f.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn rusanov_is_consistent() {
        // f(u, u, s) == F(u).s (consistency of the numerical flux).
        let u = fs();
        let s = Vec3::new(0.3, -0.2, 0.9);
        let num = rusanov(&u, &u, s);
        let exact = flux(&u, s);
        for k in 0..NVARS {
            assert!((num[k] - exact[k]).abs() < 1e-14, "component {k}");
        }
    }

    #[test]
    fn rusanov_conserves_antisymmetry() {
        // Flux l->r through s equals minus flux r->l through -s.
        let ul = fs();
        let mut ur = fs();
        ur[0] = 1.1;
        ur[4] *= 1.2;
        let s = Vec3::new(0.5, 0.1, -0.3);
        let f1 = rusanov(&ul, &ur, s);
        let f2 = rusanov(&ur, &ul, -s);
        for k in 0..NVARS {
            assert!((f1[k] + f2[k]).abs() < 1e-14, "component {k}");
        }
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let u = {
            let mut u = fs();
            u[3] = 0.1; // non-trivial w
            u
        };
        let s = Vec3::new(0.7, -0.4, 0.2);
        let a = flux_jacobian(&u, s);
        let eps = 1e-7;
        for j in 0..NVARS {
            let mut up = u;
            let mut um = u;
            let h = eps * (1.0 + u[j].abs());
            up[j] += h;
            um[j] -= h;
            let fp = flux(&up, s);
            let fm = flux(&um, s);
            for i in 0..NVARS {
                let fd = (fp[i] - fm[i]) / (2.0 * h);
                let an = a.get(i, j);
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + an.abs()),
                    "dF{i}/dU{j}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn spectral_radius_bounds_jacobian_in_1d() {
        // For the exact Jacobian, the largest eigenvalue magnitude is
        // |un| + c|s|; check the Rusanov lambda dominates a matvec growth.
        let u = fs();
        let s = Vec3::new(1.0, 0.0, 0.0);
        let lam = spectral_radius(&u, s);
        assert!((lam - (0.5 * 0.02f64.cos() + 1.0)).abs() < 1e-10);
    }

    #[test]
    fn fv1_limits() {
        assert!(fv1(0.0, 1e-3) == 0.0);
        assert!(fv1(1.0, 1e-6) > 0.999);
        let mid = fv1(7.1e-3, 1e-3); // chi = cv1 -> 0.5
        assert!((mid - 0.5).abs() < 1e-12);
    }

    #[test]
    fn negative_pressure_is_reported_not_masked() {
        // Kinetic energy exceeding total energy => negative pressure.
        let bad: State = [1.0, 2.0, 0.0, 0.0, 0.5, 0.0];
        assert!(pressure(&bad) < 0.0);
        let err = try_sound_speed(&bad).unwrap_err();
        assert_eq!(err.rho, 1.0);
        assert!(err.pressure < 0.0 && err.c2 < 0.0);
        let msg = err.to_string();
        assert!(msg.contains("nonphysical"), "{msg}");
        // Vacuum density: c^2 becomes non-finite, also reported.
        let vacuum: State = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0];
        assert!(try_sound_speed(&vacuum).is_err());
        // Physical states round-trip through both entry points bit-equal.
        let good = freestream(0.75, 0.05, 1e-4);
        assert_eq!(
            try_sound_speed(&good).unwrap().to_bits(),
            sound_speed(&good).to_bits()
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nonphysical state in sound_speed")]
    fn debug_sound_speed_asserts_on_negative_pressure() {
        let bad: State = [1.0, 2.0, 0.0, 0.0, 0.5, 0.0];
        let _ = sound_speed(&bad);
    }

    columbia_rt::props! {
        /// Pressure positivity is preserved by the freestream constructor
        /// and pressure() inverts the energy relation.
        fn prop_freestream_roundtrip(m in 0.05f64..0.95, al in -0.3f64..0.3) {
            let u = freestream(m, al, 1e-4);
            assert!(pressure(&u) > 0.0);
            assert!((pressure(&u) - 1.0 / GAMMA).abs() < 1e-12);
            assert!((velocity(&u).norm() - m).abs() < 1e-12);
        }

        /// Jacobian is exactly the derivative of a *homogeneous* function:
        /// for Euler (rows 0..5), F(U) = A(U) U (flux homogeneity of degree
        /// one in U).
        fn prop_flux_homogeneity(m in 0.1f64..0.9, sx in -1.0f64..1.0, sy in -1.0f64..1.0) {
            let u = freestream(m, 0.1, 1e-4);
            let s = Vec3::new(sx, sy, 0.4);
            let a = flux_jacobian(&u, s);
            let au = a.mul_vec(&u);
            let f = flux(&u, s);
            for k in 0..NVARS {
                assert!((au[k] - f[k]).abs() < 1e-12 * (1.0 + f[k].abs()), "component {}", k);
            }
        }
    }
}
