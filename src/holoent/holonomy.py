"""Holonomy matrices on dark Fock bases and entanglement-maximizing phase search.

The chip's action on the (P+1)-dimensional dark subspace is generated by a
single-parameter rotation of the east/west mode pair; multi-photon inputs see
its bosonic lift, held for every phase at once by `RotationFamily`. The binomial
symmetric power `multimode_lift`, which lifts any 2x2 matrix from a term table
built once per photon count, and the explicit 3x3 form `u3` are its references.
`fock_lift` and `multimode_lift` share one validation pass and one kernel, `_lift`;
they differ only in the last check, unitarity (before the kernel) or overflow (after it).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import entanglement
from .fock import (MAX_DARK_PHOTONS, PureState, _shown, check_array, check_finite, check_integer,
                   check_tolerance, max_sweep_points)

UNITARITY_TOL = 1e-9
# largest photon count multimode_lift accepts: the worst unitarity defect of the lift of a unitary
# stays 10x under UNITARITY_TOL up to here (measured 8.1e-11 at 42, 1.2e-10 at 43, 1.4e-10 at 44)
MAX_LIFT_PHOTONS = 42
# every lift's powers 0..P, sliced per call (read-only); complex, as np.power casts integer exponents anyway
_EXPONENTS = np.broadcast_to(np.arange(MAX_LIFT_PHOTONS + 1, dtype=complex), (MAX_LIFT_PHOTONS + 1,))
DEFAULT_SWEEP_POINTS = 2048


def u3(phi: float) -> np.ndarray:
    """The 3x3 holonomy on the two-photon dark basis {|2,0>, |1,1>, |0,2>}; phi must pass `check_finite`."""
    check_finite("phi", phi)
    c, s = math.cos(phi), math.sin(phi)
    sc = math.sqrt(2.0) * s * c
    return np.array(
        [
            [c * c, -sc, s * s],
            [sc, (c - s) * (c + s), -sc],  # cos 2phi from the one (c, s) pair: 2phi may overflow
            [s * s, sc, c * c],
        ],
        dtype=complex,
    )


def single_mode_rotation(phi) -> np.ndarray:
    """Rotation R(phi) = [[cos, -sin], [sin, cos]] on the single-photon dark basis [(1,0), (0,1)].

    phi is a real scalar or an array (or sequence) of phases; the result has shape
    phi.shape + (2, 2), from one np.cos/np.sin pass, and entry i is R(phi[i]) bit for bit. A
    scalar (a str, or a 0-d value that is neither an ndarray nor iterable) must pass `check_finite`,
    anything else `check_array`, and a complex array raises ValueError.
    """
    # np.ndim runs only on what is not iterable, so no ragged sequence reaches it
    if isinstance(phi, str) or not (isinstance(phi, np.ndarray) or np.iterable(phi)) and np.ndim(phi) == 0:
        check_finite("phi", phi)
    phis = check_array("phi", phi, None)
    if phis.dtype.kind == "c":
        raise ValueError(f"phi must hold real numbers, got dtype {_shown(phis.dtype)}")
    c, s = np.cos(phis), np.sin(phis)
    return np.stack([c, -s, s, c], axis=-1).reshape(phis.shape + (2, 2)).astype(complex)


@functools.lru_cache(maxsize=MAX_LIFT_PHOTONS + 1)
def _lift_terms(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only terms of the p-photon lift: pair-table indices (2, T), weights (T,), entry starts.

    Term a of entry (j, k) is u00^(p-k-a) u10^a * u01^(k-j+a) u11^(j-a), read from the flattened
    pair table [u00^m u10^n, u01^m u11^n], times C(p-k, a) C(k, j-a) sqrt(C(p, k) / C(p, j)), for
    max(0, j-k) <= a <= min(p-k, j). Entries run row-major and none is empty.
    """
    q = p + 1
    terms = [(j, k, a) for j in range(q) for k in range(q) for a in range(max(0, j - k), min(p - k, j) + 1)]
    weights = [math.sqrt(math.comb(p, k) / math.comb(p, j)) * math.comb(p - k, a) * math.comb(k, j - a)
               for j, k, a in terms]
    j, k, a = np.array(terms).T
    index = np.array([(p - k - a) * q + a, q * q + (k - j + a) * q + j - a])
    table = index, np.array(weights), np.flatnonzero(np.diff(j * q + k, prepend=-1))
    return tuple(np.broadcast_to(array, array.shape) for array in table)  # read-only views


def _lift(u, photon_count: int, unitary: bool) -> np.ndarray:
    """The photon_count-photon lift of u: the one validation pass and kernel of both public lifts.

    Checks, in order: u is 2x2; its entries are finite; photon_count is an integer in
    [1, MAX_LIFT_PHOTONS] if `unitary`, else [0, MAX_LIFT_PHOTONS]; last, the unitarity defect
    of the entries is within UNITARITY_TOL, before any array work (`unitary`), or the lift is
    finite, after the kernel (otherwise). A unitary lift cannot overflow: |u_ij| <= sqrt(1 + 1e-9)
    and sum_a C(P-k, a) C(k, j-a) = C(P, j), so |L_jk| <= sqrt(C(P, j) C(P, k)) (1 + 1e-9)^(P/2)
    <= C(42, 21) ~ 5.4e11. The kernel raises the entries to the powers 0..P, forms the pair
    table, gathers its `_lift_terms` with one take, multiplies them in place and sums them with
    np.add.reduceat.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"u must be a 2x2 matrix, got shape {u.shape}")
    scalars = u00, u01, u10, u11 = u.ravel().tolist()
    if not all(map(cmath.isfinite, scalars)):
        raise ValueError("u has non-finite entries")
    check_integer("photon_count", photon_count, 1 if unitary else 0, MAX_LIFT_PHOTONS)
    if unitary:
        check_tolerance("unitarity defect of u", _unitarity_defect(u00, u10, u01, u11), UNITARITY_TOL)
    q = photon_count + 1
    index, weights, starts = _lift_terms(int(photon_count))
    powers = u[..., None] ** _EXPONENTS[:q]  # powers[i, j, n] = u_ij^n
    terms = (powers[0, :, :, None] * powers[1, :, None, :]).take(index)
    product = terms[0]
    product *= terms[1]
    product *= weights
    lifted = np.add.reduceat(product, starts).reshape(q, q)
    if not unitary and not np.isfinite(lifted).all():
        raise ValueError(f"the {photon_count}-photon lift of u overflows")
    return lifted


def multimode_lift(u: np.ndarray, photon_count: int) -> np.ndarray:
    """Lift a 2x2 mode transformation to the `photon_count`-photon sector, on dark_basis order.

    Two modes only (the name is what the benchmark tracer wraps). The input (P-k, k) maps to
    (u00 x + u10 y)^(P-k) (u01 x + u11 y)^k / sqrt((P-k)! k!) on vacuum, with x and y the output
    creation operators. Entry (j, k), the coefficient of x^(P-j) y^j, sums its `_lift_terms`
    with np.add.reduceat; their weights hold sqrt(C(P, k) / C(P, j)), the ratio of Fock norms,
    finite where a float sqrt(n!) would overflow. Any finite 2x2 whose lift stays finite is
    accepted (a leaky chip's facet block is sub-unitary); photon_count is an integer up to
    MAX_LIFT_PHOTONS, the accuracy limit of the expansion. `_lift` checks the shape, the
    finiteness and the photon count, runs the kernel `fock_lift` shares, and checks last that
    the lift did not overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing lift is refused by name instead
        return _lift(u, photon_count, False)


def _unitarity_defect(u00: complex, u10: complex, u01: complex, u11: complex) -> float:
    """max |u u^dag - I| of the 2x2 matrix [[u00, u01], [u10, u11]]: its row norms minus 1 and row overlap."""
    norm0 = u00 * u00.conjugate() + u01 * u01.conjugate()
    norm1 = u10 * u10.conjugate() + u11 * u11.conjugate()
    overlap = u00 * u10.conjugate() + u01 * u11.conjugate()
    # the overlap reads every entry, so it is NaN whenever a norm is; it goes first, as max keeps a NaN
    # only as its first argument. math.hypot gives inf where abs() of a complex with finite parts overflows
    return max(math.hypot(overlap.real, overlap.imag), abs(norm0 - 1.0), abs(norm1 - 1.0))


def fock_lift(u2: np.ndarray, photon_count: int) -> np.ndarray:
    """(P+1)x(P+1) representation of a 2x2 unitary on dark_basis(photon_count).

    `_lift` checks the shape, the finiteness and photon_count in [1, MAX_LIFT_PHOTONS], then,
    before any array work, that the unitarity defect of the four entries is within
    UNITARITY_TOL. It then runs the kernel `multimode_lift` shares, bit for bit, and skips the
    overflow check: within the tolerance no entry of the lift exceeds C(42, 21) ~ 5.4e11.
    """
    return _lift(u2, photon_count, True)


def apply_holonomy(u: np.ndarray, state: PureState) -> PureState:
    """Apply a dark-basis unitary to a dark state (column-vector convention); u passes `check_array`."""
    u = np.asarray(check_array("u", u, (state.basis.dimension,) * 2), dtype=complex)
    return PureState(state.basis, u @ state.amplitudes)


def phi_maximally_entangled() -> float:
    """The phase at which the |1,1> input yields an equal-amplitude superposition."""
    return 0.5 * math.atan(math.sqrt(2.0))


def _phase_max(f, slopes, start: float, period: float, points: int, margin: float) -> tuple[float, float]:
    """The highest maximum of f (taking an array of phases) over [start, start + period).

    f must have period `period`, and slopes(phis) returns its first and second derivatives
    (f', f''). Every peak of f on the grid start + k period/points (the ends are neighbours)
    within `margin` of the grid maximum is a candidate, and all candidates are refined at once
    by a safeguarded Newton iteration on f' (rtsafe, Numerical Recipes 9.4) inside their +-1-step
    brackets: a candidate whose Newton step leaves its bracket, or whose f'' is not negative or
    not finite, bisects on the sign of f' instead. The maxima are reduced into
    [start, start + period), and of those within 1e-12 of each other the lowest phase wins.
    A non-finite value of f, on the grid or at a refined maximum, raises ValueError.
    """
    step = period / points
    grid = start + np.arange(points) * step
    values = f(grid)
    _check_score(values, grid)
    peaks = (values >= np.roll(values, 1)) & (values >= np.roll(values, -1))
    x = start + np.flatnonzero(peaks & (values >= values.max() - margin)) * step
    lo, hi = x - step, x + step
    for _ in range(64):  # bisection alone narrows a 2-step bracket below one ulp within 64 halvings
        slope, curvature = slopes(x)
        lo = np.where(slope > 0.0, x, lo)
        hi = np.where(slope < 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - slope / curvature
        # a step that lands on x itself is accepted: at a converged maximum it is below one ulp
        inside = (-np.inf < curvature) & (curvature < 0.0) & (lo <= newton) & (newton <= hi)
        x, previous = np.where(inside, newton, 0.5 * (lo + hi)), x
        if (np.abs(x - previous) <= 1e-15 * (1.0 + np.abs(x))).all():
            break
    x = start + (x - start) % period
    x = np.where(x < start + period, x, start)  # the sum can round up to the far end
    values = f(x)
    _check_score(values, x)
    refined = sorted(zip(x.tolist(), values.tolist()))
    best_phi, best_val = refined[0]
    for phi, val in refined[1:]:
        if val > best_val + 1e-12:
            best_phi, best_val = phi, val
    return best_phi, best_val


def _check_score(values: np.ndarray, phis: np.ndarray) -> None:
    """Raise ValueError naming the first phase at which the searched score is not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"the phase search's score is not finite at phase {float(phis[bad[0]])!r}")


class RotationFamily:
    """lift(R(phi)) on dark_basis(P) for every phase phi, in spectral form.

    The lift of R(phi) = exp(phi [[0, -1], [1, 0]]) is exp(phi G) with the tridiagonal
    generator G[k+1, k] = -G[k, k+1] = sqrt((P-k)(k+1)). iG is Hermitian with eigenvalues
    m = -P, -P+2, ..., P, so one eigh gives lift(R(phi)) = V diag(e^{-i m phi}) V^dag.
    `check_integer` alone holds photon_count to [1, MAX_DARK_PHOTONS].
    """

    def __init__(self, photon_count: int):
        check_integer("photon_count", photon_count, 1, MAX_DARK_PHOTONS)
        k = np.arange(photon_count)
        off = np.sqrt((photon_count - k) * (k + 1.0))
        self.photon_count = photon_count
        self.charges = np.arange(-photon_count, photon_count + 1, 2)
        self.vectors = np.linalg.eigh(1j * (np.diag(off, -1) - np.diag(off, 1)))[1]

    def phases(self, phis) -> np.ndarray:
        """e^{-i m phi}, shape phis.shape + (P+1,); NaN unless every |phi| * P is within the float range."""
        return np.exp(-1j * np.multiply.outer(phis, self.charges))

    def outputs(self, phis, input_index: int, order: int = 0) -> np.ndarray:
        """Column input_index of the lift at each phase, or its order-th derivative in phi.

        Shape phis.shape + (P+1,); derivative n multiplies each e^{-i m phi} by (-i m)^n.
        """
        check_integer("input_index", input_index, 0, self.photon_count)
        weights = self.vectors[input_index].conj() * (-1j * self.charges) ** order
        return (self.phases(phis) * weights) @ self.vectors.T

    def trace_coefficients(self, block: np.ndarray) -> np.ndarray:
        """c = diag(V^dag B V), so that tr(lift(R(phi))^dag B) = sum_m c_m e^{i m phi}."""
        return np.einsum("km,kl,lm->m", self.vectors.conj(), block, self.vectors)


def entropy_at_phase(phi: float, photon_count: int, input_index: int) -> float:
    """Entanglement entropy (bits) of the chip output for one dark basis input; phi and phi * P must be finite."""
    check_finite("phi", phi)
    family = RotationFamily(photon_count)
    if not math.isfinite(phi * photon_count):
        raise ValueError(f"phi * photon_count must be within the float range, got {phi!r} * {photon_count}")
    amplitudes = family.outputs(phi, input_index)
    return float(entanglement.entropy_bits(np.abs(amplitudes) ** 2))


def max_entropy_over_phase(
    photon_count: int, input_index: int, points: int = DEFAULT_SWEEP_POINTS
) -> tuple[float, float]:
    """Maximize the output entanglement entropy over the phase domain [0, pi).

    `_phase_max` over [0, pi) on `points` grid points, with candidates within 1e-6 of the grid
    maximum and ties to the lowest phase. Its Newton polish uses the closed-form derivatives of
    the populations p = |a|^2 of the output a and its phase derivatives a', a'':
    p' = 2 Re(a* a'), p'' = 2 (|a'|^2 + Re(a* a'')). With `entanglement.entropy_bits`' term
    g(p) = -w(p) p log2 p, w from `entanglement.floor_ramp`, S' = sum g'(p) p' and
    S'' = sum (g''(p) p'^2 + g'(p) p''); populations at or below EIGENVALUE_FLOOR contribute nothing.
    """
    check_integer("photon_count", photon_count, 1, MAX_DARK_PHOTONS)  # before max_sweep_points' arithmetic
    check_integer("points", points, 8, max_sweep_points(photon_count))
    family = RotationFamily(photon_count)

    def entropies(phis):
        return entanglement.entropy_bits(np.abs(family.outputs(phis, input_index)) ** 2)

    def slopes(phis):
        a, a1, a2 = (family.outputs(phis, input_index, order) for order in range(3))
        p = np.abs(a) ** 2
        w, w1 = entanglement.floor_ramp(p)
        p = np.where(w > 0.0, p, 1.0)  # g, g' and g'' are 0 there
        log_p = np.log2(p)
        h1 = -(log_p + 1.0 / math.log(2.0))  # d(-p log2 p)/dp
        g1 = w * h1 - w1 * p * log_p
        g2 = 2.0 * w1 * h1 - w / (p * math.log(2.0))
        p1 = 2.0 * (a.conj() * a1).real
        p2 = 2.0 * (np.abs(a1) ** 2 + (a.conj() * a2).real)
        return (g1 * p1).sum(axis=-1), (g2 * p1**2 + g1 * p2).sum(axis=-1)

    return _phase_max(entropies, slopes, 0.0, math.pi, points, 1e-6)
