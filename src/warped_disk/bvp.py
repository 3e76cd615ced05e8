"""Biharmonic Dirichlet problem on a geodesic disk.

Boundary traces of u and of its Laplacian on the circle r = R determine
a biharmonic function on the disk through the per-mode expansion

    u = sum_m (c_m phi_m(r) + d_m psi_m(r)) e^{i m theta},

whose coefficients solve the triangular system

    c_m phi_m(R) + d_m psi_m(R) = alpha_m,
    d_m phi_m(R)                = beta_m,

with (alpha_m, beta_m) the Fourier coefficients of the traces. Since
psi_m = z phi_m, the solve reduces to d_m = beta_m e^{-Lambda_m(R)} and
c_m = (alpha_m - beta_m z(R)) e^{-Lambda_m(R)}, which stays well scaled
even when phi_m(R) itself overflows.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._util import write_csv
from .errors import AliasingWarning, DomainError
from .geometry import MetricProfile, RadialGrid
from .modes import DEFAULT_ATOL, DEFAULT_RTOL, mode_pass, profile_residual
from .operators import sample_derivatives  # noqa: F401 -- patched by benchmarks/tracing.py
from .operators import separated_laplacian

__all__ = [
    "BoundaryTrace",
    "FourierSpectrum",
    "ModeCoefficients",
    "DiskResidualReport",
    "analyze_trace",
    "synthesize_trace",
    "solve_disk_biharmonic",
    "evaluate_solution",
    "verify_disk_solution",
    "read_trace_csv",
    "write_trace_csv",
    "write_coefficients_csv",
]

ALIASING_ENERGY_FRACTION = 1e-8
_LOG_FORM_THRESHOLD = 500.0   # switch coefficients to log-magnitude form


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class BoundaryTrace:
    """Samples of u and Delta u on the boundary circle of radius R.

    Angles are the N equispaced nodes theta_j = 2 pi j / N with N a
    power of two. Every sample must be finite.
    """

    radius: float
    u_values: np.ndarray
    lap_u_values: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u_values)
        lap = np.asarray(self.lap_u_values)
        if u.ndim != 1 or u.shape != lap.shape:
            raise DomainError("trace arrays must be 1-d and of equal length")
        if not _is_power_of_two(u.size):
            raise DomainError("trace length must be a power of two")
        if self.radius <= 0.0:
            raise DomainError("disk radius must be positive")
        u = u.astype(complex) if np.iscomplexobj(u) else u.astype(float)
        lap = lap.astype(complex) if np.iscomplexobj(lap) else lap.astype(float)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(lap))):
            raise DomainError("trace samples must be finite")
        for arr in (u, lap):
            arr.flags.writeable = False
        object.__setattr__(self, "u_values", u)
        object.__setattr__(self, "lap_u_values", lap)

    @property
    def n_samples(self) -> int:
        return self.u_values.size

    @property
    def theta_nodes(self) -> np.ndarray:
        n = self.n_samples
        return 2.0 * math.pi * np.arange(n) / n


@dataclass(frozen=True)
class FourierSpectrum:
    """Boundary Fourier coefficients (alpha_m, beta_m) for |m| <= m_max.

    Entry i of ``alpha`` and ``beta`` holds m = i - m_max (see
    ``m_values``), the layout ``ModeCoefficients`` shares.
    ``truncation_energy`` is the fraction of sample energy in the DFT
    bins that are not kept (u trace, Delta u trace), so Parseval reads
    sum |alpha_m|^2 = (1 - truncation_energy[0]) * mean |u_j|^2, and the
    same for beta with the Delta u samples and truncation_energy[1].

    The Nyquist bin m = N/2 is never kept. For a real trace the sampled
    cos(N/2 theta) is (-1)^j, with sample energy 1 against the continuous
    energy 1/2 of the cosine: kept at +N/2 alone it would break the
    conjugate symmetry behind ``real_valued``, and split evenly between
    +N/2 and -N/2 it would break Parseval.
    """

    m_max: int
    alpha: np.ndarray
    beta: np.ndarray
    truncation_energy: tuple[float, float]
    real_valued: bool

    def __post_init__(self):
        size = 2 * self.m_max + 1
        alpha = np.asarray(self.alpha, dtype=complex)
        beta = np.asarray(self.beta, dtype=complex)
        if alpha.shape != (size,) or beta.shape != (size,):
            raise DomainError("spectrum arrays must cover m = -m_max .. m_max")
        for arr in (alpha, beta):
            arr.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def index(self, m: int) -> int:
        if abs(m) > self.m_max:
            raise DomainError(f"|m| <= {self.m_max} required")
        return m + self.m_max

    def pair(self, m: int) -> tuple[complex, complex]:
        i = self.index(m)
        return complex(self.alpha[i]), complex(self.beta[i])

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(-self.m_max, self.m_max + 1)


def analyze_trace(trace: BoundaryTrace, m_max: int) -> FourierSpectrum:
    """Discrete Fourier analysis of both boundary sample arrays.

    alpha_m = (1/N) sum_j u_j exp(-i m theta_j) for |m| <= m_max, and
    beta_m likewise from the Delta u samples. Requires N >= 2 m_max + 2,
    so the kept bins are distinct and none is the Nyquist bin N/2: a trace
    band-limited to |m| <= m_max is recovered exactly. It does not make
    the kept bins alias-free: a frequency above N/2 that folds onto a kept
    bin cannot be told apart from it in the samples.

    Parseval holds as sum |alpha_m|^2 = (1 - truncation_energy[0]) *
    mean |u_j|^2, and the same for beta. At N = 2 m_max + 2 the Nyquist
    bin is the only bin beyond m_max, so a trace that is not band-limited
    reports its energy there in truncation_energy. Issues an
    AliasingWarning when more than 1e-8 of either trace's energy lies
    beyond m_max.
    """
    n = trace.n_samples
    m_max = int(m_max)
    if m_max < 0:
        raise DomainError("m_max must be nonnegative")
    if n < 2 * m_max + 2:
        raise DomainError(f"need at least {2 * m_max + 2} samples for m_max = {m_max}")

    bins = np.arange(-m_max, m_max + 1) % n

    def coefficients(values):
        spec = np.fft.fft(values) / n
        total = float(np.sum(np.abs(spec) ** 2))
        kept = spec[bins]
        kept_energy = float(np.sum(np.abs(kept) ** 2))
        excess = max(total - kept_energy, 0.0) / total if total > 0.0 else 0.0
        return kept, excess

    alpha, eu = coefficients(trace.u_values)
    beta, el = coefficients(trace.lap_u_values)
    if max(eu, el) > ALIASING_ENERGY_FRACTION:
        warnings.warn(
            f"trace energy beyond m_max={m_max}: u {eu:.3g}, lap {el:.3g}",
            AliasingWarning,
            stacklevel=2,
        )
    real_valued = not (np.iscomplexobj(trace.u_values) or np.iscomplexobj(trace.lap_u_values))
    return FourierSpectrum(
        m_max=m_max,
        alpha=alpha,
        beta=beta,
        truncation_energy=(eu, el),
        real_valued=real_valued,
    )


def synthesize_trace(spectrum: FourierSpectrum, radius: float, n: int) -> BoundaryTrace:
    """Evaluate the spectrum back onto n equispaced boundary angles."""
    if not _is_power_of_two(n) or n < 2 * spectrum.m_max + 2:
        raise DomainError("n must be a power of two with n >= 2 m_max + 2")
    bins = spectrum.m_values % n
    full_a = np.zeros(n, dtype=complex)
    full_b = np.zeros(n, dtype=complex)
    full_a[bins] = spectrum.alpha
    full_b[bins] = spectrum.beta
    u = np.fft.ifft(full_a) * n
    lap = np.fft.ifft(full_b) * n
    if spectrum.real_valued:
        u = u.real
        lap = lap.real
    return BoundaryTrace(radius=radius, u_values=u, lap_u_values=lap)


# ----------------------------------------------------------------------
# the solve
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModeCoefficients:
    """Expansion coefficients (c_m, d_m) for |m| <= spectrum.m_max.

    Every array has the spectrum's layout: entry i holds m = i - m_max
    (``spectrum.m_values``). When Lambda_m(R) exceeds the log-form
    threshold, exp(-Lambda) is not representable and the plain
    coefficient underflows to zero; such entries are flagged in
    ``underflow``. ``conditioning`` holds psi_m(R)/phi_m(R) = z(R),
    which depends on |m| only.

    The radial factors come from one dense mode pass over |m| = 0 .. m_max
    on (t0, R], which evaluation and verification read directly;
    verification also reads the profile rows that pass integrated.
    """

    radius: float
    c: np.ndarray
    d: np.ndarray
    underflow: np.ndarray
    conditioning: np.ndarray
    spectrum: FourierSpectrum
    _modes: object = field(repr=False)   # the shared mode pass

    def pair(self, m: int) -> tuple[complex, complex]:
        i = self.spectrum.index(m)
        return complex(self.c[i]), complex(self.d[i])


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp elementwise: numpy's vector exp differs from it in the last bit for
    about 5% of arguments, and the coefficients and boundary errors keep math.exp's."""
    return np.array(list(map(math.exp, x.tolist())))


def solve_disk_biharmonic(
    profile: MetricProfile,
    radius: float,
    spectrum: FourierSpectrum,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> ModeCoefficients:
    """Solve the boundary coefficient system on the disk of given radius.

    d_m = beta_m e^{-Lambda_m(R)} and c_m = (alpha_m - beta_m z(R))
    e^{-Lambda_m(R)}; both are formed from Lambda rather than phi_m, so
    huge phi_m(R) only shows up as a large subtracted exponent.
    Coefficient underflow is flagged, never silent.
    """
    radius = profile.require_radius(radius)
    mp = mode_pass(profile, range(spectrum.m_max + 1), radius, rtol=rtol, atol=atol)
    am = np.abs(spectrum.m_values)
    lam_r, z_r = (arr[am] for arr in mp.lam_z(radius))
    alpha, beta = spectrum.alpha, spectrum.beta
    c_resid = alpha - beta * z_r
    # beyond the threshold exp(-Lambda) underflows; keep the representable parts
    scale = np.where(lam_r <= _LOG_FORM_THRESHOLD, _exp(-lam_r), 0.0)
    c = c_resid * scale
    d = beta * scale
    return ModeCoefficients(
        radius=radius,
        c=c,
        d=d,
        underflow=((beta != 0) & (d == 0)) | ((c_resid != 0) & (c == 0)),
        conditioning=z_r,
        spectrum=spectrum,
        _modes=mp,
    )


def evaluate_solution(
    profile: MetricProfile, coeffs: ModeCoefficients, r: float, theta: float
):
    """Partial-sum value of the disk solution at one point (r, theta), r <= R.

    Takes scalars and returns a float for a real-valued spectrum, a
    complex otherwise. Radial factors are read from the dense mode pass,
    one read for all m. Below the pass's start t0 they follow its origin
    seed, Lambda_m(t0) + |m| log(r/t0) and z(t0) (r/t0)^2. At r = 0 only
    m = 0 contributes, with phi_0(0) = 1 and z(0) = 0. Requests beyond
    the disk, and a non-finite r or theta, are refused.
    """
    r = float(r)
    if not (math.isfinite(r) and math.isfinite(theta)):
        raise DomainError("evaluation needs a finite point (r, theta)")
    if r > coeffs.radius * (1.0 + 1e-12):
        raise DomainError("evaluation outside the disk is extrapolation; refused")
    r = min(r, coeffs.radius)
    if r < 0.0:
        raise DomainError("radius must be nonnegative")
    m = coeffs.spectrum.m_values
    if r == 0.0:
        lam, z = np.where(m == 0, 0.0, -np.inf), 0.0
    else:
        mp = coeffs._modes
        t = max(r, mp.t0)
        lam, z = mp.lam_z(t)
        if r < t:
            lam = lam + np.array(mp.ms) * math.log(r / t)
            z = z * (r / t) ** 2
        lam, z = lam[np.abs(m)], z[np.abs(m)]
    radial = (coeffs.c + coeffs.d * z) * np.exp(np.minimum(lam, 700.0))
    total = radial @ np.exp(1j * theta * m)
    if coeffs.spectrum.real_valued:
        return float(total.real)
    return complex(total)


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DiskResidualReport:
    """Interior residuals over all modes and boundary reproduction errors.

    ``interior_max``/``interior_rms`` cover the scaled per-mode residual
    |L_m F_m - d_m phi_m| / max over the grid of (1, |F_m|), where
    F_m = c_m phi_m + d_m psi_m. Boundary errors are sup-norm bounds
    from the coefficient mismatch at r = R. ``profile`` is
    max |v' + v^2 + K| / max(1, v^2, |K|) over the interior nodes for the
    profile rows v = phi'/phi the residuals were computed with.
    """

    interior_max: float
    interior_rms: float
    boundary_u_error: float
    boundary_lap_error: float
    profile: float


def verify_disk_solution(
    profile: MetricProfile, coeffs: ModeCoefficients, grid: RadialGrid
) -> DiskResidualReport:
    """Apply the radial stencils to every mode at once and re-check the boundary.

    L_m is applied with the profile rows of the solve's own dense pass
    (``profile_rows``), phi formed as r exp(log(phi/r)); no profile
    evaluator is read. Those rows are checked against ``profile.k`` at
    the grid nodes as ``verify_mode_residuals`` checks a mode's, so a
    solution checked against another surface's K fails that check. The
    grid must start at or beyond the pass's start t0.
    """
    x = grid.nodes
    if x[0] <= 0.0:
        raise DomainError("verification grid must stay inside (0, R]")
    if x[-1] > coeffs.radius * (1.0 + 1e-12):
        raise DomainError("verification grid extends beyond the disk")
    spectrum = coeffs.spectrum
    mp = coeffs._modes
    log_phi, v = mp.profile_rows(x)
    with np.errstate(over="ignore"):  # separated_laplacian maps phi = inf to its limit
        phi = x * np.exp(log_phi - np.log(x))
    m = spectrum.m_values
    am = np.abs(m)
    lam, z = (arr[am] for arr in mp.lam_z(x))
    phim = np.exp(np.minimum(lam, 700.0))
    d = coeffs.d[:, None]
    f = (coeffs.c[:, None] + d * z) * phim    # row i holds F_m for m = m[i]
    res = (separated_laplacian(m, x, f.real, v, phi=phi) - d.real * phim
           + 1j * (separated_laplacian(m, x, f.imag, v, phi=phi) - d.imag * phim))
    scaled = np.abs(res[:, 1:-1]) / np.maximum(1.0, np.max(np.abs(f), axis=1))[:, None]

    lam_r, z_r = (arr[am] for arr in mp.lam_z(coeffs.radius))
    phim = _exp(np.minimum(lam_r, 700.0))
    u_err = (coeffs.c + coeffs.d * z_r) * phim - spectrum.alpha
    lap_err = coeffs.d * phim - spectrum.beta
    # np.hypot rounds as abs() of a complex scalar does (np.abs of a complex
    # array does not), and cumsum adds the modes in order
    bu, bl = (float(np.cumsum(np.hypot(e.real, e.imag))[-1]) for e in (u_err, lap_err))
    return DiskResidualReport(
        interior_max=float(np.max(scaled)),
        interior_rms=math.sqrt(float(np.cumsum(np.sum(scaled**2, axis=1))[-1]) / scaled.size),
        boundary_u_error=bu,
        boundary_lap_error=bl,
        profile=profile_residual(profile, x, v),
    )


# ----------------------------------------------------------------------
# CSV interfaces
# ----------------------------------------------------------------------

def read_trace_csv(path, radius: float) -> BoundaryTrace:
    """Read a trace file with columns theta, u, lap_u.

    Angles must be the equispaced grid 2 pi j / N in order. A row that
    does not start with three finite numbers is refused with its line number.
    """
    thetas = []
    u = []
    lap = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["theta", "u", "lap_u"]:
            raise DomainError(f"{path}: expected header theta,u,lap_u")
        for row in reader:
            if not row:
                continue
            try:
                theta_j, u_j, lap_j = map(float, row[:3])
            except ValueError:
                raise DomainError(f"{path}, line {reader.line_num}: expected three numbers "
                                  f"theta,u,lap_u, got {row!r}") from None
            if not all(map(math.isfinite, (theta_j, u_j, lap_j))):
                raise DomainError(f"{path}, line {reader.line_num}: non-finite sample in {row!r}")
            thetas.append(theta_j)
            u.append(u_j)
            lap.append(lap_j)
    n = len(thetas)
    if not _is_power_of_two(n):
        raise DomainError(f"{path}: trace length {n} is not a power of two")
    expected = 2.0 * math.pi * np.arange(n) / n
    if not np.allclose(np.asarray(thetas), expected, atol=1e-9 * 2 * math.pi):
        raise DomainError(f"{path}: angles are not the equispaced grid 2*pi*j/N")
    return BoundaryTrace(radius=radius, u_values=np.asarray(u), lap_u_values=np.asarray(lap))


def write_trace_csv(path, trace: BoundaryTrace) -> None:
    write_csv(path, ["theta", "u", "lap_u"],
              [trace.theta_nodes, np.real(trace.u_values), np.real(trace.lap_u_values)])


def write_coefficients_csv(path, coeffs: ModeCoefficients) -> None:
    """Coefficient output: m, re_c, im_c, re_d, im_d."""
    c, d = coeffs.c, coeffs.d
    write_csv(path, ["m", "re_c", "im_c", "re_d", "im_d"],
              [coeffs.spectrum.m_values, c.real, c.imag, d.real, d.imag])
