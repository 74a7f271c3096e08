"""Phase reconstruction of generalized Loschmidt amplitudes.

The amplitude G(t) = <psi'| exp(-iHt) |psi> is treated as a function of
complex time z = t - i*beta.  Where G is nonzero, ln G is holomorphic and
the Cauchy-Riemann equations give

    d(phi)/dt = d(ln r)/d(beta),      G = r * exp(i*phi),

so the *phase derivative* is accessible from *magnitude* measurements at
complex times.  The pipeline per grid point t_k:

1. measure p_+(t_k) and p_-(t_k), the survival probabilities of the circuits
   that apply the rescaled imaginary-time step exp(+-hH) ~= c_+- V_+- before
   the real-time evolution; then r(t_k +- ih)^2 = p_+-(t_k) * c_+-^2,
2. estimate d(phi)/dt by the mid-point formula
   [ln r(t-ih) - ln r(t+ih)] / (2h),
3. integrate the estimates over the uniform grid (composite Simpson by
   default) starting from an anchored phase,
4. optionally detect near-zeros of r(t) and repair the phase jumps the
   integration picks up there (``reconstruct_trace`` resolves the
   detection and order-selection thresholds, and passes them on),
5. assemble G = r * exp(i*phi).

``reconstruct_trace`` is the purely classical part (it consumes measured
probability series and works equally for external data); dispatching the
simulation backends that produce those series is ``run_phase_experiment``.
Both Trotter backends run their circuits through one runner,
``statevector.circuit_survivals``: the noisy trajectories run the forward
step U with their Paulis as ops between its layers, and a noiseless run
evolves the bra once under the adjoint step, since
<psi'|U^k x> = <(U^dagger)^k psi'|x>.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .config import _count, _positive
from .exceptions import ConfigError, NumericsError
from .ite import apply_ite  # noqa: F401  (perfbench/tracer.py patches it here)
from .ite import build_ite_plan_general, build_ite_plan_tfim
from .model import amplitude_series
from .noise import mitigate_rescale, sample_shots, trajectory_survivals
from .statevector import circuit_survivals, inner_product
from .trotter import build_plan
from .trotter import evolve  # noqa: F401  (perfbench/tracer.py patches it here)

_P_FLOOR = 1e-30
#: below this |<psi'|psi>| (or the oracle's |G|) an anchor angle is rounding noise
ANCHOR_FLOOR = 1e-12


@dataclass
class PhaseTrace:
    """Per-time-step record of the reconstruction.

    ``p_plus``/``p_minus`` are the measured (possibly sampled and mitigated)
    probabilities; ``r`` is the real-time magnitude; ``g_complex`` is
    ``r * exp(i*phi)`` so its magnitude is the ``r`` channel by construction.
    The noisy backend additionally fills the ``*_raw`` fields (pre-
    mitigation) and ``clamped`` flags.  ``floored`` lists the indices where
    p+ or p- was not positive and was raised to ``_P_FLOOR``; ``crossings``
    and ``correction_phases`` record the repaired near-zeros, and
    ``skipped_crossings`` those left unrepaired because a derivative
    stencil would leave the series.  The trace keeps results only: the
    anchor is ``phi[0]``, and h, shots and the thresholds stay with the
    caller that passed them.
    """

    times: np.ndarray
    r: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    dphi_dt: np.ndarray
    phi: np.ndarray
    g_complex: np.ndarray
    crossings: list[int] = field(default_factory=list)
    correction_phases: list[float] = field(default_factory=list)
    skipped_crossings: list[int] = field(default_factory=list)
    floored: list[int] = field(default_factory=list)
    r_squared_raw: np.ndarray | None = None
    p_plus_raw: np.ndarray | None = None
    p_minus_raw: np.ndarray | None = None
    p_plus_mitigated: np.ndarray | None = None
    p_minus_mitigated: np.ndarray | None = None
    clamped: np.ndarray | None = None

    def __len__(self):
        return len(self.times)

    @property
    def health(self) -> dict:
        """The trace's numerical health, as runinfo.json records it for
        every command that runs a trace: the ``floored`` points, the
        repaired ``crossings`` with their ``correction_phases`` and the
        ``skipped_crossings``."""
        keys = ("floored", "crossings", "correction_phases", "skipped_crossings")
        return {key: getattr(self, key) for key in keys}


def integrate_phase(derivatives, tau: float, rule: str = "simpson", anchor: float = 0.0):
    """Cumulative integral of uniformly spaced derivative samples.

    "simpson" applies the composite rule on even-interval prefixes and
    closes a trailing odd interval with a trapezoid; "trapezoid" is the
    plain composite rule.  The first entry equals ``anchor`` exactly.
    ``tau`` must be a finite positive number (config's ``_positive``).
    """
    d = np.asarray(derivatives, dtype=float)
    if d.ndim != 1 or len(d) < 2:
        raise ValueError("need at least 2 derivative samples")
    if not _positive(tau):
        raise ValueError("tau must be positive")
    if rule not in ("simpson", "trapezoid"):
        raise ValueError(f"unknown integration rule {rule!r}")
    phi = np.empty_like(d)
    phi[0] = anchor
    if rule == "trapezoid":
        phi[1:] = anchor + np.cumsum(tau * (d[1:] + d[:-1]) / 2.0)
        return phi
    # even entries: running Simpson panels; odd entries: one trapezoid on
    # from their even neighbour
    panels = tau / 3.0 * (d[:-2:2] + 4.0 * d[1:-1:2] + d[2::2])
    phi[::2] = np.add.accumulate(np.concatenate(([anchor], panels)))
    phi[1::2] = phi[:-1:2] + tau / 2.0 * (d[:-1:2] + d[1::2])
    return phi


def detect_zeros(trace: PhaseTrace, threshold: float = 1e-3) -> list[int]:
    """Indices where the real-time magnitude dips below ``threshold`` at a
    local minimum (one index per below-threshold run).  ``reconstruct_trace``
    resolves the threshold of a reconstruction, shots included; it must be
    a finite positive number (config's ``_positive``).
    """
    if not _positive(threshold):
        raise ValueError("threshold must be positive")
    r = trace.r
    # runs [start, end) of below-threshold points, from the padded mask's edges
    edges = np.flatnonzero(np.diff(np.concatenate(([False], r < threshold, [False]))))
    crossings = []
    for start, end in zip(edges[::2], edges[1::2]):
        dip = int(start + np.argmin(r[start:end]))
        # a crossing is an interior local minimum; the argmin of a run
        # that just decays into the series boundary is not one
        if 0 < dip < len(r) - 1 and r[dip] <= r[dip - 1] and r[dip] <= r[dip + 1]:
            crossings.append(dip)
    return crossings


def _one_sided_derivative(
    g: np.ndarray, tau: float, order: int, k: int, side: int, omega: float
):
    """Finite-difference derivative of given order anchored at a crossing
    index k, taken just before (side=-1) or just after (side=+1) it.

    The stencil points are de-rotated by the locally measured phase velocity
    ``omega`` first (g -> g * exp(-i omega (t - t_k))): the plain ratio of
    one-sided derivatives picks up a bias equal to the smooth phase advance
    across the stencil gap, which is order one when omega*tau is, as it is
    on coarse grids.  De-rotation removes that bias and reduces to the plain
    stencil when omega*tau -> 0.  Returns None when the stencil leaves the
    series.
    """
    pts = [k + side * j for j in range(order + 1)]
    if min(pts) < 0 or max(pts) >= len(g):
        return None
    vals = [g[p] * np.exp(-1j * omega * (p - k) * tau) for p in pts]
    if order == 1:
        return side * (vals[1] - vals[0]) / tau
    # order == 2, symmetric stencil weights
    return (vals[0] - 2.0 * vals[1] + vals[2]) / tau**2


def correct_phase_jumps(trace: PhaseTrace, crossings, derivative_threshold: float = 1e-3) -> PhaseTrace:
    """Repair the phase branch after each near-zero of r(t).

    Crossing a zero of order n0, the true amplitude changes sign like
    (t - t0)^{n0} while the mid-point magnitude estimator is blind to it, so
    the integrated phase misses n0*pi plus a discretization shift delta.
    Both are recovered at once from the ratio of one-sided n0-th derivatives
    of the reconstructed amplitude evaluated at the closest grid points on
    either side of the crossing: the post-crossing branch is multiplied by
    the conjugate phase of that ratio, which equals (-1)^{n0} e^{-i delta}.
    The stencils are de-rotated by the phase velocity measured two grid
    points away from the crossing (where the derivative data is clean), see
    :func:`_one_sided_derivative`.

    n0 defaults to 1; n0 = 2 is selected when both one-sided first
    derivatives fall below ``derivative_threshold`` (``reconstruct_trace``
    resolves it next to the detection threshold).  Higher orders raise, and
    so does a ``derivative_threshold`` that config's ``_positive`` refuses
    (nan, infinity and bools included), as in ``detect_zeros``.
    """
    if not _positive(derivative_threshold):
        raise ValueError("derivative_threshold must be positive")
    if len(crossings) == 0:
        return trace
    tau = float(trace.times[1] - trace.times[0]) if len(trace) > 1 else 0.0
    g = trace.g_complex.copy()
    phi = trace.phi.copy()
    dphi = trace.dphi_dt
    applied: list[float] = []
    kept: list[int] = []
    skipped: list[int] = []
    for k in sorted(crossings):
        omega_l = float(dphi[max(k - 2, 0)])
        omega_r = float(dphi[min(k + 2, len(g) - 1)])
        for n0 in (1, 2):
            d_minus = _one_sided_derivative(g, tau, n0, k, -1, omega_l)
            d_plus = _one_sided_derivative(g, tau, n0, k, +1, omega_r)
            # a stencil past the boundary, or one derivative at or above the
            # threshold, settles the order
            if d_minus is None or d_plus is None or not (
                abs(d_minus) < derivative_threshold and abs(d_plus) < derivative_threshold
            ):
                break
        else:
            raise NumericsError(f"zero of order > 2 at index {k}: correction unsupported")
        if d_minus is None or d_plus is None:
            warnings.warn(f"skipping zero crossing at boundary index {k}", stacklevel=2)
            skipped.append(int(k))
            continue
        if d_minus == 0:
            raise NumericsError(f"vanishing pre-crossing derivative at index {k}")
        ratio = d_plus / d_minus
        shift = -np.angle(ratio)
        g[k + 1 :] *= np.exp(1j * shift)
        phi[k + 1 :] += shift
        applied.append(float(shift))
        kept.append(int(k))
    return replace(
        trace, phi=phi, g_complex=g, crossings=kept, correction_phases=applied,
        skipped_crossings=skipped,
    )


def reconstruct_trace(
    times,
    r,
    p_plus,
    p_minus,
    log_c_plus: float,
    log_c_minus: float,
    h: float,
    *,
    rule: str = "simpson",
    anchor: float = 0.0,
    zero_correction: bool = True,
    threshold: float | None = None,
    shots: int | None = None,
) -> PhaseTrace:
    """Classical post-processing: measured probability series to PhaseTrace.

    ``p_plus``/``p_minus`` are the survival probabilities of the two
    imaginary-time-shifted circuits and ``log_c_plus``/``log_c_minus`` the
    log rescaling constants of their plans; ``r`` is the real-time
    magnitude series.  The phase channel never reads ``r`` except for zero
    detection.

    Zero repair runs two thresholds.  ``detect_zeros`` finds crossings where
    r dips below ``threshold``, by default 1e-3, or max(1e-3, 10/sqrt(shots))
    when the series were sampled from ``shots`` shots; ``correct_phase_jumps``
    picks each crossing's order against ``threshold``, by default 1e-3 with
    or without shots.  ``h`` must be a finite positive number (config's
    ``_positive``).  With zero repair on, a ``threshold`` that is not one
    raises ValueError, and so does a ``shots`` that is neither None nor a
    positive integer.
    """
    times = np.asarray(times, dtype=float)
    r = np.asarray(r, dtype=float)
    p_plus = np.asarray(p_plus, dtype=float)
    p_minus = np.asarray(p_minus, dtype=float)
    n = len(times)
    if not (len(r) == len(p_plus) == len(p_minus) == n):
        raise ValueError("series lengths differ")
    if not _positive(h):
        raise ValueError("h must be positive")
    if shots is not None and not _count(shots):
        raise ValueError(f"shots must be a positive integer or None, got {shots!r}")
    if n > 1:
        steps = np.diff(times)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, abs(steps[0])):
            raise ValueError("time grid must be uniform")

    bad = (p_plus <= 0) | (p_minus <= 0)
    if np.any(bad):
        if not zero_correction:
            where = ", ".join(f"{t:g}" for t in times[bad])
            raise NumericsError(
                f"vanishing probability at t = {where}; enable zero correction"
            )
        p_plus = np.maximum(p_plus, _P_FLOOR)
        p_minus = np.maximum(p_minus, _P_FLOOR)

    log_r_plus = 0.5 * np.log(p_plus) + log_c_plus
    log_r_minus = 0.5 * np.log(p_minus) + log_c_minus
    dphi = (log_r_minus - log_r_plus) / (2.0 * h)

    if n == 1:
        phi = np.array([anchor])
    else:
        tau = float(times[1] - times[0])
        phi = integrate_phase(dphi, tau, rule, anchor)

    trace = PhaseTrace(
        times=times,
        r=r,
        p_plus=p_plus,
        p_minus=p_minus,
        dphi_dt=dphi,
        phi=phi,
        g_complex=r * np.exp(1j * phi),
        floored=np.flatnonzero(bad).tolist(),
    )
    if zero_correction and n > 1:
        # the default thresholds differ under shots: a sampled r scatters by
        # ~1/sqrt(shots), so detection widens to 10/sqrt(shots), while the
        # order selection of each detected crossing keeps 1e-3
        detect_at, order_at = (threshold, threshold) if threshold is not None else (
            1e-3 if shots is None else max(1e-3, 10.0 / np.sqrt(shots)), 1e-3)
        crossings = detect_zeros(trace, detect_at)
        if crossings:
            trace = correct_phase_jumps(trace, crossings, order_at)
    return trace


def _sample_series(p, shots, seed, family) -> np.ndarray:
    """Shot-sampled copy of one family's series, from the family's own
    generator (stream version 2, see ``loschmidt.noise``)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(family,)))
    return sample_shots(np.clip(p, 0.0, 1.0), shots, rng)


def run_phase_experiment(config) -> PhaseTrace:
    """Produce a PhaseTrace from an :class:`~loschmidt.config.ExperimentConfig`.

    Backends:

    * ``exact_oracle`` — amplitudes from the dense eigendecomposition
      (imaginary-time constants still come from the configured ITE pair so
      the recorded probabilities match what an experiment would see),
    * ``statevector_trotter`` — exact overlap probabilities of the three
      families |<psi'|U^(prefix_steps + k) x>|^2 for the kets x = psi,
      V+ psi and V- psi (the ITE pair's kets, grown from the site vectors),
      all read off one evolution of the bra under the plan's ``adjoint``
      step: ``circuit_survivals`` on one row, a copy of the bra, recorded
      against the three kets,
    * ``noisy`` — at gamma > 0, the same circuits as depolarizing
      trajectories (``trajectory_survivals``): each family is its prefix
      (none for r, the plus or minus layers of ``pair.compiled`` for p+-,
      run layer by layer so the Paulis act between them) followed by the
      Trotter steps, recorded at layer depth len(prefix) + d after d step
      layers, then rescaling mitigation at each record point's depth.  At
      gamma = 0 no Pauli can fire and the rescaling factor is 1: the series
      are those of ``statevector_trotter``, the mitigated columns equal the
      raw ones and no point is clamped.

    Shots and their seed come from the noise block on ``noisy`` and from
    ``config.shots``/``config.seed`` otherwise; each family is sampled from
    its own generator, spawned from the seed with the family's index as its
    key: 0 for r, 1 for p+, 2 for p-.  The ITE pair is built from
    ``config.psi`` in this function, so its layers run without
    ``apply_ite``'s state check.
    """
    spec = config.spec
    psi = config.psi
    bra = config.psi_final if config.psi_final is not None else psi
    n_points = int(np.floor(config.t_max / config.tau + 1e-9)) + 1
    times = np.arange(n_points) * config.tau

    builder = {
        "tfim_closed_form": build_ite_plan_tfim,
        "general_bj": build_ite_plan_general,
    }[config.ite_mode]
    pair = builder(spec, psi, config.h)
    log_c_plus, log_c_minus = pair.log_c

    anchor = config.anchor
    if anchor is None:
        if config.prefix_steps:
            raise ConfigError("anchor must be supplied when the grid does not start at t = 0")
        overlap = inner_product(bra, psi)
        if abs(overlap) < ANCHOR_FLOOR:
            raise ConfigError("anchor undefined: <psi'|psi> vanishes at t = 0")
        anchor = float(np.angle(overlap))

    noise = config.noise
    # the rescaling factor (1 - gamma)^(N D) is 1 at gamma = 0: no mitigation
    mitigate = noise is not None and noise.gamma > 0
    if config.backend == "exact_oracle":
        t_eval = times + config.prefix_steps * config.tau
        # the strip t, t + ih, t - ih in one call: one phase table of t
        strip = t_eval[:, None] + 1j * config.h * np.array([0.0, 1.0, -1.0])
        g_real, g_plus, g_minus = amplitude_series(spec, bra, psi, strip).T
        series = [
            np.abs(g_real) ** 2,
            np.exp(2.0 * (np.log(np.abs(g_plus)) - log_c_plus)),
            np.exp(2.0 * (np.log(np.abs(g_minus)) - log_c_minus)),
        ]
    else:
        step = build_plan(spec, config.tau, config.tau, config.order)
        n_steps = config.prefix_steps + n_points - 1
        # the step layers run before each grid point is recorded
        depths = [(config.prefix_steps + k) * step.layers_per_step for k in range(n_points)]
        if mitigate:
            # one circuit per family r / + / -: its prefix (none, or the ITE
            # layers, run layer by layer so the Paulis act between them),
            # then the Trotter steps, recorded once per grid point
            circuits = [(prefix + step.compiled * n_steps, [len(prefix) + d for d in depths])
                        for prefix in ((), *pair.compiled)]
            series = [
                trajectory_survivals(psi, layers, record, bra, noise)
                for layers, record in circuits
            ]
        else:
            # <psi'|U^k x> = <(U^dagger)^k psi'|x>: one evolution of the bra
            # under the adjoint step, recorded against psi, V+ psi and V- psi
            kets = [psi.amplitudes, *pair.kets()]
            series = list(circuit_survivals(
                bra.amplitudes[None].copy(), step.adjoint * n_steps, depths, kets)[0])

    shots, seed = (noise.shots, noise.master_seed) if noise else (config.shots, config.seed)
    if shots is not None:
        series = [_sample_series(p, shots, seed, family) for family, p in enumerate(series)]
    extras: dict = {}
    if noise is not None:
        extras.update(r_squared_raw=series[0], p_plus_raw=series[1], p_minus_raw=series[2])
        clamp_flags = np.zeros(n_points, dtype=bool)
        if mitigate:
            mitigated = []
            for probs, (_, record) in zip(series, circuits):
                out = np.empty(n_points)
                for k, depth in enumerate(record):
                    out[k], clamped = mitigate_rescale(
                        float(probs[k]), noise.gamma, spec.n_sites, depth)
                    clamp_flags[k] |= clamped
                mitigated.append(out)
            series = mitigated
        extras.update(
            p_plus_mitigated=series[1].copy(), p_minus_mitigated=series[2].copy(),
            clamped=clamp_flags,
        )
    p_r, p_plus, p_minus = series

    if shots is not None or mitigate:
        # probabilities are physical after sampling / mitigation clamping
        for name, probs in (("p_plus", p_plus), ("p_minus", p_minus)):
            if not np.all((probs >= 0) & (probs <= 1)):
                raise NumericsError(f"{name} outside [0, 1] after sampling or mitigation")

    trace = reconstruct_trace(
        times,
        np.sqrt(np.maximum(p_r, 0.0)),
        p_plus,
        p_minus,
        log_c_plus,
        log_c_minus,
        config.h,
        rule=config.rule,
        anchor=anchor,
        zero_correction=config.zero_correction,
        threshold=config.threshold,
        shots=shots,
    )
    return replace(trace, **extras)
