"""Built-in reproduction suites for the three shipped example studies.

Each suite re-derives the claimed verdicts with the package's own verifiers
and reports one line per check. Known discrepancies (see the monotone-spring
claim in suite 3) are emitted as WARN rather than FAIL: the toolkit reports
what the arithmetic says.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import registry
from .cones import QuadraticCone, positivity_probe
from .differential import check_diff_dominance, check_diff_dissipativity, hull_points
from .dissipativity import (
    DissipativityCertificate,
    dissipation_blocks,
    find_passivity_storage,
    min_gain,
    small_gain_pair,
    supply_passivity,
    verify_dissipativity,
)
from .interconnect import coupling_condition, network
from .lti import DominanceCertificate, check_dominance, construct_certificate, eigen_split_test, residual
from .matrixcore import inertia_of
from .policy import EQ_TOL
from .sim import classify_asymptotics, integrate, integrate_batch

__all__ = ["CheckLine", "SuiteResult", "example1", "example2", "example3", "run"]


@dataclass(frozen=True)
class CheckLine:
    name: str
    status: str  # "PASS" | "FAIL" | "WARN"
    detail: str = ""

    def __str__(self) -> str:
        detail = f"  ({self.detail})" if self.detail else ""
        return f"{self.status:4s} {self.name}{detail}"


@dataclass
class SuiteResult:
    suite: str
    lines: list[CheckLine] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.lines.append(CheckLine(name, "PASS" if ok else "FAIL", detail))

    def warn(self, name: str, detail: str = "") -> None:
        self.lines.append(CheckLine(name, "WARN", detail))

    @property
    def passed(self) -> bool:
        return all(line.status != "FAIL" for line in self.lines)

    @property
    def warnings(self) -> list[CheckLine]:
        return [line for line in self.lines if line.status == "WARN"]

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "lines": [
                {"name": line.name, "status": line.status, "detail": line.detail}
                for line in self.lines
            ],
        }


def example1(seed: int = 42) -> SuiteResult:
    """Linear oscillator study: spectra, known storages, cones (dampings 4 and 8)."""
    result = SuiteResult("example-1")
    expected_eigs = {4.0: (-0.2679, -3.7321), 8.0: (-0.1270, -7.8730)}
    for c in (4.0, 8.0):
        sys = registry.msd(c)
        tag = f"c={c:g}"
        eigs = np.sort(np.linalg.eigvals(sys.A).real)
        ref = np.sort(expected_eigs[c])
        result.check(
            f"{tag}: eigenvalues {np.round(eigs, 4).tolist()}",
            bool(np.all(np.abs(eigs - ref) < 1e-3)),
        )
        P = registry.KNOWN_STORAGE[int(c)]
        inertia = inertia_of(P)
        result.check(f"{tag}: known storage has inertia (1,0,1)", inertia.matches(1))
        cert = DominanceCertificate(P=P, rate=registry.KNOWN_RATE, epsilon=0.0, p=1)
        verdict = check_dominance(sys, cert)
        result.check(
            f"{tag}: known storage passes the dominance LMI at rate {registry.KNOWN_RATE}",
            verdict.passed,
            f"lmax={verdict.worst_lmax:.3e}",
        )
        own = construct_certificate(sys, registry.KNOWN_RATE, 1)
        own_verdict = check_dominance(sys, own)
        result.check(
            f"{tag}: constructed certificate passes with positive margin",
            own_verdict.passed and own.epsilon > 0,
            f"epsilon={own.epsilon:.3e}",
        )
        rng = np.random.default_rng(seed)
        probe = positivity_probe(sys, QuadraticCone(P=P, p=1), (0.1, 1.0), 100, rng)
        result.check(
            f"{tag}: cone boundary flows strictly interior (100 samples)",
            probe.passed,
            f"worst={probe.worst_value:.3e}",
        )
    return result


def example2(seed: int = 42) -> SuiteResult:
    """Open oscillator study: passivity storage, gain bound, feedback sweeps."""
    result = SuiteResult("example-2")
    sys = registry.msd(8.0)
    lam = registry.KNOWN_RATE
    P = registry.PASSIVITY_STORAGE_C8

    eq = float(np.max(np.abs(P @ sys.B - sys.C.T)))
    result.check("storage diag(-1,1) satisfies P B = C^T exactly", eq == 0.0)
    cert = DominanceCertificate(P=P, rate=lam, epsilon=0.0, p=1)
    verdict = check_dominance(sys, cert)
    result.check(
        "storage passes the dominance LMI at the shared rate",
        verdict.passed,
        f"lmax={verdict.worst_lmax:.3e}",
    )
    pass_cert = DissipativityCertificate(P=P, rate=lam, epsilon=0.0, p=1, supply=supply_passivity(1))
    result.check("passivity certificate verifies", verify_dissipativity(sys, pass_cert).passed)
    found = find_passivity_storage(sys, lam, 1)
    found_eq = float(np.max(np.abs(found.P @ sys.B - sys.C.T)))
    result.check(
        "storage search recovers a passivity certificate",
        verify_dissipativity(sys, found).passed and found_eq <= EQ_TOL,
        f"equality residual {found_eq:.1e}",
    )
    for k in (0.0, 1.0, 10.0, 100.0):
        closed = network((sys,), [[-k]])
        split = eigen_split_test(closed, lam, 1)
        result.check(f"negative feedback k={k:g} keeps 1-dominance", split.passed)

    gamma = min_gain(sys, P, lam)
    result.check(
        "minimum feasible gain bound in [0.300, 0.307]",
        0.300 <= gamma <= 0.307,
        f"gamma*={gamma:.4f}",
    )
    for k in (3.2, -3.2):
        closed = network((sys,), [[-k]])
        split = eigen_split_test(closed, lam, 1)
        result.check(f"feedback k={k:g} keeps 1-dominance", split.passed)
    delta = 0.05
    s1, s2 = small_gain_pair(gamma, 1.0 / gamma - delta)
    below = coupling_condition(s1, s2)
    s1, s2 = small_gain_pair(gamma, 1.0 / gamma + delta)
    above = coupling_condition(s1, s2)
    result.check(
        "coupling passes below the small-gain boundary and fails above it",
        below.passed and not above.passed,
        f"lmax below={below.lmax:.3e}, above={above.lmax:.3e}",
    )
    return result


# simulation horizons sized to the loop's slow cycle (period near 53)
_LOOP_T_END = 400.0
_LOOP_DT = 1e-2
_SINGLE_T_END = 100.0
_SINGLE_DT = 1e-3


def example3(seed: int = 42) -> SuiteResult:
    """Nonlinear oscillator study: vertex certificates and trajectory behavior."""
    result = SuiteResult("example-3")
    lam = 1.0

    # (a) uniform vertex dominance for the non-monotone spring
    nl = registry.nonlinear_msd("velocity", "cubic")
    verdict = check_diff_dominance(nl, registry.DIFF_STORAGE_VELOCITY, lam)
    result.check(
        "cubic spring: storage diag(-1,1) is a uniform vertex certificate at rate 1",
        verdict.passed and all(v.split_ok for v in verdict.vertices),
    )
    det_ok = True
    for v in verdict.vertices:
        s = v.corner[0]
        A_s = np.array([[0.0, 1.0], [s, -8.0]])
        det = float(np.linalg.det(residual(A_s, registry.DIFF_STORAGE_VELOCITY, lam)))
        det_ok &= abs(det - (28.0 - (s - 1.0) ** 2)) < 1e-9 and det > 0
    result.check("cubic spring: vertex residual determinants equal 28 - (s-1)^2 > 0", det_ok)

    # (b) differential passivity for the mixed output
    nlm = registry.nonlinear_msd("mixed", "cubic")
    pass_verdict = check_diff_dissipativity(nlm, registry.DIFF_STORAGE_MIXED, lam, supply_passivity(1))
    eq = float(np.max(np.abs(registry.DIFF_STORAGE_MIXED @ nlm.B - nlm.C.T)))
    result.check(
        "mixed output: storage [[-2,1],[1,2]] gives differential passivity, P B = C^T",
        pass_verdict.passed and eq == 0.0,
    )
    endpoints = _feasible_slope_endpoints(nlm, registry.DIFF_STORAGE_MIXED, lam)
    ref = np.sort(np.roots([1.0, 5.0, -10.0]))
    result.check(
        "mixed output: feasible slope interval matches the roots of s^2 + 5 s - 10",
        bool(np.all(np.abs(endpoints - ref) < 1e-6)),
        f"endpoints {np.round(endpoints, 6).tolist()}",
    )

    # (c) monotone-spring claim: known discrepancy at the shallow end
    mono = registry.nonlinear_msd("velocity", "monotone")
    mono_verdict = check_diff_dominance(mono, registry.MONOTONE_STORAGE, 0.0)
    per_corner = {v.corner[0]: v.passed for v in mono_verdict.vertices}
    expected_split = per_corner.get(-2.0, False) and not per_corner.get(-0.5, True)
    result.check(
        "monotone spring: vertex s=-2 passes, s=-0.5 fails (as the arithmetic gives)",
        expected_split,
    )
    if expected_split:
        result.warn(
            "monotone spring: the storage [[1,.5],[.5,1]] is NOT a uniform certificate "
            "over slopes [-2,-0.5]",
            "the contraction claim holds only on slopes below about -1.146; "
            "residual [[s,s-3],[s-3,-15]] is indefinite at s=-0.5",
        )

    # closed loop of two mixed-output oscillators
    loop = registry.nonlinear_loop()
    P4 = np.zeros((4, 4))
    P4[:2, :2] = registry.DIFF_STORAGE_MIXED
    P4[2:, 2:] = registry.DIFF_STORAGE_MIXED
    result.check("loop: block-diagonal storage has inertia (2,0,2)", inertia_of(P4).matches(2))
    loop_verdict = check_diff_dominance(loop, P4, lam)
    result.check(
        f"loop: all {len(loop_verdict.vertices)} composed vertices pass the rate-1 LMI",
        loop_verdict.passed and len(loop_verdict.vertices) == 4,
    )

    rng = np.random.default_rng(seed)
    X0 = rng.uniform(-3.0, 3.0, size=(10, 4))

    batch = integrate_batch(loop, X0, t_end=_LOOP_T_END, dt=_LOOP_DT, record_every=2)
    origin_traj = integrate(loop, np.zeros(4), t_end=_SINGLE_T_END, dt=_LOOP_DT)
    single_traj = integrate(nl, [1.0, 1.0], t_end=_SINGLE_T_END, dt=_SINGLE_DT, record_every=10)

    verdicts = [classify_asymptotics(t) for t in batch]
    kinds = [v.kind for v in verdicts]
    periods = [v.period for v in verdicts if v.kind == "limit_cycle"]
    spread = (max(periods) - min(periods)) / float(np.mean(periods)) if periods else math.inf
    result.check(
        "loop: 10 generic initial conditions converge to a limit cycle",
        kinds.count("limit_cycle") == 10,
        f"kinds={sorted(set(kinds))}",
    )
    result.check(
        "loop: estimated periods agree within 1%",
        bool(periods) and spread < 0.01,
        f"period={np.mean(periods):.3f}, spread={100 * spread:.3g}%" if periods else "no cycles",
    )
    origin_verdict = classify_asymptotics(origin_traj)
    result.check(
        "loop: the origin equilibrium stays put (excluded case of the dichotomy)",
        origin_verdict.kind == "fixed_point",
    )
    single_verdict = classify_asymptotics(single_traj)
    result.check(
        "single oscillator from (1,1): unforced trajectory settles to a fixed point",
        single_verdict.kind == "fixed_point",
        f"location={np.round(single_verdict.location, 4).tolist()}"
        if single_verdict.location is not None
        else "",
    )
    return result


def _feasible_slope_endpoints(sys, P, lam: float) -> np.ndarray:
    """Roots of det(top-left dissipation block)(s) = 0: the feasible slope window.

    The determinant is an exact quadratic in the channel slope, so three
    integer samples pin it down.
    """
    samples = np.array([-1.0, 0.0, 1.0])
    blocks = dissipation_blocks(residual(hull_points(sys, samples[:, None]), P, lam), sys, P, supply_passivity(sys.r))
    dets = np.linalg.det(blocks[:, : sys.n, : sys.n])
    coeffs = np.polyfit(samples, dets, 2)
    return np.sort(np.roots(coeffs).real)


_SUITES = {"1": example1, "2": example2, "3": example3}


def run(which: str, seed: int = 42) -> list[SuiteResult]:
    """Run one suite ("1", "2", "3") or "all"."""
    if which == "all":
        ids = ["1", "2", "3"]
    elif which in _SUITES:
        ids = [which]
    else:
        raise ValueError(f"unknown reproduction id {which!r}; choose 1, 2, 3 or all")
    return [_SUITES[suite_id](seed) for suite_id in ids]
