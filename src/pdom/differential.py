"""Lur'e-type nonlinear systems and differential dominance via vertex
relaxation.

Dynamics are ``xdot = A x + sum_i g_i sigma_i(h_i^T x) + B u``, ``y = C x``
with scalar sector-bounded channels. Every state Jacobian
``A + sum_i g_i sigma_i'(h_i^T x) h_i^T`` lies in the convex hull of the
finite family obtained by pinning each slope to its bounds, so a uniform
storage that passes the dominance (or dissipation) LMI on every vertex
certifies the differential property over the whole state space. Only
constant storages are handled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import matrixcore as mc
from .dissipativity import SupplyRate
from .errors import DimensionError, UnsupportedConfigurationError
from .lti import (
    DominanceCertificate,
    DominanceVerdict,
    LtiSystem,
    check_dominance,
    eigen_split_test,
)
from .policy import DEFAULT_POLICY, NumericPolicy

__all__ = [
    "Nonlinearity",
    "cubic_saturated",
    "scaled",
    "tabulated",
    "Channel",
    "LureSystem",
    "VertexFamily",
    "VertexVerdict",
    "DifferentialVerdict",
    "jacobian",
    "vertex_family",
    "check_diff_dominance",
    "check_diff_dissipativity",
    "diff_feedback_compose",
]

_SLOPE_SAMPLES = 10_000
_SLOPE_SLACK = 1e-9


@dataclass(frozen=True)
class Nonlinearity:
    """Scalar piecewise-C1 nonlinearity with a closed-form derivative.

    ``kind`` is one of "cubic_saturated", "scaled" or "tabulated"; at kink
    points the derivative is taken from the left. ``kinks`` lists those
    points so callers can flag them.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "cubic_saturated":
            return s - (1.0 / 3.0) * np.minimum(s * s, 4.0) * s
        if self.kind == "scaled":
            return self.params["factor"] * self.params["base"](s)
        if self.kind == "tabulated":
            return self._table_value(s)
        raise ValueError(f"unknown nonlinearity kind {self.kind!r}")

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "cubic_saturated":
            # left derivative at the kinks: -3 at s = 2, -1/3 at s = -2
            inner = np.abs(s) < 2.0
            at_pos_kink = s == 2.0
            out = np.where(inner | at_pos_kink, 1.0 - s * s, -1.0 / 3.0)
            return out if out.shape else float(out)
        if self.kind == "scaled":
            return self.params["factor"] * self.params["base"].derivative(s)
        if self.kind == "tabulated":
            return self._table_slope(s)
        raise ValueError(f"unknown nonlinearity kind {self.kind!r}")

    @property
    def kinks(self) -> tuple[float, ...]:
        if self.kind == "cubic_saturated":
            return (-2.0, 2.0)
        if self.kind == "scaled":
            return self.params["base"].kinks
        if self.kind == "tabulated":
            return tuple(self.params["knots"][1:-1])
        return ()

    def _table_value(self, s):
        knots = self.params["knots"]
        values = self.params["values"]
        # linear extrapolation with the end slopes outside the table
        slopes = np.diff(values) / np.diff(knots)
        inner = np.interp(s, knots, values)
        lo = values[0] + slopes[0] * (s - knots[0])
        hi = values[-1] + slopes[-1] * (s - knots[-1])
        return np.where(s < knots[0], lo, np.where(s > knots[-1], hi, inner))

    def _table_slope(self, s):
        knots = self.params["knots"]
        values = self.params["values"]
        slopes = np.diff(values) / np.diff(knots)
        # left derivative: the segment ending at s decides at interior knots
        idx = np.clip(np.searchsorted(knots, s, side="left") - 1, 0, len(slopes) - 1)
        return slopes[idx]

    def slope_range(self, span: tuple[float, float]) -> tuple[float, float]:
        grid = np.linspace(span[0], span[1], _SLOPE_SAMPLES)
        grid = np.unique(np.concatenate([grid, np.asarray(self.kinks, dtype=float)]))
        slopes = np.asarray(self.derivative(grid), dtype=float)
        return float(np.min(slopes)), float(np.max(slopes))

    def to_dict(self) -> dict:
        if self.kind == "cubic_saturated":
            return {"kind": self.kind}
        if self.kind == "scaled":
            return {
                "kind": self.kind,
                "factor": self.params["factor"],
                "base": self.params["base"].to_dict(),
            }
        return {
            "kind": self.kind,
            "knots": np.asarray(self.params["knots"]).tolist(),
            "values": np.asarray(self.params["values"]).tolist(),
        }

    @staticmethod
    def from_dict(data: dict) -> "Nonlinearity":
        kind = data["kind"]
        if kind == "cubic_saturated":
            return cubic_saturated()
        if kind == "scaled":
            return scaled(float(data["factor"]), Nonlinearity.from_dict(data["base"]))
        if kind == "tabulated":
            return tabulated(data["knots"], data["values"])
        raise ValueError(f"unknown nonlinearity kind {kind!r}")


def cubic_saturated() -> Nonlinearity:
    """sigma(s) = s - (1/3) min(s^2, 4) s, slopes in [-3, 1]."""
    return Nonlinearity(kind="cubic_saturated")


def scaled(factor: float, base: Nonlinearity) -> Nonlinearity:
    if factor == 0:
        raise ValueError("scaling factor must be nonzero")
    return Nonlinearity(kind="scaled", params={"factor": factor, "base": base})


def tabulated(knots, values) -> Nonlinearity:
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
        raise DimensionError("a tabulated nonlinearity needs matching 1-d knots and values")
    if np.any(np.diff(knots) <= 0):
        raise ValueError("table knots must be strictly increasing")
    return Nonlinearity(kind="tabulated", params={"knots": knots, "values": values})


@dataclass(frozen=True)
class Channel:
    """One scalar feedback channel g sigma(h^T x) with slope bounds [alpha, beta]."""

    g: np.ndarray
    h: np.ndarray
    sigma: Nonlinearity
    alpha: float
    beta: float

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float).ravel()
        h = np.asarray(self.h, dtype=float).ravel()
        if g.shape != h.shape:
            raise DimensionError("channel vectors g and h must share the state dimension")
        if self.alpha > self.beta:
            raise ValueError("slope bounds must satisfy alpha <= beta")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    def to_dict(self) -> dict:
        return {
            "g": self.g.tolist(),
            "h": self.h.tolist(),
            "sigma": self.sigma.to_dict(),
            "alpha": self.alpha,
            "beta": self.beta,
        }

    @staticmethod
    def from_dict(data: dict) -> "Channel":
        return Channel(
            g=np.asarray(data["g"], dtype=float),
            h=np.asarray(data["h"], dtype=float),
            sigma=Nonlinearity.from_dict(data["sigma"]),
            alpha=float(data["alpha"]),
            beta=float(data["beta"]),
        )


@dataclass(frozen=True)
class LureSystem:
    """Linear dynamics plus scalar sector-bounded channels.

    Slope bounds are validated at construction by dense sampling of each
    channel's derivative over ``validation_span``.
    """

    A: np.ndarray
    channels: tuple[Channel, ...]
    B: np.ndarray
    C: np.ndarray
    name: str = ""
    validation_span: tuple[float, float] = (-10.0, 10.0)

    def __post_init__(self):
        A = mc.as_matrix(self.A)
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionError("A must be square")
        B = mc.as_matrix(self.B)
        C = mc.as_matrix(self.C)
        if B.shape[0] != n or C.shape[1] != n:
            raise DimensionError("B/C dimensions do not match the state")
        channels = tuple(self.channels)
        for ch in channels:
            if ch.g.shape[0] != n:
                raise DimensionError("channel vectors must match the state dimension")
            lo, hi = ch.sigma.slope_range(self.validation_span)
            if lo < ch.alpha - _SLOPE_SLACK or hi > ch.beta + _SLOPE_SLACK:
                raise ValueError(
                    f"channel slope range [{lo:.6g}, {hi:.6g}] escapes the declared "
                    f"bounds [{ch.alpha:.6g}, {ch.beta:.6g}]"
                )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "channels", channels)
        # fused field: H (n, k) and G (k, n) keep the channels whose sigmas are
        # equal by value (same to_dict; dataclass == raises on tables) in one
        # contiguous block, so rhs calls each distinct sigma once
        groups: dict[str, list[Channel]] = {}
        for ch in channels:
            groups.setdefault(repr(ch.sigma.to_dict()), []).append(ch)
        ordered = [ch for members in groups.values() for ch in members]
        ends = np.cumsum([len(members) for members in groups.values()], dtype=int)
        blocks = tuple((m[0].sigma, slice(e - len(m), e)) for m, e in zip(groups.values(), ends))
        object.__setattr__(self, "_H", np.array([ch.h for ch in ordered]).reshape(-1, n).T)
        object.__setattr__(self, "_G", np.array([ch.g for ch in ordered]).reshape(-1, n))
        object.__setattr__(self, "_sigma_blocks", blocks)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def r(self) -> int:
        return self.C.shape[0]

    @property
    def is_strictly_proper(self) -> bool:
        return True  # y = C x by definition

    def rhs(self, X: np.ndarray, U: np.ndarray | None = None) -> np.ndarray:
        """Vectorized vector field on rows of X (shape (..., n)): one product for
        all channel arguments, one sigma call per distinct nonlinearity and one
        product summing the channel terms (where g vectors overlap, that sum
        may round differently from a channel-by-channel one)."""
        X = np.asarray(X, dtype=float)
        out = X @ self.A.T
        if self.channels:
            Z = X @ self._H
            for sigma, cols in self._sigma_blocks:
                Z[..., cols] = sigma(Z[..., cols])
            out = out + Z @ self._G
        if U is not None:
            out = out + np.asarray(U, dtype=float) @ self.B.T
        return out

    def output(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.C.T

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "channels": [ch.to_dict() for ch in self.channels],
        }

    @staticmethod
    def from_dict(data: dict) -> "LureSystem":
        return LureSystem(
            A=np.asarray(data["A"], dtype=float),
            channels=tuple(Channel.from_dict(ch) for ch in data["channels"]),
            B=np.asarray(data["B"], dtype=float),
            C=np.asarray(data["C"], dtype=float),
            name=data.get("name", ""),
        )


@dataclass(frozen=True)
class VertexFamily:
    """Slope-corner matrices whose convex hull contains every state Jacobian."""

    matrices: tuple[np.ndarray, ...]
    corners: tuple[tuple[float, ...], ...]

    def __len__(self) -> int:
        return len(self.matrices)


def jacobian(sys: LureSystem, x) -> np.ndarray:
    """State Jacobian A + sum_i g_i sigma_i'(h_i^T x) h_i^T.

    On the measure-zero set where a channel argument hits a kink (listed by
    ``sigma.kinks``) the left derivative is used; the vertex checks depend
    only on the slope bounds, so this choice never affects a verdict.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != sys.n:
        raise DimensionError("state dimension mismatch")
    J = sys.A.copy()
    for ch in sys.channels:
        slope = float(ch.sigma.derivative(float(ch.h @ x)))
        J += slope * np.outer(ch.g, ch.h)
    return J


def vertex_family(sys: LureSystem) -> VertexFamily:
    """All sign-corner substitutions of the channel slopes into the Jacobian."""
    for ch in sys.channels:
        if not (np.isfinite(ch.alpha) and np.isfinite(ch.beta)):
            raise ValueError("vertex relaxation needs finite slope bounds")
    matrices = []
    corners = []
    ranges = [(ch.alpha, ch.beta) for ch in sys.channels]
    for corner in itertools.product(*ranges) if ranges else [()]:
        J = sys.A.copy()
        for slope, ch in zip(corner, sys.channels):
            J += slope * np.outer(ch.g, ch.h)
        matrices.append(J)
        corners.append(tuple(float(s) for s in corner))
    return VertexFamily(matrices=tuple(matrices), corners=tuple(corners))


@dataclass(frozen=True)
class VertexVerdict:
    corner: tuple[float, ...]
    verdict: DominanceVerdict
    split_ok: bool  # does this vertex have exactly p unstable eigenvalues at the rate


@dataclass(frozen=True)
class DifferentialVerdict:
    """Uniform vertex check outcome, with per-vertex witnesses."""

    passed: bool
    p: int
    rate: float
    vertices: tuple[VertexVerdict, ...]
    worst_lmax: float

    @property
    def failing_corners(self) -> tuple[tuple[float, ...], ...]:
        return tuple(v.corner for v in self.vertices if not v.verdict.passed)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "p": self.p,
            "rate": self.rate,
            "worst_lmax": self.worst_lmax,
            "vertices": [
                {
                    "corner": list(v.corner),
                    "passed": v.verdict.passed,
                    "lmax": v.verdict.lmax_residual,
                    "split_ok": v.split_ok,
                }
                for v in self.vertices
            ],
        }


def _claimed_p(P, policy: NumericPolicy) -> int:
    inertia = mc.inertia_of(P, policy=policy)
    if inertia.zero != 0:
        raise ValueError("storage has eigenvalues inside the zero band; claim is ill-posed")
    return inertia.negative


def check_diff_dominance(
    sys: LureSystem,
    P,
    lam: float,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> DifferentialVerdict:
    """Differential p-dominance via the vertex relaxation.

    Passes when every vertex matrix satisfies the dominance LMI with the
    shared (P, lam). Each vertex also reports whether it has exactly p
    unstable eigenvalues at this rate, which is what forces the storage
    inertia to (p, 0, n-p).
    """
    P = mc.as_symmetric(P, policy)
    p = _claimed_p(P, policy)
    family = vertex_family(sys)
    results = []
    worst = -np.inf
    for J, corner in zip(family.matrices, family.corners):
        cert = DominanceCertificate(P=P, rate=lam, epsilon=0.0, p=p)
        verdict = check_dominance(J, cert, policy)
        split = eigen_split_test(J, lam, p, policy)
        results.append(VertexVerdict(corner=corner, verdict=verdict, split_ok=split.passed))
        worst = max(worst, verdict.lmax_residual)
    return DifferentialVerdict(
        passed=all(v.verdict.passed for v in results),
        p=p,
        rate=lam,
        vertices=tuple(results),
        worst_lmax=worst,
    )


def check_diff_dissipativity(
    sys: LureSystem,
    P,
    lam: float,
    supply: SupplyRate,
    epsilon: float = 0.0,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> DifferentialVerdict:
    """Differential p-dissipativity via per-vertex composite blocks.

    Builds the (n+m) block of the open-system test with each vertex matrix
    substituted for A and requires all of them to be negative semidefinite.
    """
    from .dissipativity import dissipativity_block

    P = mc.as_symmetric(P, policy)
    p = _claimed_p(P, policy)
    family = vertex_family(sys)
    D = np.zeros((sys.r, sys.m))
    results = []
    worst = -np.inf
    for J, corner in zip(family.matrices, family.corners):
        vertex_sys = LtiSystem(A=J, B=sys.B, C=sys.C, D=D)
        block = dissipativity_block(vertex_sys, P, lam, supply, epsilon)
        eigenvalues, eigenvectors = mc.sym_eigen(block, policy)
        lmax = float(eigenvalues[-1])
        if lmax > policy.lmi_tol:
            verdict = DominanceVerdict(
                False,
                "residual_violation",
                lmax,
                mc.inertia_of(P, policy=policy),
                witness_eigenvalue=lmax,
                witness_vector=eigenvectors[:, -1],
            )
        else:
            verdict = DominanceVerdict(True, "pass", lmax, mc.inertia_of(P, policy=policy))
        split = eigen_split_test(J, lam, p, policy)
        results.append(VertexVerdict(corner=corner, verdict=verdict, split_ok=split.passed))
        worst = max(worst, lmax)
    return DifferentialVerdict(
        passed=all(v.verdict.passed for v in results),
        p=p,
        rate=lam,
        vertices=tuple(results),
        worst_lmax=worst,
    )


def _lift_channel(ch: Channel, before: int, after: int) -> Channel:
    pad = lambda v: np.concatenate([np.zeros(before), v, np.zeros(after)])
    return Channel(g=pad(ch.g), h=pad(ch.h), sigma=ch.sigma, alpha=ch.alpha, beta=ch.beta)


def _as_lure(sys) -> LureSystem:
    if isinstance(sys, LureSystem):
        return sys
    if isinstance(sys, LtiSystem):
        if not sys.is_strictly_proper:
            raise UnsupportedConfigurationError("composition requires strictly proper subsystems")
        return LureSystem(A=sys.A, channels=(), B=sys.B, C=sys.C, name=sys.name)
    raise DimensionError(f"cannot interpret {type(sys).__name__} as a feedback subsystem")


def diff_feedback_compose(sys1, sys2) -> LureSystem:
    """Negative feedback of two Lur'e systems as one Lur'e system on (x1, x2).

    Channels are lifted by zero-padding their g and h vectors; channel-free
    inputs reduce to the linear feedback composition.
    """
    lure1, lure2 = _as_lure(sys1), _as_lure(sys2)
    if lure1.m != lure2.r or lure2.m != lure1.r:
        raise DimensionError("incompatible loop channels")
    n1, n2 = lure1.n, lure2.n
    A = np.block(
        [
            [lure1.A, -lure1.B @ lure2.C],
            [lure2.B @ lure1.C, lure2.A],
        ]
    )
    B = np.block(
        [
            [lure1.B, np.zeros((n1, lure2.m))],
            [np.zeros((n2, lure1.m)), lure2.B],
        ]
    )
    C = np.block(
        [
            [lure1.C, np.zeros((lure1.r, n2))],
            [np.zeros((lure2.r, n1)), lure2.C],
        ]
    )
    channels = tuple(
        [_lift_channel(ch, 0, n2) for ch in lure1.channels]
        + [_lift_channel(ch, n1, 0) for ch in lure2.channels]
    )
    name = f"feedback({lure1.name or 'sys1'}, {lure2.name or 'sys2'})"
    return LureSystem(A=A, channels=channels, B=B, C=C, name=name)
