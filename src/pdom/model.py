"""The one system model: linear dynamics plus scalar sector-bounded channels.

Dynamics are ``xdot = A x + sum_i g_i sigma_i(h_i^T x) + B u``,
``y = C x + D u``. A linear (LTI) system is the case with no channels, so
``LtiSystem`` and ``LureSystem`` name the same class. Pinning each channel
slope to its bounds gives the model's vertex family, on which every verifier
checks a storage. A model is the only system input (:func:`as_model`), and
its numbers (A to D, g, h, scale factors, table knots and values) are finite
by construction, and so are its channel products and vertex matrices. Models, channels and nonlinearities hold read-only copies
of the arrays they are built from, and compare equal by ``to_dict()`` value.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import matrixcore as mc
from .errors import DimensionError, UnsupportedConfigurationError
from .policy import MAX_VERTICES, SLOPE_SLACK

__all__ = [
    "Nonlinearity",
    "cubic_saturated",
    "scaled",
    "tabulated",
    "Channel",
    "LureSystem",
    "hull_points",
    "vertex_family",
    "as_model",
    "state_matrix",
]

_KINDS = ("cubic_saturated", "scaled", "tabulated")


def _frozen(value):
    """Hashable image of a ``to_dict()`` value; equal values give equal images."""
    if isinstance(value, dict):
        return tuple(sorted((key, _frozen(item)) for key, item in value.items()))
    if isinstance(value, list):
        return tuple(_frozen(item) for item in value)
    return value


class _ValueEquality:
    """``==`` by ``to_dict()`` value; the generated one compares numpy fields and raises."""

    def __eq__(self, other):
        # False, not NotImplemented: a numpy operand would answer elementwise
        return type(other) is type(self) and self.to_dict() == other.to_dict()

    __hash__ = None


def _json_object(data, what: str) -> dict:
    """``data`` if it is a JSON object; a ValueError naming ``what`` for any other decoded shape."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def _json_number(data: dict, key: str) -> float:
    """``data[key]`` as a float; anything but a number, ``true`` and ``false`` included, is a ValueError."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True, eq=False)
class Nonlinearity(_ValueEquality):
    """Scalar piecewise-C1 nonlinearity with a closed-form slope range.

    ``kind`` is one of "cubic_saturated", "scaled" or "tabulated".
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        object.__setattr__(self, "params", dict(self.params))  # the caller's dict may change; this one does not
        if self.kind == "scaled" and not (np.isfinite(self.params["factor"]) and self.params["factor"] != 0):
            raise ValueError(f"scaling factor must be finite and nonzero, got {self.params['factor']!r}")
        if self.kind == "tabulated":
            # a table's segment slopes are computed here, once
            knots, values = (mc.read_only_copy(self.params[key]) for key in ("knots", "values"))
            if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
                raise DimensionError("a tabulated nonlinearity needs matching 1-d knots and values")
            with np.errstate(all="ignore"):  # each knot and value enters a spacing and a slope, checked below
                steps = np.diff(knots)
                slopes = mc.read_only_copy(np.diff(values) / steps)
            if not (np.isfinite(steps).all() and np.isfinite(slopes).all() and (steps > 0).all()):
                raise ValueError("table knots must be finite and strictly increasing, with finite values and slopes")
            object.__setattr__(self, "params", {"knots": knots, "values": values, "slopes": slopes})

    def __hash__(self):
        return hash(_frozen(self.to_dict()))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "cubic_saturated":
            return s - (1.0 / 3.0) * np.minimum(s * s, 4.0) * s
        if self.kind == "scaled":
            return self.params["factor"] * self.params["base"](s)
        return self._table_value(s)

    def _table_value(self, s):
        knots, values, slopes = (self.params[key] for key in ("knots", "values", "slopes"))
        # linear extrapolation with the end slopes outside the table
        inner = np.interp(s, knots, values)
        lo = values[0] + slopes[0] * (s - knots[0])
        hi = values[-1] + slopes[-1] * (s - knots[-1])
        return np.where(s < knots[0], lo, np.where(s > knots[-1], hi, inner))

    def slope_range(self) -> tuple[float, float]:
        """The exact range (min, max) of the derivative over the whole real line, in closed form.

        A table extrapolates with its end slopes, so its range is that of its segment slopes.
        """
        if self.kind == "cubic_saturated":
            return -3.0, 1.0
        if self.kind == "scaled":
            ends = [float(self.params["factor"] * end) for end in self.params["base"].slope_range()]
            return min(ends), max(ends)
        slopes = self.params["slopes"]
        return float(slopes.min()), float(slopes.max())

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
            "knots": self.params["knots"].tolist(),
            "values": self.params["values"].tolist(),
        }

    @staticmethod
    def from_dict(data: dict) -> "Nonlinearity":
        data = _json_object(data, "a nonlinearity")
        kind = data["kind"]
        if kind == "cubic_saturated":
            return cubic_saturated()
        if kind == "scaled":
            return scaled(_json_number(data, "factor"), Nonlinearity.from_dict(data["base"]))
        if kind == "tabulated":
            return tabulated(data["knots"], data["values"])
        raise ValueError(f"unknown nonlinearity kind {kind!r}")


def cubic_saturated() -> Nonlinearity:
    """sigma(s) = s - (1/3) min(s^2, 4) s, slopes in [-3, 1]."""
    return Nonlinearity(kind="cubic_saturated")


def scaled(factor: float, base: Nonlinearity) -> Nonlinearity:
    return Nonlinearity(kind="scaled", params={"factor": factor, "base": base})


def tabulated(knots, values) -> Nonlinearity:
    """Piecewise-linear interpolation of a table, extended with its end slopes."""
    return Nonlinearity(kind="tabulated", params={"knots": knots, "values": values})


@dataclass(frozen=True, eq=False)
class Channel(_ValueEquality):
    """One scalar feedback channel g sigma(h^T x) with slope bounds [alpha, beta]."""

    g: np.ndarray
    h: np.ndarray
    sigma: Nonlinearity
    alpha: float
    beta: float

    def __post_init__(self):
        g = mc.read_only_copy(np.ravel(self.g))
        h = mc.read_only_copy(np.ravel(self.h))
        if g.shape != h.shape:
            raise DimensionError("channel vectors g and h must share the state dimension")
        if not (np.isfinite(g).all() and np.isfinite(h).all()):
            raise ValueError("channel vectors g and h must be finite")
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
        data = _json_object(data, "a channel")
        return Channel(
            g=np.asarray(data["g"], dtype=float),
            h=np.asarray(data["h"], dtype=float),
            sigma=Nonlinearity.from_dict(data["sigma"]),
            alpha=_json_number(data, "alpha"),
            beta=_json_number(data, "beta"),
        )


@dataclass(frozen=True, eq=False)
class LureSystem(_ValueEquality):
    """State-space data (A, B, C, D) with dimensions (n, m, r) plus channels.

    ``D = 0`` stands for the zero (r, m) matrix. At construction each
    channel's declared slope bounds must contain the exact slope range of its
    nonlinearity over the whole real line (:meth:`Nonlinearity.slope_range`),
    and each ``g h^T`` must be finite, as must, at finite slope bounds, the
    bound ``|A| + sum_i max(|alpha_i|, |beta_i|) |g_i| |h_i|^T`` on every
    vertex matrix and state Jacobian.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray = 0
    channels: tuple[Channel, ...] = ()
    name: str = ""

    def __post_init__(self):
        A = mc.as_matrix(self.A)
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionError(f"A must be square, got {A.shape}")
        B = mc.as_matrix(self.B)
        if B.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got {B.shape}")
        C = mc.as_matrix(self.C)
        if C.shape[1] != n:
            raise DimensionError(f"C must have {n} columns, got {C.shape}")
        shape = (C.shape[0], B.shape[1])
        D = np.zeros(shape) if np.ndim(self.D) == 0 and self.D == 0 else mc.as_matrix(self.D, shape=shape)
        channels = tuple(self.channels)
        for ch in channels:
            if ch.g.shape[0] != n:
                raise DimensionError("channel vectors must match the state dimension")
            lo, hi = ch.sigma.slope_range()
            # written so that a NaN bound is refused too
            if not (lo >= ch.alpha - SLOPE_SLACK and hi <= ch.beta + SLOPE_SLACK):
                raise ValueError(
                    f"channel slope range [{lo:.6g}, {hi:.6g}] escapes the declared "
                    f"bounds [{ch.alpha:.6g}, {ch.beta:.6g}]"
                )
        for attr, value in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(self, attr, mc.read_only_copy(value))
        object.__setattr__(self, "channels", channels)
        # fused field: H (n, k) and G (k, n) keep the channels whose sigmas are
        # equal in one contiguous block, so rhs calls each distinct sigma once
        groups: dict[Nonlinearity, list[Channel]] = {}
        for ch in channels:
            groups.setdefault(ch.sigma, []).append(ch)
        ordered, blocks = [], []
        for sigma, members in groups.items():
            blocks.append((sigma, slice(len(ordered), len(ordered) + len(members))))
            ordered += members
        H = np.array([ch.h for ch in ordered]).reshape(-1, n).T
        G = np.array([ch.g for ch in ordered]).reshape(-1, n)
        if channels:
            # each |g_i| |h_i|^T, and at finite slope bounds the bound on every entry of a vertex or Jacobian
            reach = np.array([max(abs(ch.alpha), abs(ch.beta)) for ch in ordered], dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                terms = abs(G)[:, :, None] * abs(H.T)[:, None, :]
                if np.isfinite(reach).all():  # an overflowed product makes the bound inf or nan too
                    terms = abs(A) + (reach[:, None, None] * terms).sum(axis=0)
            if not np.isfinite(terms).all():
                raise ValueError("channel terms overflow: g h^T, or the vertex bound "
                                 "|A| + sum_i max(|alpha_i|, |beta_i|) |g_i| |h_i|^T, is not finite")
        object.__setattr__(self, "_H", H)
        object.__setattr__(self, "_G", G)
        object.__setattr__(self, "_sigma_blocks", tuple(blocks))

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
        return not self.D.any()

    def rhs(self, X: np.ndarray) -> np.ndarray:
        """Vectorized field without input on rows of X (shape (..., n)): one product
        for all channel arguments, one sigma call per distinct nonlinearity and one
        product summing the channel terms (where g vectors overlap, that sum
        may round differently from a channel-by-channel one)."""
        X = np.asarray(X, dtype=float)
        out = X @ self.A.T
        if self.channels:
            Z = X @ self._H
            for sigma, cols in self._sigma_blocks:
                Z[..., cols] = sigma(Z[..., cols])
            out = out + Z @ self._G
        return out

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "D": self.D.tolist(),
            "channels": [ch.to_dict() for ch in self.channels],
        }

    @staticmethod
    def from_dict(data: dict) -> "LureSystem":
        """Decode a system; "D" (default zero) and "channels" (default none) are optional."""
        data = _json_object(data, "a system")
        return LureSystem(
            A=np.asarray(data["A"], dtype=float),
            B=np.asarray(data["B"], dtype=float),
            C=np.asarray(data["C"], dtype=float),
            D=np.asarray(data.get("D", 0.0), dtype=float),
            channels=tuple(Channel.from_dict(ch) for ch in data.get("channels", ())),
            name=data.get("name", ""),
        )


def as_model(sys) -> LureSystem:
    """``sys`` if it is a model, whose numbers were checked when it was built; anything else is refused."""
    if not isinstance(sys, LureSystem):
        raise UnsupportedConfigurationError(f"expected a model (LtiSystem or LureSystem), got {type(sys).__name__}")
    return sys


def state_matrix(sys) -> np.ndarray:
    """The state matrix A of a channel-free model.

    A model with channels is refused: its A is only the linear part, so no answer read off A holds for it.
    """
    if as_model(sys).channels:
        raise UnsupportedConfigurationError("this routine reads A alone, only the linear part of a Lur'e model; "
                                            "use the vertex checks for Lur'e models")
    return sys.A


def hull_points(sys: LureSystem, slopes) -> np.ndarray:
    """``A + sum_i s_i g_i h_i^T`` for each row s of the ``(N, k)`` slopes, as an ``(N, n, n)`` stack.

    The channel terms are added one channel at a time, in channel order. Slopes that are not a
    finite ``(N, k)`` array, k being the model's channel count, are refused.
    """
    slopes = np.asarray(slopes, dtype=float)
    k = len(as_model(sys).channels)
    if slopes.ndim != 2 or slopes.shape[1] != k:
        raise DimensionError(f"slopes must be an (N, {k}) array, one column per channel; got shape {slopes.shape}")
    if not np.isfinite(slopes).all():
        raise ValueError("slopes must be finite")
    J = np.repeat(sys.A[None], slopes.shape[0], axis=0)
    for i, ch in enumerate(sys.channels):
        J += slopes[:, i, None, None] * np.outer(ch.g, ch.h)
    return J


def vertex_family(sys: LureSystem) -> tuple[np.ndarray, np.ndarray]:
    """All sign-corner substitutions of the channel slopes into the Jacobian, as (matrices, corners).

    The convex hull of the ``(2^k, n, n)`` matrices contains every state
    Jacobian; the ``i``-th matrix has the slopes ``corners[i]``, a row of the
    ``(2^k, k)`` corners, in ``itertools.product`` order over the channels.
    The family is built by doubling, one channel at a time: each matrix so
    far is followed by its two extensions, ``J + alpha g h^T`` and
    ``J + beta g h^T``. Every corner gets its channel terms added in channel
    order, so each matrix is bitwise the :func:`hull_points` result for its
    corner. A family of more than ``MAX_VERTICES`` corners is refused before
    any corner is built.
    """
    k = len(as_model(sys).channels)
    if 2**k > MAX_VERTICES:
        raise UnsupportedConfigurationError(f"{k} channels make 2^{k} vertices, more than {MAX_VERTICES}")
    for ch in sys.channels:
        if not (np.isfinite(ch.alpha) and np.isfinite(ch.beta)):
            raise ValueError("vertex relaxation needs finite slope bounds")
    n = sys.n
    J = sys.A.copy()[None]
    for ch in sys.channels:
        step = np.outer(ch.g, ch.h)
        doubled = np.empty((len(J), 2, n, n))
        np.add(J, float(ch.alpha) * step, out=doubled[:, 0])
        np.add(J, float(ch.beta) * step, out=doubled[:, 1])
        J = doubled.reshape(-1, n, n)
    # bit k - 1 - i of a vertex's index picks channel i's bound: the first channel varies slowest
    upper = ((np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(bool)
    corners = np.where(upper, [float(ch.beta) for ch in sys.channels], [float(ch.alpha) for ch in sys.channels])
    return J, corners
