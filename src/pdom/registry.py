"""Built-in example systems so reproduction runs need no external files.

Mass-spring-damper systems (unit mass and spring, damping c), their open
single-input variants, the nonlinear active-spring oscillators and the
four-state feedback loop of two of them. Known-good storage matrices for
these systems ship alongside, rounded to the four decimals they are usually
quoted with; verifiers treat them as candidates like any other input.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .interconnect import network
from .model import Channel, LureSystem, Nonlinearity, cubic_saturated, tabulated

__all__ = [
    "msd",
    "nonlinear_msd",
    "nonlinear_loop",
    "builtin_system",
    "builtin_names",
    "KNOWN_RATE",
    "KNOWN_STORAGE",
    "PASSIVITY_STORAGE_C8",
    "DIFF_STORAGE_VELOCITY",
    "DIFF_STORAGE_MIXED",
    "MONOTONE_STORAGE",
]

# storage candidates for the damping-4 and damping-8 systems at the rate below
KNOWN_RATE = 1.2679
KNOWN_STORAGE = {
    4: np.array([[-0.4338, 0.6535], [0.6535, 1.4338]]),
    8: np.array([[-0.9193, 0.2177], [0.2177, 1.9193]]),
}
# satisfies P B = C^T exactly for the open damping-8 system
PASSIVITY_STORAGE_C8 = np.diag([-1.0, 1.0])
# uniform vertex storages for the nonlinear oscillator
DIFF_STORAGE_VELOCITY = np.diag([-1.0, 1.0])          # y = x2, rate 1
DIFF_STORAGE_MIXED = np.array([[-2.0, 1.0], [1.0, 2.0]])  # y = x1 + 2 x2, rate 1
MONOTONE_STORAGE = np.array([[1.0, 0.5], [0.5, 1.0]])     # monotone spring claim, rate 0


def msd(c: float) -> LureSystem:
    """Mass-spring-damper with damping c, force input, velocity output."""
    return LureSystem(
        A=np.array([[0.0, 1.0], [-1.0, -c]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[0.0, 1.0]]),
        name=f"msd-c{c:g}",
    )


def _zigzag_spring(steep: float, shallow: float) -> Nonlinearity:
    """Odd piecewise-linear spring whose slopes alternate between two values."""
    pattern = [steep, shallow, steep, shallow, steep, shallow]
    knots_pos = np.arange(0.0, len(pattern) + 1)
    values_pos = np.concatenate([[0.0], np.cumsum(pattern)])
    knots = np.concatenate([-knots_pos[:0:-1], knots_pos])
    values = np.concatenate([-values_pos[:0:-1], values_pos])
    return tabulated(knots, values)


_SPRINGS = {
    # cubic with saturation: slopes span [-3, 1], both bounds attained
    "cubic": (cubic_saturated, -3.0, 1.0),
    # strictly monotone spring with slopes in [-2, -1/2]
    "monotone": (lambda: _zigzag_spring(-2.0, -0.5), -2.0, -0.5),
    # monotone spring restricted to the contraction-verified slope range
    "contractive": (lambda: _zigzag_spring(-2.0, -1.2), -2.0, -1.2),
}


def nonlinear_msd(output: str = "velocity", spring: str = "cubic", name: str | None = None) -> LureSystem:
    """Nonlinear oscillator x1' = x2, x2' = sigma(x1) - 8 x2 + u.

    ``output`` selects y = x2 ("velocity") or y = x1 + 2 x2 ("mixed").
    ``spring`` selects the active cubic spring or a monotone variant.
    """
    if spring not in _SPRINGS:
        raise ValueError(f"unknown spring {spring!r}; choose from {sorted(_SPRINGS)}")
    factory, alpha, beta = _SPRINGS[spring]
    if output == "velocity":
        C = np.array([[0.0, 1.0]])
    elif output == "mixed":
        C = np.array([[1.0, 2.0]])
    else:
        raise ValueError(f"unknown output {output!r}; choose 'velocity' or 'mixed'")
    return LureSystem(
        A=np.array([[0.0, 1.0], [0.0, -8.0]]),
        channels=(
            Channel(
                g=np.array([0.0, 1.0]),
                h=np.array([1.0, 0.0]),
                sigma=factory(),
                alpha=alpha,
                beta=beta,
            ),
        ),
        B=np.array([[0.0], [1.0]]),
        C=C,
        name=name or f"nl-msd-{spring}-{output}",
    )


def nonlinear_loop() -> LureSystem:
    """Negative feedback of two mixed-output nonlinear oscillators (4 states)."""
    sys1 = nonlinear_msd(output="mixed", spring="cubic", name="nl-msd-1")
    sys2 = nonlinear_msd(output="mixed", spring="cubic", name="nl-msd-2")
    return dataclasses.replace(network((sys1, sys2), [[0.0, -1.0], [1.0, 0.0]]), name="nl-loop")


_BUILTINS = {
    "msd-c4": lambda: msd(4.0),
    "msd-c8": lambda: msd(8.0),
    "nl-msd": lambda: nonlinear_msd(output="velocity", spring="cubic"),
    "nl-msd-mixed": lambda: nonlinear_msd(output="mixed", spring="cubic"),
    "nl-msd-monotone": lambda: nonlinear_msd(output="velocity", spring="monotone"),
    "nl-msd-contractive": lambda: nonlinear_msd(output="velocity", spring="contractive"),
    "nl-loop": nonlinear_loop,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin_system(name: str):
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise KeyError(f"no built-in system named {name!r}; known: {builtin_names()}") from None
