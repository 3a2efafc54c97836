"""Fixed-step integration and trajectory-level validation.

Classical fourth-order Runge-Kutta over a uniform grid, batched across
initial conditions, plus a classifier that turns raw trajectories into
asymptotic verdicts (fixed point, limit cycle, divergence).
"""

from __future__ import annotations

import csv
import os
import pickle
import sys
import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import matrixcore as mc
from .errors import DimensionError
from .model import LureSystem, as_model
from .policy import CYCLE_TOL, DIVERGENCE_NORM, FP_TOL_SCALE, PTP_DRIFT_TOL, PTP_FLOOR, STEP_TOL

__all__ = [
    "Trajectory",
    "AsymptoticVerdict",
    "integrate",
    "integrate_batch",
    "classify_asymptotics",
    "write_trajectory_csv",
]

# bounds on rows * row cost for the generated step, without and with channels; see _takes_row_step
_ROW_COST = 120
_ROW_COST_CHANNELS = 280
# rows * steps * row cost from which a generated-step batch is split across CPUs (_on_cpus): at about 45 ns a unit,
# a split in two saves work * 45 ns / 2, ten times the 1.3 ms that a fork and its transfer take. Linux only: fork
# without exec is unsafe with macOS system libraries, and Windows has no fork.
_SPLIT_WORK = 10 * 1.3e-3 * 2 / 45e-9 if sys.platform == "linux" else float("inf")


@dataclass(frozen=True)
class Trajectory:
    """States on a uniform time grid; ``truncated`` flags a divergence cutoff. The states and inputs are
    read-only: a writable array passed in is copied, and a read-only one, as the integrator returns, is kept."""

    t0: float
    dt: float
    states: np.ndarray                 # (N, n)
    inputs: np.ndarray | None = None   # (N, m) when recorded
    truncated: bool = False

    def __post_init__(self):
        states = _read_only(self.states)
        if states.ndim != 2 or states.shape[0] < 1:
            raise DimensionError("trajectory needs a (samples, n) state array")
        object.__setattr__(self, "states", states)
        if self.inputs is not None:
            inputs = _read_only(self.inputs)
            if inputs.shape[0] != states.shape[0]:
                raise DimensionError("input record length does not match the state record")
            object.__setattr__(self, "inputs", inputs)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.states.shape[0])


def _read_only(values) -> np.ndarray:
    """``values`` as a float array that no one can write: itself if it is one already, else a read-only copy."""
    values = np.asarray(values, dtype=float)
    return mc.read_only_copy(values) if values.flags.writeable else values


def integrate_batch(
    sys: LureSystem,
    X0: np.ndarray,
    t_end: float,
    dt: float,
    input_policy=None,
    record_every: int = 1,
) -> list[Trajectory]:
    """RK4 over a batch of initial conditions (rows of X0), one grid for all.

    ``t_end / dt`` must be a whole number of steps (to a relative ``STEP_TOL``) and of recorded intervals
    (``dt * record_every``); any other horizon is a ``ValueError``, never a shortened run.

    A row whose norm exceeds ``DIVERGENCE_NORM`` = 1e9, or is not finite, is flagged as truncated
    and its record is cut at that step; the row is not evaluated after it.
    Both evaluators test ``x . x <= 1e18``, which is the same rule without a
    square root: 1e18 is a float, and the square root of the next float
    above it rounds above 1e9.

    ``input_policy`` is None or a constant input of ``sys.m`` finite entries, recorded on every sample; the
    field adds its ``B u``. Any other width is a ``DimensionError``, a non-finite entry a ``ValueError``.

    A batch that :func:`_takes_row_step` accepts runs row by row through the
    model's generated float step (0.25-0.75 us per row-step and CPU for the built-in models, n <= 4); any other
    batch runs the numpy loop (9-28 us per step for up to 40 rows), timed on one core of a shared
    2-core host with Python 3.11. The generated step sums products left to right, while a one-row numpy
    product may pair them: for n > 2 a row's last bits can depend on the shape of its batch.
    On Linux, a generated-step batch of two rows or more and rows * steps * row cost of at least ``_SPLIT_WORK``
    (about 26 ms), in a process with two CPUs or more and no other Python thread, runs as one contiguous chunk of
    rows per CPU, each past the first in a forked child (:func:`_on_cpus`). Every row runs the same step on the
    same floats, so the bits do not depend on the CPU count; no child outlives the call.

    The records take batch * (steps / record_every + 1) * n * 8 bytes, held once, plus O(batch * n)
    working arrays; the trajectories' states are read-only views of them, and their inputs of the one input.
    X0 is one start of width ``sys.n`` or a ``(batch, sys.n)`` array; any other shape is a ``DimensionError``.
    """
    sys = as_model(sys)
    if not np.isfinite([t_end, dt]).all():
        raise ValueError(f"t_end and dt must be finite, got {t_end} and {dt}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < dt:
        raise ValueError("t_end must be at least dt")
    if record_every < 1:
        raise ValueError("record_every must be a positive integer")
    ratio = t_end / dt
    if not np.isfinite(ratio):  # a step count that overflows a float
        raise ValueError(f"t_end / dt must be finite, got {t_end} / {dt}")
    steps = int(round(ratio))
    if abs(ratio - steps) > STEP_TOL * ratio:  # rounding would shorten or stretch the horizon
        raise ValueError(f"t_end must be a whole number of steps (dt), got {t_end} / {dt} = {ratio!r}")
    if steps % record_every:
        raise ValueError("t_end must be a whole number of recorded intervals (dt * record_every)")
    u = None if input_policy is None else mc.read_only_copy(np.ravel(input_policy))
    if u is not None and u.shape != (sys.m,):
        raise DimensionError(f"constant input of {u.size} entries does not match B's {sys.m} columns")
    if u is not None and not np.isfinite(u).all():
        raise ValueError(f"constant input must be finite, got {u.tolist()}")
    X0 = np.ascontiguousarray(X0, dtype=float)  # the numpy loop steps from X0 itself, in C order
    if X0.ndim not in (1, 2) or X0.shape[-1] != sys.n:
        raise DimensionError(f"initial states of shape {X0.shape} fit neither ({sys.n},) nor (batch, {sys.n})")
    X0 = np.atleast_2d(X0)
    bias = None if u is None else u @ sys.B.T
    runs = (_rk4_rows if _takes_row_step(sys, len(X0)) else _rk4_batch)(sys, X0, steps, dt, record_every, bias)
    inputs = None if u is None else np.broadcast_to(u, (steps // record_every + 1, sys.m))  # a read-only view
    return [Trajectory(0.0, dt * record_every, states, None if inputs is None else inputs[: len(states)], cut)
            for states, cut in runs]


def _takes_row_step(sys: LureSystem, rows: int) -> bool:
    """Whether ``rows`` rows take the generated step. Its row cost is the terms the field sums (the
    non-zeros of ``A``, ``H`` and ``G``) plus one per state for the stage updates, while the numpy loop's
    cost is mostly a fixed dispatch, about 2.5x higher with channels; each bound sits below every
    crossover measured."""
    return rows * _row_cost(sys) <= (_ROW_COST_CHANNELS if sys.channels else _ROW_COST)


def _row_cost(sys: LureSystem) -> int:
    return np.count_nonzero(sys.A) + np.count_nonzero(sys._H) + np.count_nonzero(sys._G) + sys.n


def _rk4_batch(sys: LureSystem, X0, steps, dt, record_every, bias):
    """The numpy RK4 loop on the whole batch, ``B u`` being ``bias`` (None without an input): ``(states,
    truncated)`` per row. The states are written into one ``np.zeros`` array allocated before the loop; the OS
    zeroes its pages on first write, so records never reached, after every row is cut, never become resident."""
    f = sys.rhs if bias is None else (lambda X: sys.rhs(X) + bias)
    records = np.zeros((steps // record_every + 1, *X0.shape))  # (N, batch, n)
    records[0] = X = X0
    count = 1  # records written
    cut_length = np.full(len(X0), -1, dtype=int)  # record count at divergence, -1 if none
    rows = np.arange(len(X0))  # the batch rows that X still integrates
    half, sixth = 0.5 * dt, dt / 6.0
    with np.errstate(invalid="ignore", over="ignore"):
        for step in range(steps):
            k1 = f(X)
            k2 = f(X + half * k1)
            k3 = f(X + half * k2)
            k4 = f(X + dt * k3)
            X = X + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # the comparison is false for NaN and inf, so non-finite rows count as diverged
            bad = ~(np.einsum("ij,ij->i", X, X) <= DIVERGENCE_NORM ** 2)
            if bad.any():
                # cut the records of the diverged rows here and stop integrating them
                cut_length[rows[bad]] = count
                X, rows = X[~bad], rows[~bad]
                if not rows.size:
                    break
            if (step + 1) % record_every == 0:
                # the entries of cut rows lie past their records' ends and stay zero
                records[count, rows if rows.size < len(X0) else slice(None)] = X
                count += 1
    records.setflags(write=False)  # before any view of it leaves: every trajectory's states are read-only
    return [(records[: cut if cut >= 0 else count, i], bool(cut >= 0)) for i, cut in enumerate(cut_length)]


def _rk4_rows(sys: LureSystem, X0, steps, dt, record_every, bias):
    """The same, row by row through the model's generated float step. The step is compiled from
    :func:`_row_step_source` on the model's first run without an input, or with one, and kept in the
    model's ``__dict__``, which a frozen dataclass still has."""
    key = "_row_step" if bias is None else "_input_row_step"
    if key not in vars(sys):
        source, namespace = _row_step_source(sys, bias is not None)
        exec(source, namespace)
        vars(sys)[key] = namespace["step"]
    u = () if bias is None else tuple(bias.tolist())
    return _on_cpus(vars(sys)[key], X0, (steps // record_every, record_every, dt, u), len(X0) * steps * _row_cost(sys))


def _on_cpus(step, X0, args: tuple, work: int) -> list:
    """``step(x, *args)`` on each row of X0, split as :func:`integrate_batch` states: the caller runs the first chunk,
    and a child of ``os.fork()`` each other one, pickling its runs, or its exception's type and message, into a pipe
    and ending with ``os._exit`` on every path. The caller reaps every child, killing any left first if it raises."""
    parts = min(mc._CPUS, len(X0))
    if parts < 2 or work < _SPLIT_WORK or threading.active_count() > 1:
        return [step(x, *args) for x in X0.tolist()]
    first, *rest = (chunk.tolist() for chunk in np.array_split(X0, parts))
    caller, children, fds = os.getpid(), [], []
    try:
        for chunk in rest:
            fds += os.pipe()
            children.append(os.fork())
            if not children[-1]:  # the child; a raise that escapes below ends it in the finally clause
                with open(fds[-1], "wb") as pipe:
                    try:
                        pickle.dump([step(x, *args) for x in chunk], pipe, pickle.HIGHEST_PROTOCOL)
                    except BaseException as exc:  # sent for the caller to raise
                        pickle.dump((type(exc), str(exc)), pipe)
                os._exit(0)
            os.close(fds.pop())  # the write end, before the next fork: no other child may hold it open
        runs = [step(x, *args) for x in first]
        for read in fds:
            if isinstance(result := pickle.load(open(read, "rb", closefd=False)), tuple):
                raise result[0](result[1])
            runs += result
        while children:
            os.waitpid(children.pop(), 0)
        return runs
    finally:
        if os.getpid() != caller:
            os._exit(1)
        for pid in children:  # left only if the caller raised
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _row_step_source(sys: LureSystem, with_input: bool) -> tuple[str, dict]:
    """Straight-line float code for ``step(x, records, every, dt, u) -> (states, truncated)``, the numpy
    loop's stages, divergence test and records on one row, and the names it reads. With an input,
    ``u = B u`` of a constant input is added to every row, as the numpy loop adds it. Sums run left to
    right and hold only the operations whose value is not known in advance: no zero coefficient, no
    channel term on a row that no channel feeds, no input term in a run without one, and
    ``a - x * 2.0`` for ``a + x * -2.0``, which rounds to the same bits. The record grows in an
    ``array('d')``."""
    n, namespace = sys.n, {"bisect_right": bisect_right, "array": array}
    namespace["states"] = lambda out: np.frombuffer(memoryview(out).toreadonly()).reshape(-1, n)  # read-only rows
    x, y, u, *k = ([f"{v}{i}" for i in range(n)] for v in ("x", "y", "u", "k1_", "k2_", "k3_", "k4_"))
    u = u if with_input else None
    body = _field_lines(sys, x, k[0], u, namespace)
    for s, scale in enumerate(("half", "half", "dt")):
        body += [f"{yi} = {xi} + {scale} * {ki}" for xi, yi, ki in zip(x, y, k[s])]
        body += _field_lines(sys, y, k[s + 1], u, namespace)
    body += [f"{xi} = {xi} + sixth * ({a} + 2.0 * {b} + 2.0 * {c} + {d})" for xi, a, b, c, d in zip(x, *k)]
    squares = " + ".join(f"{xi} * {xi}" for xi in x)
    body += [f"if not {squares} <= {DIVERGENCE_NORM ** 2!r}:  # true for NaN and inf", "    return states(out), True"]
    xs = "".join(f"{v}, " for v in x)
    code = [f"def step(x, records, every, dt, u):\n    {xs}= x",
            *([f"    {''.join(f'{v}, ' for v in u)}= u"] if u else []),
            f"    half, sixth = 0.5 * dt, dt / 6.0\n    out = array('d', ({xs}))",
            "    for _ in range(records):\n        for _ in range(every):",
            *("            " + line for line in body), f"        out.fromlist([{xs}])\n    return states(out), False"]
    return "\n".join(code), namespace


def _sum(terms) -> str:
    """``(coefficient, operand)`` pairs summed left to right, a negative coefficient as a subtraction."""
    text = ""
    for c, v in terms:
        if not text:
            text = f"-{v}" if c == -1.0 else v if c == 1.0 else f"{v} * {c!r}"
        else:
            text += (" - " if c < 0 else " + ") + (v if abs(c) == 1.0 else f"{v} * {abs(c)!r}")
    return text


def _field_lines(sys: LureSystem, xs, ks, us, namespace) -> list[str]:
    """Statements setting ``ks`` to the field at ``xs`` as ``LureSystem.rhs`` sums it, plus ``us`` if given."""
    def _terms(coeffs, names):  # the non-zero coefficients with their operands
        return [(c, v) for c, v in zip(coeffs.tolist(), names) if c]

    lines, zs = [], [f"z{c}" for c in range(sys._H.shape[1])]
    args = []  # each channel's argument: a state itself when its column of H is a unit vector
    for z, column in zip(zs, sys._H.T):
        terms = _terms(column, xs)
        if len(terms) == 1 and terms[0][0] == 1.0:
            args.append(terms[0][1])
        else:
            lines.append(f"{z} = {_sum(terms) or '0.0'}")
            args.append(z)
    for sigma, cols in sys._sigma_blocks:
        for z, arg in zip(zs[cols], args[cols]):
            lines += _sigma_lines(sigma, arg, z, namespace)
    for i, ki in enumerate(ks):
        terms, channels = _terms(sys.A[i], xs), _terms(sys._G[:, i], zs)
        terms += channels if len(channels) < 2 else [(1.0, f"({_sum(channels)})")]
        lines.append(f"{ki} = {_sum(terms + ([(1.0, us[i])] if us else [])) or '0.0'}")
    return lines


def _sigma_lines(sigma, s: str, z: str, namespace) -> list[str]:
    """Statements setting float ``z`` to ``sigma(s)`` with the operations of ``Nonlinearity.__call__``."""
    if sigma.kind == "cubic_saturated":  # np.minimum(q, 4.0) keeps a NaN q, and so does this
        return [f"q = {s} * {s}", f"{z} = {s} - {1.0 / 3.0!r} * (4.0 if q > 4.0 else q) * {s}"]
    if sigma.kind == "scaled":
        return _sigma_lines(sigma.params["base"], s, z, namespace) + [f"{z} = {float(sigma.params['factor'])!r} * {z}"]
    # np.interp's formula inside the table, _table_value's end slopes outside it
    kn, vs, slopes = (sigma.params[key].tolist() for key in ("knots", "values", "slopes"))
    K, V, S = f"K{z}", f"V{z}", f"S{z}"
    namespace.update({K: tuple(kn), V: tuple(vs), S: tuple(slopes)})
    return [f"if {kn[0]!r} <= {s} <= {kn[-1]!r}:",
            f"    j = bisect_right({K}, {s}) - 1",
            f"    {z} = {V}[j] if {K}[j] == {s} else {S}[j] * ({s} - {K}[j]) + {V}[j]",
            f"elif {s} < {kn[0]!r}:", f"    {z} = {vs[0]!r} + {slopes[0]!r} * ({s} - {kn[0]!r})",
            "else:  # above the table, or NaN", f"    {z} = {vs[-1]!r} + {slopes[-1]!r} * ({s} - {kn[-1]!r})"]


def integrate(
    sys: LureSystem,
    x0,
    t_end: float,
    dt: float,
    input_policy=None,
    record_every: int = 1,
) -> Trajectory:
    """Integrate a single initial condition; see :func:`integrate_batch`."""
    x0 = np.asarray(x0, dtype=float).ravel()
    return integrate_batch(sys, x0[None, :], t_end, dt, input_policy, record_every)[0]


@dataclass(frozen=True)
class AsymptoticVerdict:
    """Classified tail behavior with the diagnostics that decided it."""

    kind: str  # "fixed_point" | "limit_cycle" | "divergent" | "undecided"
    location: np.ndarray | None = None
    period: float | None = None
    amplitude: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "location": None if self.location is None else self.location.tolist(),
            "period": self.period,
            "amplitude": self.amplitude,
            "diagnostics": {k: float(v) for k, v in self.diagnostics.items()},
        }


def _upward_crossings(times: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Linear-interpolated times where the signal crosses zero upward."""
    below = signal[:-1] < 0
    above = signal[1:] >= 0
    idx = np.where(below & above)[0]
    frac = -signal[idx] / (signal[idx + 1] - signal[idx])
    return times[idx] + frac * (times[idx + 1] - times[idx])


def classify_asymptotics(traj: Trajectory) -> AsymptoticVerdict:
    """Decide fixed point vs limit cycle vs divergence from the trajectory tail.

    Fixed point: tail displacement below ``FP_TOL_SCALE * (1 + |x_tail|)``
    over the last 20% of samples. Limit cycle: the tail oscillates, the last
    five zero-crossing periods of the liveliest coordinate agree to
    ``CYCLE_TOL`` relative jitter, and the per-coordinate peak-to-peak
    pattern repeats over the last two estimated periods. Anything else is
    undecided.

    A trajectory started exactly on an unstable equilibrium stays there and
    classifies as a fixed point; that initial set has measure zero, so
    cycle-dichotomy sweeps should treat the equilibrium start as its own
    case.
    """
    if traj.truncated:
        return AsymptoticVerdict(kind="divergent", diagnostics={"samples": len(traj.states)})
    states = traj.states
    times = traj.times
    window = max(2, int(0.2 * states.shape[0]))
    tail = states[-window:]
    center = tail.mean(axis=0)
    tail_norm = float(np.linalg.norm(center))
    fp_tol = FP_TOL_SCALE * (1.0 + tail_norm)
    displacement = float(np.max(np.linalg.norm(tail - center, axis=1)))
    if displacement < fp_tol:
        return AsymptoticVerdict(
            kind="fixed_point",
            location=center,
            diagnostics={"tail_displacement": displacement, "fp_tol": fp_tol},
        )

    # liveliest coordinate drives the period estimate
    spans = np.ptp(tail, axis=0)
    coord = int(np.argmax(spans))
    signal = states[:, coord] - center[coord]
    crossings = _upward_crossings(times, signal)
    if crossings.size < 6:
        return AsymptoticVerdict(
            kind="undecided",
            diagnostics={"tail_displacement": displacement, "crossings": float(crossings.size)},
        )
    periods = np.diff(crossings)[-5:]
    mean_period = float(np.mean(periods))
    jitter = float((np.max(periods) - np.min(periods)) / mean_period)
    # peak-to-peak pattern must repeat over the last two estimated periods
    per_samples = max(2, int(round(mean_period / traj.dt)))
    if 2 * per_samples > states.shape[0]:
        return AsymptoticVerdict(
            kind="undecided",
            diagnostics={"tail_displacement": displacement, "crossings": float(crossings.size)},
        )
    last = states[-per_samples:]
    prev = states[-2 * per_samples : -per_samples]
    ptp_last = np.ptp(last, axis=0)
    ptp_prev = np.ptp(prev, axis=0)
    scale = np.maximum(np.max(ptp_last), PTP_FLOOR)
    ptp_drift = float(np.max(np.abs(ptp_last - ptp_prev)) / scale)
    if jitter < CYCLE_TOL and ptp_drift < PTP_DRIFT_TOL:
        return AsymptoticVerdict(
            kind="limit_cycle",
            period=mean_period,
            amplitude=float(np.max(ptp_last)),
            diagnostics={"jitter": jitter, "ptp_drift": ptp_drift},
        )
    return AsymptoticVerdict(
        kind="undecided",
        diagnostics={"tail_displacement": displacement, "jitter": jitter, "ptp_drift": ptp_drift},
    )


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """CSV export with header t, x1..xn and u1..um when inputs were recorded."""
    n = traj.states.shape[1]
    header = ["t"] + [f"x{i + 1}" for i in range(n)]
    if traj.inputs is not None:
        header += [f"u{i + 1}" for i in range(traj.inputs.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(traj.times):
            row = [t, *traj.states[i]]
            if traj.inputs is not None:
                row.extend(traj.inputs[i])
            writer.writerow([f"{v:.17g}" for v in row])
