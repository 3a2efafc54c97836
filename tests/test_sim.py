import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import lti_model
from oracles import projective_measure
from pdom import matrixcore as mc, registry, sim
from pdom.differential import check_diff_dominance
from pdom.errors import DimensionError
from pdom.lti import LtiSystem, construct_certificate
from pdom.matrixcore import expm
from pdom.model import Channel, LureSystem, cubic_saturated, scaled, tabulated
from pdom.sim import (
    Trajectory,
    classify_asymptotics,
    integrate,
    integrate_batch,
    write_trajectory_csv,
)


class TestIntegrate:
    def test_scalar_decay(self):
        traj = integrate(lti_model(np.array([[-1.0]])), [1.0], t_end=1.0, dt=1e-3)
        assert traj.states[-1][0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_lti_matches_expm(self, msd_c4):
        traj = integrate(msd_c4, [1.0, 1.0], t_end=1.0, dt=1e-3)
        ref = expm(msd_c4.A, 1.0) @ np.array([1.0, 1.0])
        assert np.linalg.norm(traj.states[-1] - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_hurwitz_decay_to_origin(self, msd_c4):
        traj = integrate(msd_c4, [1.0, 1.0], t_end=40.0, dt=1e-3, record_every=10)
        assert np.linalg.norm(traj.states[-1]) < 1e-4

    def test_nonlinear_equilibrium(self):
        # unforced oscillator settles where the spring force and velocity vanish
        sys = registry.nonlinear_msd("velocity", "cubic")
        traj = integrate(sys, [1.0, 1.0], t_end=60.0, dt=1e-3, record_every=10)
        x1, x2 = traj.states[-1]
        assert abs(float(sys.channels[0].sigma(x1))) < 1e-6
        assert abs(x2) < 1e-6

    def test_constant_input(self):
        # xdot = -x + 1 settles at 1
        sys = LtiSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
        traj = integrate(sys, [0.0], t_end=20.0, dt=1e-3, input_policy=[1.0], record_every=10)
        assert traj.states[-1][0] == pytest.approx(1.0, abs=1e-6)
        assert traj.inputs is not None and traj.inputs[0][0] == 1.0

    @pytest.mark.parametrize("rows", [1, 70], ids=["generated-step", "numpy-loop"])
    def test_constant_input_is_a_hand_written_rk4(self, rows):
        # x' = -x + 0.3 u with u = 0.7, the same RK4 written out on floats: each stage rounds as both evaluators do
        sys = LtiSystem(A=[[-1.0]], B=[[0.3]], C=[[1.0]])
        trajs = integrate_batch(sys, np.zeros((rows, 1)), t_end=1.0, dt=0.1, input_policy=[0.7])
        x, dt, bias = 0.0, 0.1, 0.7 * 0.3
        half, sixth, states = 0.5 * dt, dt / 6.0, [0.0]
        f = lambda x: -x + bias
        for _ in range(10):
            k1 = f(x)
            k2 = f(x + half * k1)
            k3 = f(x + half * k2)
            k4 = f(x + dt * k3)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(x)
        for traj in trajs:
            assert traj.states[:, 0].tolist() == states
            assert traj.inputs.tolist() == [[0.7]] * 11

    def test_divergence_truncates(self):
        traj = integrate(lti_model(np.array([[1.0]])), [1.0], t_end=50.0, dt=1e-2)
        assert traj.truncated
        assert traj.states.shape[0] < 5001
        assert np.all(np.isfinite(traj.states))

    def test_batch_isolates_divergence(self):
        # one diverging row must not poison the bounded one
        A = np.diag([1.0, -1.0])
        sys = LtiSystem(A=A, B=np.zeros((2, 1)), C=np.eye(2), D=np.zeros((2, 1)))
        x0 = np.array([[1.0, 1.0], [0.0, 1.0]])
        trajs = integrate_batch(sys, x0, t_end=60.0, dt=1e-2)
        assert trajs[0].truncated and not trajs[1].truncated
        assert trajs[1].states[-1][1] == pytest.approx(np.exp(-60.0), abs=1e-12)

    def test_non_finite_start_rows_cut_at_first_record(self):
        loop = registry.nonlinear_loop()
        x0 = np.array(
            [
                [1.0, 0.5, -1.0, 0.2],
                [np.nan, 0.0, 0.0, 0.0],
                [-2.0, 1.0, 0.5, 0.0],
                [0.0, np.inf, 0.0, 0.0],
                [0.0, 0.0, -np.inf, 0.0],
            ]
        )
        trajs = integrate_batch(loop, x0, t_end=20.0, dt=1e-2, record_every=2)
        for i in (1, 3, 4):
            assert trajs[i].truncated and trajs[i].states.shape[0] == 1
            assert classify_asymptotics(trajs[i]).kind == "divergent"
        for i in (0, 2):
            alone = integrate(loop, x0[i], t_end=20.0, dt=1e-2, record_every=2)
            assert not trajs[i].truncated and trajs[i].states.shape == alone.states.shape
            assert np.allclose(trajs[i].states, alone.states, rtol=1e-12, atol=1e-12)

    def test_cut_rows_leave_the_field(self, monkeypatch):
        # x1' = x1 carries the first row past 1e9 near t = 16; the others stay bounded,
        # with x2' = -x2 + sigma(x2) through a table that the field looks up at every evaluation
        table = tabulated([-1e3, 0.0, 1e3], [-5e2, 0.0, 5e2])
        channel = Channel(g=[0.0, 1.0], h=[0.0, 1.0], sigma=table, alpha=0.5, beta=0.5)
        sys = LureSystem(A=np.diag([1.0, -1.0]), B=np.zeros((2, 1)), C=np.eye(2), channels=(channel,))
        rows_seen, lookups = [], []
        field, bisect = LureSystem.rhs, sim.bisect_right

        def counting_rhs(self, X):
            rows_seen.append(X.shape[0])
            return field(self, X)

        def counting_bisect(knots, s):
            lookups.append(s)
            return bisect(knots, s)

        monkeypatch.setattr(LureSystem, "rhs", counting_rhs)
        # the generated row step binds bisect_right when it is built, on the model's first run
        monkeypatch.setattr(sim, "bisect_right", counting_bisect)
        alone = integrate(sys, [1e-3, 1.0], t_end=20.0, dt=1e-2)
        wide = next(rows for rows in itertools.count(2) if not sim._takes_row_step(sys, rows))
        for rows in (2, wide):
            rows_seen.clear()
            lookups.clear()
            x0 = np.array([[1e2, 0.0]] + [[1e-3, 1.0]] * (rows - 1))
            trajs = integrate_batch(sys, x0, t_end=20.0, dt=1e-2)
            cut = trajs[0].states.shape[0]
            assert trajs[0].truncated and 1500 < cut < 1700
            if rows == 2:
                # row by row: four evaluations per step, the cut row's ending at its cut step
                assert rows_seen == [] and len(lookups) == 4 * cut + 4 * 2000
            else:
                # the numpy loop: every row up to the cut step, then the live rows only
                assert lookups == []
                assert rows_seen == [rows] * (4 * cut) + [rows - 1] * (4 * (2000 - cut))
            for traj in trajs[1:]:
                assert not traj.truncated and traj.states.shape == alone.states.shape
                assert np.allclose(traj.states, alone.states, rtol=1e-12, atol=1e-12)

    def test_rediverging_row_keeps_first_cut(self):
        # x1' = x1 + u would grow again from any point a cut row were left at,
        # while x1 = -1 is an equilibrium for the second row
        sys = LtiSystem(A=np.diag([1.0, -1.0]), B=[[1.0], [0.0]], C=np.eye(2), D=np.zeros((2, 1)))
        x0 = np.array([[1.0, 0.0], [-1.0, 1.0]])
        trajs = integrate_batch(sys, x0, t_end=60.0, dt=1e-2, input_policy=[1.0])
        first = integrate(sys, x0[0], t_end=60.0, dt=1e-2, input_policy=[1.0])
        # (x1 + 1) e^t passes 1e9 near t = 20, and again about 20 later from the origin
        assert first.truncated and 1900 < first.states.shape[0] < 2200
        assert trajs[0].truncated and trajs[0].states.shape[0] == first.states.shape[0]
        assert np.allclose(trajs[0].states, first.states, rtol=1e-12, atol=1e-12)
        assert not trajs[1].truncated and trajs[1].states.shape[0] == 6001
        assert np.all(np.isfinite(trajs[1].states))

    def test_stops_once_every_row_is_cut(self, monkeypatch):
        sys = LtiSystem(A=[[1.0]], B=[[0.0]], C=[[1.0]], D=[[0.0]])
        calls, field = [], LureSystem.rhs
        monkeypatch.setattr(LureSystem, "rhs", lambda self, X: calls.append(1) or field(self, X))
        rows = next(rows for rows in itertools.count(2) if not sim._takes_row_step(sys, rows))  # the numpy loop
        trajs = integrate_batch(sys, [[1.0], [-2.0]] * rows, t_end=100.0, dt=1e-2, input_policy=[0.0])
        assert all(tr.truncated for tr in trajs)
        # every row passes 1e9 before t = 21; no field evaluation comes after that
        assert 0 < len(calls) <= 4 * 2100

    def test_rk4_order(self, msd_c4):
        ref = expm(msd_c4.A, 1.0) @ np.array([1.0, 1.0])
        errors = []
        for dt in (2e-2, 1e-2, 5e-3):
            traj = integrate(msd_c4, [1.0, 1.0], t_end=1.0, dt=dt)
            errors.append(np.linalg.norm(traj.states[-1] - ref))
        assert 12.0 < errors[0] / errors[1] < 20.0
        assert 12.0 < errors[1] / errors[2] < 20.0

    def test_bad_arguments(self, msd_c4):
        with pytest.raises(ValueError):
            integrate(msd_c4, [1.0, 1.0], t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate(msd_c4, [1.0, 1.0], t_end=0.0, dt=1.0)

    # the last pair is finite, but its step count t_end / dt is not
    @pytest.mark.parametrize(
        "t_end, dt", [(np.inf, 0.01), (np.nan, 0.01), (1.0, np.nan), (np.inf, np.inf), (1e300, 1e-10)]
    )
    def test_non_finite_horizon_rejected(self, msd_c4, t_end, dt):
        with pytest.raises(ValueError, match="finite"):
            integrate_batch(msd_c4, [[1.0, 1.0]], t_end=t_end, dt=dt)

    @pytest.mark.parametrize("t_end, dt, record_every", [(1.0, 0.4, 1), (1.0, 0.4, 2), (1.0, 0.3, 1), (1.0, 1e-3 * (1 + 1e-8), 1)])
    def test_horizon_off_the_step_grid_rejected(self, msd_c4, t_end, dt, record_every):
        # 1.0 / 0.4 = 2.5 steps used to run 2 steps and end at t = 0.8, record_every=2 included
        with pytest.raises(ValueError, match="whole number of steps"):
            integrate_batch(msd_c4, [[1.0, 1.0]], t_end=t_end, dt=dt, record_every=record_every)

    def test_horizon_within_step_tol_runs_to_the_end(self, msd_c4):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point: three steps, ending at t_end
        traj = integrate(msd_c4, [1.0, 1.0], t_end=0.3, dt=0.1)
        assert traj.states.shape[0] == 4
        assert traj.times[-1] == pytest.approx(0.3, rel=1e-12)

    # the narrow batch would go to the generated step, the wide one to the numpy loop
    @pytest.mark.parametrize("shape", [(2, 3), (300, 3), (2, 2, 4), (3,)], ids=["narrow", "wide", "3-d", "single"])
    def test_start_off_the_state_width_rejected(self, shape):
        with pytest.raises(DimensionError, match=re.escape(f"shape {shape} fit neither (4,) nor (batch, 4)")):
            integrate_batch(registry.nonlinear_loop(), np.ones(shape), t_end=0.1, dt=1e-2)

    @pytest.mark.parametrize("width", [2, 0], ids=["too-wide", "too-narrow"])
    def test_constant_input_off_the_input_width_rejected(self, msd_c4, width):
        with pytest.raises(DimensionError, match=f"constant input of {width} entries does not match B's 1 columns"):
            integrate(msd_c4, [1.0, 1.0], t_end=0.1, dt=1e-2, input_policy=np.zeros(width))

    def test_input_to_a_system_without_inputs_rejected(self):
        still = LureSystem(A=np.zeros((2, 2)), B=np.zeros((2, 0)), C=np.zeros((0, 2)))
        with pytest.raises(DimensionError, match="constant input of 1 entries does not match B's 0 columns"):
            integrate(still, [1.0, 1.0], t_end=0.1, dt=1e-2, input_policy=[0.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_constant_input_rejected(self, msd_c4, value):
        # a NaN input used to return a one-sample truncated run, and an infinite one to warn in the field's product
        with pytest.raises(ValueError, match="constant input must be finite"):
            integrate(msd_c4, [1.0, 1.0], t_end=0.1, dt=1e-2, input_policy=[value])

    def test_overflowing_input_term_rejected(self):
        # a finite input whose B u overflows: a ValueError, as a non-finite input is, and no RuntimeWarning
        sys = LureSystem(A=[[0.0, 1.0], [-1.0, -8.0]], B=[[0.0], [10.0]], C=[[0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="B u must be finite"):
                integrate(sys, [1.0, 1.0], t_end=1.0, dt=0.1, input_policy=[1e308])

    def test_single_start_and_empty_batch_run(self):
        loop = registry.nonlinear_loop()
        (single,) = integrate_batch(loop, np.ones(4), t_end=0.1, dt=1e-2)
        assert single.states.shape == (11, 4)
        assert integrate_batch(loop, np.zeros((0, 4)), t_end=0.1, dt=1e-2) == []


def _channel_msd(sigma, alpha, beta):
    """x1' = x2, x2' = -x1 - x2 + sigma(x1) + u."""
    channel = Channel(g=[0.0, 1.0], h=[1.0, 0.0], sigma=sigma, alpha=alpha, beta=beta)
    return LureSystem(A=[[0.0, 1.0], [-1.0, -1.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]], channels=(channel,))


# tabulated: the starts put x1 below the table, inside it, on a knot and above it,
# where the first field evaluation reads sigma
_TABLE = tabulated([-1.0, 0.0, 0.5, 1.0], [-0.5, 0.0, 0.1, 0.4])


def _signed_model():
    """Leading -1 and negative coefficients, channel arguments that are not a state, three channels that
    feed only the second row, and an input whose B u has a zero entry for the input (0.3, 0)."""
    channels = (Channel(g=[0.0, -0.5], h=[1.0, 0.0], sigma=cubic_saturated(), alpha=-3.0, beta=1.0),
                Channel(g=[0.0, 0.25], h=[0.5, -1.0], sigma=scaled(0.5, cubic_saturated()), alpha=-1.5, beta=0.5),
                Channel(g=[0.0, 0.125], h=[0.0, -2.0], sigma=_TABLE, alpha=0.2, beta=0.6))
    return LureSystem(A=[[-1.0, 1.0], [-2.0, -1.0]], B=np.eye(2), C=np.eye(2), channels=channels)


# model, starts and constant input
_EVALUATOR_MODELS = {
    "cubic": (_channel_msd(cubic_saturated(), -3.0, 1.0), [[1.0, 1.0], [2.5, -1.0]], [0.3]),
    "scaled": (_channel_msd(scaled(0.5, cubic_saturated()), -1.5, 0.5), [[1.0, 1.0], [-2.5, 0.0]], [0.3]),
    "tabulated": (_channel_msd(_TABLE, 0.2, 0.6), [[-3.0, 0.0], [0.2, 0.1], [0.5, 0.0], [3.0, -1.0]], [0.3]),
    "loop": (registry.nonlinear_loop(), [[1.0, 0.5, -1.0, 0.2], [-2.0, 1.0, 0.5, 0.0]], [0.3, 0.3]),
    "signed": (_signed_model(), [[1.0, 1.0], [-2.5, 0.5]], [0.3, 0.0]),
}
_NON_FINITE = [np.nan, np.inf, -np.inf]


def _same_rows(model, x0, t_end, dt, every, input_policy):
    """Both evaluators on the same rows, with the field's ``B u`` of a constant input or none: equal cut flags
    and record lengths, and states to 1e-12 relative (bitwise, NaN-aware, for n <= 2). Returns the
    ``(states, truncated)`` runs."""
    steps = int(round(t_end / dt))
    bias = None if input_policy is None else np.asarray(input_policy, dtype=float) @ model.B.T
    rows = sim._rk4_rows(model, np.asarray(x0, dtype=float), steps, dt, every, bias)
    batch = sim._rk4_batch(model, np.asarray(x0, dtype=float), steps, dt, every, bias)
    for (a, a_cut), (b, b_cut) in zip(rows, batch, strict=True):
        assert a_cut == b_cut and a.shape == b.shape
        if model.n <= 2:
            np.testing.assert_array_equal(a, b)
        else:
            scale = np.abs(b[np.isfinite(b)]).max(initial=1.0)
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)
    return rows


class TestEvaluators:
    @pytest.mark.parametrize("every", [1, 5])
    @pytest.mark.parametrize("with_input", [False, True])
    @pytest.mark.parametrize("kind", sorted(_EVALUATOR_MODELS))
    def test_rows_match_the_numpy_loop(self, kind, with_input, every):
        model, starts, u = _EVALUATOR_MODELS[kind]
        starts = starts + [[v] + [0.0] * (model.n - 1) for v in _NON_FINITE]
        trajs = _same_rows(model, starts, t_end=10.0, dt=1e-2, every=every, input_policy=u if with_input else None)
        assert [cut for _, cut in trajs] == [False] * (len(starts) - 3) + [True] * 3
        assert all(states.shape[0] == 1 for states, _ in trajs[-3:])

    @pytest.mark.parametrize("model", [registry.nonlinear_loop(), _signed_model()], ids=["loop", "signed"])
    def test_generated_step_holds_only_needed_terms(self, model):
        bare, _ = sim._row_step_source(model, with_input=False)
        assert not re.search(r"\bu\d", bare) and "(0.0)" not in bare and "* -1.0" not in bare
        assert "sqrt" not in bare and "<= 1e+18:" in bare
        driven, _ = sim._row_step_source(model, with_input=True)
        for i in range(model.n):  # every row adds its B u entry, a zero one too, as the numpy loop does
            assert re.search(rf"k1_{i} = .* \+ u{i}$", driven, re.M)

    def test_table_slopes_keep_their_bits(self):
        # a table's segment slopes are computed once, when it is built, with the IEEE operations that the
        # field and the generated step repeated on every call before; the digests are of that older code
        model = registry.builtin_system("nl-msd-monotone")
        table = model.channels[0].sigma.params
        kn, vs = table["knots"].tolist(), table["values"].tolist()
        assert table["slopes"].tolist() == [(v1 - v0) / (k1 - k0) for k0, k1, v0, v1 in zip(kn, kn[1:], vs, vs[1:])]
        s = np.linspace(-8.0, 8.0, 161)  # inside the table, at its knots and beyond both ends
        X = np.stack([np.concatenate([s, np.arange(-6.0, 7.0)]), np.concatenate([-0.5 * s, np.ones(13)])], axis=1)
        assert hashlib.sha256(model.rhs(X).tobytes()).hexdigest()[:16] == "33ee39f31fa01e35"
        for with_input, digest in ((False, "feed9489034660df"), (True, "eba331bcac6a906d")):
            source, _ = sim._row_step_source(model, with_input)
            assert hashlib.sha256(source.encode()).hexdigest()[:16] == digest

    def test_signed_terms_are_subtractions(self):
        source, _ = sim._row_step_source(_signed_model(), with_input=False)
        assert "k1_0 = -x0 + x1\n" in source
        assert "z1 = x0 * 0.5 - x1\n" in source and "z2 = x1 * -2.0\n" in source
        assert "k1_1 = x0 * -2.0 - x1 + (z0 * -0.5 + z1 * 0.25 + z2 * 0.125)\n" in source
        # the first channel's argument is x0 itself: sigma reads it with no copy
        assert "z0 = x0 - " in source and "z0 = x0\n" not in source

    def test_each_input_variant_is_built_once(self):
        model = _signed_model()
        integrate(model, [1.0, 1.0], t_end=0.1, dt=1e-2)
        integrate(model, [1.0, 1.0], t_end=0.1, dt=1e-2, input_policy=[0.3, 0.0])
        bare, driven = vars(model)["_row_step"], vars(model)["_input_row_step"]
        assert bare is not driven
        integrate(model, [2.0, 1.0], t_end=0.1, dt=1e-2)
        integrate(model, [2.0, 1.0], t_end=0.1, dt=1e-2, input_policy=[0.0, 1.0])
        assert vars(model)["_row_step"] is bare and vars(model)["_input_row_step"] is driven

    def test_divergence_boundary_is_the_squared_norm(self):
        # x.x <= 1e18 is the rule |x| <= 1e9: 1e18 is a float, and the square root of the next float
        # above it rounds above 1e9; so a norm of exactly 1e9 is kept and the next float is cut
        still = LureSystem(A=np.zeros((2, 2)), B=np.zeros((2, 0)), C=np.zeros((0, 2)))
        above = np.nextafter(1e9, np.inf)
        starts = [[1e9, 0.0], [0.0, -1e9], [6e8, 8e8], [above, 0.0], [0.0, -above]]
        runs = _same_rows(still, starts, t_end=0.1, dt=1e-2, every=1, input_policy=None)
        assert [cut for _, cut in runs] == [False, False, False, True, True]
        assert [not math.sqrt(a * a + b * b) <= 1e9 for a, b in starts] == [cut for _, cut in runs]
        assert [len(states) for states, _ in runs] == [11, 11, 11, 1, 1]

    def test_diverging_lti_row(self):
        sys = LtiSystem(A=np.diag([1.0, -1.0]), B=np.zeros((2, 1)), C=np.eye(2))
        (_, first_cut), (_, second_cut) = _same_rows(sys, [[1e2, 0.0], [1e-3, 1.0]], 20.0, 1e-2, 5, None)
        assert first_cut and not second_cut

    @pytest.mark.parametrize(
        "rows, dt, every, cut", [(10, 1e-2, 2, False), (16, 2.5e-2, 5, False), (256, 2e-2, 5, True)]
    )
    def test_nl_loop_batches_match_bitwise(self, rows, dt, every, cut):
        # the benchmark's nl-loop batch shapes: a batched numpy product sums in sequence, as the
        # generated step does, so the two agree to the bit; the wide batch has two rows cut at the
        # first step, one from a norm of 1e9 and one from a NaN entry
        loop = registry.nonlinear_loop()
        x0 = np.random.default_rng(rows).uniform(-3.0, 3.0, (rows, 4))
        if cut:
            x0[-2:] = [[1e9, 0.0, 0.0, 0.0], [0.0, np.nan, 0.0, 0.0]]
        steps = int(round(50.0 / dt))
        by_rows = sim._rk4_rows(loop, x0, steps, dt, every, None)
        batch = sim._rk4_batch(loop, x0, steps, dt, every, None)
        ends = [(1, True)] * 2 if cut else [(steps // every + 1, False)] * 2
        assert [(len(a), a_cut) for a, a_cut in by_rows[-2:]] == ends
        for (a, a_cut), (b, b_cut) in zip(by_rows, batch, strict=True):
            assert a_cut == b_cut
            np.testing.assert_array_equal(a, b)

    def test_numpy_loop_holds_its_records_once(self):
        # 256 nl-loop rows over 250 steps, none diverging: one record array plus the working arrays
        loop = registry.nonlinear_loop()
        x0 = np.random.default_rng(0).uniform(-3.0, 3.0, (256, 4))
        tracemalloc.start()
        try:
            runs = sim._rk4_batch(loop, x0, 250, 2e-2, 1, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(cut for _, cut in runs)
        assert peak <= 1.25 * 251 * 256 * 4 * 8

    @pytest.mark.parametrize(
        "name, rows, generated",
        [("nl-msd", 1, True), ("msd-c8", 1, True), ("nl-loop", 10, True), ("nl-loop", 16, True),
         ("nl-loop", 256, False), ("dense-8", 4, False), ("msd-c8", 33, False)],
    )
    def test_rule_picks_the_evaluator(self, monkeypatch, name, rows, generated):
        # msd-c8 has 3 non-zeros in A; its 33 rows would pass on the non-zeros alone, but not on the row cost
        if name == "dense-8":
            A = np.random.default_rng(8).normal(size=(8, 8)) - 4.0 * np.eye(8)
            model = LureSystem(A=A, B=np.zeros((8, 0)), C=np.zeros((0, 8)))
        else:
            model = registry.builtin_system(name)
        assert sim._takes_row_step(model, rows) == generated
        calls, field = [], LureSystem.rhs
        monkeypatch.setattr(LureSystem, "rhs", lambda self, X: calls.append(1) or field(self, X))
        trajs = integrate_batch(model, np.ones((rows, model.n)), t_end=0.1, dt=1e-2)
        assert len(trajs) == rows and all(t.states.shape == (11, model.n) for t in trajs)
        # the generated step never calls the numpy field; the numpy loop calls it four times a step
        assert len(calls) == (0 if generated else 40)


def _in_process(model, x0, steps, dt, every):
    """The generated step on each row, one after another: the in-process loop that a split must match."""
    sim._rk4_rows(model, x0[:1], 1, dt, 1, None)  # builds the model's step
    return [vars(model)["_row_step"](x, steps // every, every, dt, ()) for x in x0.tolist()]


@pytest.mark.skipif(sys.platform != "linux", reason="the integrator splits a batch across CPUs on Linux alone")
class TestRowsOnCpus:
    """A generated-step batch with enough work runs one chunk of rows per CPU, each past the first in a forked
    child: every record and cut flag is the in-process loop's, a child's error is raised in the caller, and no
    child or thread outlives the call."""

    @pytest.fixture
    def forks(self, monkeypatch):
        calls, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
        return calls

    @staticmethod
    def _assert_nothing_left(threads):
        with pytest.raises(ChildProcessError):  # no child at all, running or unreaped
            os.waitpid(-1, os.WNOHANG)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize(
        "rows, dt, every, t_end, cut",
        [(10, 1e-2, 2, 50.0, False), (16, 2.5e-2, 5, 100.0, False), (10, 1e-2, 2, 50.0, True)],
        ids=["loop-batch", "narrow-batch", "cut-rows"],
    )
    def test_split_keeps_the_bits(self, monkeypatch, forks, cpus, rows, dt, every, t_end, cut):
        # the benchmark's nl-loop shapes; the last batch's two cut rows, one of norm 1e9 and one with a NaN,
        # sit in the last child's chunk at 2 and 3 CPUs
        loop = registry.nonlinear_loop()
        x0 = np.random.default_rng(rows).uniform(-3.0, 3.0, (rows, 4))
        if cut:
            x0[-2:] = [[1e9, 0.0, 0.0, 0.0], [0.0, np.nan, 0.0, 0.0]]
        steps, threads = int(round(t_end / dt)), threading.active_count()
        assert rows * steps * sim._row_cost(loop) >= sim._SPLIT_WORK
        expected = _in_process(loop, x0, steps, dt, every)
        monkeypatch.setattr(mc, "_CPUS", cpus)
        runs = sim._rk4_rows(loop, x0, steps, dt, every, None)
        assert len(forks) == cpus - 1
        assert [flag for _, flag in runs] == [flag for _, flag in expected] == [False] * (rows - 2) + [cut] * 2
        for (a, _), (b, _) in zip(runs, expected, strict=True):
            assert a.dtype == b.dtype and not a.flags.writeable
            assert np.array_equal(a, b, equal_nan=True)
        self._assert_nothing_left(threads)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("row, where", [(9, "child"), (0, "caller")])
    def test_an_error_reaches_the_caller_and_leaves_no_child(self, monkeypatch, forks, cpus, row, where):
        loop = registry.nonlinear_loop()
        x0 = np.random.default_rng(10).uniform(-3.0, 3.0, (10, 4))
        _in_process(loop, x0[:1], 1, 1e-2, 1)
        step, bad = vars(loop)["_row_step"], x0[row].tolist()

        def failing(x, *args):
            if x == bad:
                raise ZeroDivisionError(f"row {row} failed in the {where}")
            return step(x, *args)

        vars(loop)["_row_step"] = failing
        monkeypatch.setattr(mc, "_CPUS", cpus)
        threads = threading.active_count()
        with pytest.raises(ZeroDivisionError) as caught:
            sim._rk4_rows(loop, x0, 5000, 1e-2, 2, None)
        assert caught.type is ZeroDivisionError and str(caught.value) == f"row {row} failed in the {where}"
        assert len(forks) == cpus - 1
        self._assert_nothing_left(threads)

    def test_no_fork_without_a_split(self, monkeypatch, forks):
        loop = registry.nonlinear_loop()
        x0 = np.random.default_rng(10).uniform(-3.0, 3.0, (40, 4))
        monkeypatch.setattr(mc, "_CPUS", 2)
        cost = sim._row_cost(loop)
        assert 40_000 * cost >= sim._SPLIT_WORK > 10 * 3_000 * cost
        sim._rk4_rows(loop, x0[:1], 40_000, 1e-2, 10, None)  # one row
        sim._rk4_rows(loop, x0[:10], 3_000, 1e-2, 2, None)  # under the work bound
        ready = threading.Event()
        waiting = threading.Thread(target=ready.wait, args=(60.0,))
        waiting.start()
        try:
            sim._rk4_rows(loop, x0[:10], 5_000, 1e-2, 2, None)  # a live second Python thread
        finally:
            ready.set()
            waiting.join(60.0)
        assert not waiting.is_alive()
        integrate_batch(loop, x0, t_end=10.0, dt=1e-2)  # 40 rows: the numpy loop
        monkeypatch.setattr(mc, "_CPUS", 1)
        sim._rk4_rows(loop, x0[:10], 5_000, 1e-2, 2, None)  # one CPU
        assert forks == []

    def test_a_split_loads_no_module(self):
        # in a fresh interpreter: import pdom loads no module that its parent did not, a split loads none at
        # all, and neither multiprocessing nor concurrent.futures is ever loaded
        code = """if True:
            import sys
            import numpy as np
            before = set(sys.modules)
            import pdom
            from pdom import matrixcore as mc, registry, sim
            extra = {m for m in set(sys.modules) - before if m.split(".")[0] != "pdom"}
            assert extra <= {"__future__", "_csv", "array", "copy", "csv", "dataclasses"}, extra
            x0 = np.linspace(-3.0, 3.0, 40).reshape(10, 4)
            loaded, forked = set(sys.modules), []
            fork, mc._CPUS = sim.os.fork, 2
            sim.os.fork = lambda: forked.append(1) or fork()
            pdom.integrate_batch(registry.nonlinear_loop(), x0, t_end=50.0, dt=1e-2, record_every=2)
            assert forked == [1] and set(sys.modules) == loaded, set(sys.modules) - loaded
            assert "multiprocessing" not in sys.modules and "concurrent.futures" not in sys.modules
            print("ok")
        """
        src = os.path.dirname(os.path.dirname(sim.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0 and out.stdout == "ok\n", out.stderr


class TestReadOnlyRecords:
    @pytest.mark.parametrize(
        "rows", [1, 40], ids=["generated-step", "numpy-loop"],
    )
    def test_a_write_into_a_returned_trajectory_raises(self, msd_c4, rows):
        trajs = integrate_batch(msd_c4, np.ones((rows, 2)), t_end=1.0, dt=1e-2, input_policy=[0.5])
        for traj in trajs:
            for array in (traj.states, traj.inputs):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0
            # the integrator's records are kept, not copied
            assert Trajectory(0.0, traj.dt, traj.states, traj.inputs).states is traj.states

    def test_a_callers_later_write_reaches_no_trajectory(self, msd_c4):
        states, inputs = np.array(integrate(msd_c4, [1.0, 1.0], t_end=1.0, dt=1e-2).states), np.zeros((101, 1))
        traj = Trajectory(0.0, 1e-2, states, inputs)
        kept = traj.states.copy()
        states[...], inputs[...] = 7.0, 7.0
        np.testing.assert_array_equal(traj.states, kept)
        assert not traj.inputs.any()


class TestClassify:
    def test_fixed_point_single_oscillator(self):
        sys = registry.nonlinear_msd("velocity", "cubic")
        traj = integrate(sys, [1.0, 1.0], t_end=100.0, dt=1e-3, record_every=10)
        verdict = classify_asymptotics(traj)
        assert verdict.kind == "fixed_point"
        assert verdict.location == pytest.approx([np.sqrt(3.0), 0.0], abs=1e-6)

    def test_limit_cycle_loop(self):
        loop = registry.nonlinear_loop()
        traj = integrate(loop, [1.0, 0.5, -1.0, 0.2], t_end=400.0, dt=1e-2, record_every=2)
        verdict = classify_asymptotics(traj)
        assert verdict.kind == "limit_cycle"
        assert verdict.period == pytest.approx(52.9, abs=0.5)
        assert verdict.amplitude > 0.5

    def test_divergent(self):
        traj = integrate(lti_model(np.array([[1.0]])), [1.0], t_end=60.0, dt=1e-2)
        assert classify_asymptotics(traj).kind == "divergent"

    def test_equilibrium_start_stays(self):
        loop = registry.nonlinear_loop()
        traj = integrate(loop, np.zeros(4), t_end=50.0, dt=1e-2)
        verdict = classify_asymptotics(traj)
        assert verdict.kind == "fixed_point"
        assert np.allclose(verdict.location, 0.0)

    def test_short_oscillation_undecided(self):
        # harmonic motion with under six recorded crossings stays undecided
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        traj = integrate(lti_model(A), [1.0, 0.0], t_end=12.0, dt=1e-2)
        assert classify_asymptotics(traj).kind == "undecided"


class TestModalDecay:
    def test_transient_start_keeps_dominant_zero(self, msd_c4):
        # U(x) = x^T P_u x vanishes on the transient subspace ker P_u, which the flow keeps invariant.
        # P_u has rank p = 1, so U(x) = mu (v^T x)^2 with (mu, v) its top eigenpair: the bound on U is
        # the square of a bound of 1e-9 on the dominant coordinate v^T x of a unit start
        P_u = projective_measure(msd_c4, registry.KNOWN_RATE, 1).P_u
        values, vectors = np.linalg.eigh(P_u)
        traj = integrate(msd_c4, vectors[:, 0], t_end=5.0, dt=1e-3)  # a unit start in ker P_u
        U = values[-1] * (traj.states @ vectors[:, -1]) ** 2
        assert np.max(U) <= 1e-18 * np.linalg.norm(P_u, 2)


class TestMultistability:
    """Multistability probed by simulation: integrate_batch over a grid of starts, classify_asymptotics on each."""

    @staticmethod
    def _settle(sys, grid, t_end, dt):
        verdicts = [classify_asymptotics(t) for t in integrate_batch(sys, grid, t_end, dt)]
        assert all(v.kind == "fixed_point" for v in verdicts), [v.kind for v in verdicts]
        return np.array([v.location for v in verdicts])

    @staticmethod
    def _equilibria(points):
        # merge fixed points within ten fixed-point tolerances of a kept one
        clusters = []
        for point in points:
            radius = 10.0 * sim.FP_TOL_SCALE * (1.0 + float(np.linalg.norm(point)))
            if not any(np.linalg.norm(point - c) <= radius for c in clusters):
                clusters.append(point)
        return np.array(clusters)

    def test_cubic_grid_equilibria(self):
        sys = registry.nonlinear_msd("velocity", "cubic")
        axis = np.linspace(-3.0, 3.0, 5)
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        equilibria = self._equilibria(self._settle(sys, grid, t_end=100.0, dt=1e-3))
        roots = np.sort(equilibria[:, 0])
        assert roots == pytest.approx([-np.sqrt(3.0), 0.0, np.sqrt(3.0)], abs=1e-5)
        assert np.max(np.abs(equilibria[:, 1])) < 1e-6

    def test_contractive_single_cluster(self):
        sys = registry.nonlinear_msd("velocity", "contractive")
        assert check_diff_dominance(sys, registry.MONOTONE_STORAGE, 0.0).passed
        axis = np.linspace(-1.0, 1.0, 3)
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        equilibria = self._equilibria(self._settle(sys, grid, t_end=150.0, dt=2e-3))
        assert len(equilibria) == 1
        assert np.allclose(equilibria[0], 0.0, atol=1e-5)

    def test_single_point_grid(self):
        sys = registry.nonlinear_msd("velocity", "cubic")
        points = self._settle(sys, np.array([[1.0, 1.0]]), t_end=100.0, dt=1e-3)
        assert len(self._equilibria(points)) == 1

    def test_cycle_violates_probe(self):
        # every start off the origin reaches the loop's one limit cycle: no fixed point to report
        loop = registry.nonlinear_loop()
        grid = np.array([[1.0, 0.5, -1.0, 0.2], [-1.0, -0.5, 1.0, -0.2], [0.1, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, -2.0]])
        verdicts = [classify_asymptotics(t) for t in integrate_batch(loop, grid, t_end=400.0, dt=1e-2)]
        assert [v.kind for v in verdicts] == ["limit_cycle"] * 4
        assert [v.period for v in verdicts] == pytest.approx([52.9] * 4, abs=0.5)


class TestIncrementalContraction:
    def test_distance_nonincreasing_for_contractive_systems(self, rng):
        # certified storages make the induced distance shrink along 50 pairs
        P = registry.MONOTONE_STORAGE
        sys = registry.nonlinear_msd("velocity", "contractive")
        assert check_diff_dominance(sys, P, 0.0).passed
        X0 = rng.uniform(-2.0, 2.0, size=(60, 2))
        trajs = integrate_batch(sys, X0, t_end=20.0, dt=1e-3, record_every=10)
        lin = construct_certificate(registry.msd(4.0), 0.0, 0)
        lin_trajs = integrate_batch(
            registry.msd(4.0), rng.uniform(-2, 2, size=(40, 2)), t_end=20.0, dt=1e-3, record_every=10
        )
        pairs = [(trajs[2 * i], trajs[2 * i + 1], P) for i in range(30)]
        pairs += [(lin_trajs[2 * i], lin_trajs[2 * i + 1], lin.P) for i in range(20)]
        assert len(pairs) == 50
        for ta, tb, metric in pairs:
            delta = ta.states - tb.states
            dist = np.sqrt(np.einsum("ij,jk,ik->i", delta, metric, delta))
            assert np.all(np.diff(dist) <= 1e-6 * np.maximum(1.0, dist[:-1]))


class TestCsv:
    def test_header_and_length(self, msd_c4, tmp_path):
        traj = integrate(msd_c4, [1.0, 1.0], t_end=0.1, dt=1e-2, input_policy=[0.5])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,u1"
        assert len(lines) == traj.states.shape[0] + 1

    def test_trajectory_validation(self):
        with pytest.raises(Exception):
            Trajectory(t0=0.0, dt=0.1, states=np.zeros((3, 2)), inputs=np.zeros((2, 1)))
