import inspect
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pdom
from pdom import registry, sim
from pdom.cones import QuadraticCone
from pdom.dissipativity import DissipativityCertificate, SupplyRate, supply_gain, supply_passivity
from pdom.lti import DominanceCertificate, check_dominance
from pdom.differential import Channel, LureSystem, Nonlinearity, cubic_saturated, scaled, tabulated
from pdom.errors import UnsupportedConfigurationError
from pdom.lti import LtiSystem

SYSTEM_KEYS = {"name", "A", "B", "C", "D", "channels"}
KNOTS, VALUES = [-1.0, 0.0, 2.0], [0.5, 0.0, -1.0]


def _dominance(eps):
    return DominanceCertificate(P=registry.PASSIVITY_STORAGE_C8, rate=registry.KNOWN_RATE, epsilon=eps, p=1)


def _dissipativity(supply):
    return DissipativityCertificate(P=registry.PASSIVITY_STORAGE_C8, rate=registry.KNOWN_RATE, epsilon=0.0, p=1,
                                    supply=supply)


def _with_feedthrough():
    return LureSystem(A=-np.eye(2), B=[[1.0], [0.0]], C=[[0.0, 1.0]], D=[[0.5]], name="direct")


class TestOneModel:
    def test_lti_is_the_lure_class(self):
        assert pdom.LtiSystem is pdom.LureSystem is LtiSystem
        assert "__post_init__" in vars(pdom.differential.LureSystem)

    @pytest.mark.parametrize("name", registry.builtin_names())
    def test_key_set_and_round_trip(self, name):
        sys = registry.builtin_system(name)
        data = sys.to_dict()
        assert set(data) == SYSTEM_KEYS
        assert LureSystem.from_dict(data) == sys

    def test_feedthrough_round_trip(self):
        sys = _with_feedthrough()
        assert not sys.is_strictly_proper
        assert LureSystem.from_dict(sys.to_dict()) == sys

    def test_old_formats_load(self):
        # linear files carry "D" and no "channels"; Lur'e files the reverse
        lti = registry.msd(8.0).to_dict()
        del lti["channels"]
        assert LtiSystem.from_dict(lti) == registry.msd(8.0)
        lure = registry.nonlinear_msd("mixed", "cubic").to_dict()
        del lure["D"]
        assert LureSystem.from_dict(lure) == registry.nonlinear_msd("mixed", "cubic")

    @pytest.mark.parametrize("value", [True, False, "1.0", None])
    def test_json_numbers_are_numbers(self, value):
        channel = registry.nonlinear_msd("mixed", "cubic").channels[0].to_dict()
        for field in ("alpha", "beta"):
            with pytest.raises(ValueError, match=f"{field} must be a number"):
                Channel.from_dict({**channel, field: value})
        factor = {"kind": "scaled", "factor": value, "base": {"kind": "cubic_saturated"}}
        with pytest.raises(ValueError, match="factor must be a number"):
            Nonlinearity.from_dict(factor)
        with pytest.raises(ValueError, match="gamma must be a number"):
            SupplyRate.from_dict({"kind": "gain", "gamma": value}, r=1, m=1)

    def test_default_feedthrough_is_zero(self):
        sys = LtiSystem(A=-np.eye(3), B=np.ones((3, 2)), C=np.ones((1, 3)))
        assert sys.D.shape == (1, 2) and sys.is_strictly_proper and sys.channels == ()

    @pytest.mark.parametrize(
        "routine",
        [
            lambda sys: pdom.eigen_split_test(sys, 0.0, 0),
            lambda sys: pdom.construct_certificate(sys, 0.0, 0),
            lambda sys: pdom.positivity_probe(
                sys, pdom.QuadraticCone(P=np.diag([-1.0, 1.0, 1.0, 1.0]), p=1), (1.0,), 4, np.random.default_rng(0)
            ),
            lambda sys: pdom.min_gain(sys, np.diag([-1.0, 1.0, 1.0, 1.0]), 1.0),
            lambda sys: pdom.find_passivity_storage(sys, 1.0, 2),
        ],
        ids=["eigen_split_test", "construct_certificate", "positivity_probe", "min_gain",
             "find_passivity_storage"],
    )
    def test_routines_reading_a_refuse_a_lure_model(self, routine):
        # A is only the linear part of nl-loop: a certificate constructed from it fails 3 of the 4 vertices
        with pytest.raises(UnsupportedConfigurationError, match="reads A alone"):
            routine(registry.nonlinear_loop())

    @pytest.mark.parametrize(
        "routine",
        [
            lambda A: pdom.check_dominance(A, _dominance(0.0)),
            lambda A: pdom.check_diff_dominance(A, registry.PASSIVITY_STORAGE_C8, registry.KNOWN_RATE),
            lambda A: pdom.eigen_split_test(A, registry.KNOWN_RATE, 1),
            lambda A: pdom.construct_certificate(A, registry.KNOWN_RATE, 1),
            lambda A: pdom.positivity_probe(
                A, QuadraticCone(P=registry.KNOWN_STORAGE[4], p=1), (1.0,), 4, np.random.default_rng(0)
            ),
            lambda A: pdom.integrate(A, [1.0, 1.0], t_end=1.0, dt=0.1),
            lambda A: pdom.integrate_batch(A, np.ones((2, 2)), t_end=1.0, dt=0.1),
            lambda A: pdom.min_gain(A, registry.PASSIVITY_STORAGE_C8, registry.KNOWN_RATE),
            lambda A: pdom.find_passivity_storage(A, registry.KNOWN_RATE, 1),
            lambda A: pdom.verify_dissipativity(A, _dissipativity(supply_passivity(1))),
            lambda A: pdom.check_diff_dissipativity(
                A, registry.PASSIVITY_STORAGE_C8, registry.KNOWN_RATE, supply_passivity(1)
            ),
            lambda A: pdom.closed_loop_certificate(
                A, _dissipativity(supply_passivity(1)), A, _dissipativity(supply_passivity(1))
            ),
            lambda A: pdom.vertex_family(A),
        ],
        ids=["check_dominance", "check_diff_dominance", "eigen_split_test", "construct_certificate",
             "positivity_probe", "integrate", "integrate_batch", "min_gain",
             "find_passivity_storage", "verify_dissipativity", "check_diff_dissipativity",
             "closed_loop_certificate", "vertex_family"],
    )
    def test_every_routine_refuses_a_bare_state_matrix(self, routine):
        # a system enters pdom only as a model; msd-c8's A, as an array or as nested lists, is not one
        for bare in (registry.msd(8.0).A, registry.msd(8.0).A.tolist()):
            with pytest.raises(UnsupportedConfigurationError):
                routine(bare)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda bad: Channel(g=[bad, 1.0], h=[1.0, 0.0], sigma=cubic_saturated(), alpha=-3.0, beta=1.0),
            lambda bad: Channel(g=[0.0, 1.0], h=[1.0, bad], sigma=cubic_saturated(), alpha=-3.0, beta=1.0),
            lambda bad: scaled(bad, cubic_saturated()),
            lambda bad: tabulated([KNOTS[0], bad, KNOTS[2]], VALUES),
            lambda bad: tabulated(KNOTS, [VALUES[0], bad, VALUES[2]]),
        ],
        ids=["g", "h", "factor", "knot", "value"],
    )
    def test_non_finite_fields_are_refused_at_construction(self, build, bad):
        # before, g = [nan, 1] or scaled(inf, cubic) with bounds (-inf, inf) built a model, and its
        # generated RK4 step then raised NameError on the name "nan" or "inf"
        with pytest.raises(ValueError, match="finite"):
            build(bad)

    def test_overflowing_table_slope_is_refused(self):
        with pytest.raises(ValueError, match="finite"):
            tabulated([0.0, 1e-300], [0.0, 1e300])

    @pytest.mark.parametrize(
        "g, h, alpha",
        [([0.0, 1e200], [1e200, 0.0], -3.0), ([0.0, 1e154], [1e154, 0.0], -3e10)],
        ids=["product", "vertex-bound"],
    )
    def test_overflowing_channel_terms_are_refused(self, g, h, alpha):
        # g and h are finite, but g h^T, or the bound on the vertex matrices, is not: refused when the model is
        # built, with no RuntimeWarning, so no vertex check meets a non-finite entry
        channel = Channel(g=g, h=h, sigma=cubic_saturated(), alpha=alpha, beta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="channel terms overflow"):
                LureSystem(A=[[0.0, 1.0], [-1.0, -8.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]], channels=(channel,))

    def test_channel_terms_at_infinite_slope_bounds(self):
        # no vertex family is built at infinite bounds, so only g h^T must be finite
        channel = Channel(g=[0.0, 1e154], h=[1e154, 0.0], sigma=cubic_saturated(), alpha=-np.inf, beta=np.inf)
        LureSystem(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 2)), channels=(channel,))
        with pytest.raises(ValueError, match="channel terms overflow"):
            LureSystem(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 2)),
                       channels=(Channel(g=[0.0, 1e200], h=[1e200, 0.0], sigma=cubic_saturated(),
                                         alpha=-np.inf, beta=np.inf),))


class TestNoUnsetOptions:
    def test_removed_parameters(self):
        # a stated p or margin is a certificate's; the pair's channels and the system's name are fixed
        for routine, removed in (
            (pdom.check_diff_dominance, {"p", "epsilon"}),
            (pdom.check_diff_dissipativity, {"p", "epsilon"}),
            (pdom.small_gain_pair, {"r1", "r2"}),
            (registry.msd, {"name"}),
        ):
            assert not removed & set(inspect.signature(routine).parameters)


class TestValueEquality:
    def test_models(self):
        assert registry.msd(8.0) == registry.msd(8.0)
        assert registry.msd(8.0) != registry.msd(4.0)
        assert registry.nonlinear_loop() == registry.nonlinear_loop()
        assert registry.nonlinear_msd("velocity", "cubic") != registry.nonlinear_msd("velocity", "monotone")
        assert registry.msd(8.0) != registry.msd(8.0).A
        assert registry.msd(8.0) != "msd-c8"

    def test_channels(self):
        a, b = registry.nonlinear_loop().channels
        assert a == registry.nonlinear_loop().channels[0]
        assert a != b
        assert a != None  # noqa: E711

    def test_nonlinearities(self):
        assert tabulated(KNOTS, VALUES) == tabulated(np.array(KNOTS), np.array(VALUES))
        assert tabulated(KNOTS, VALUES) != tabulated(KNOTS, [0.5, 0.0, -2.0])
        assert scaled(2.0, cubic_saturated()) == scaled(2.0, cubic_saturated())
        assert scaled(2.0, cubic_saturated()) != scaled(3.0, cubic_saturated())
        assert cubic_saturated() != tabulated(KNOTS, VALUES)

    @pytest.mark.parametrize(
        "build, same, other",
        [
            (supply_passivity, 2, 3),
            (lambda g: supply_gain(g, 1, 1), 0.5, 0.6),
            (_dominance, 1e-3, 2e-3),
            (_dissipativity, supply_passivity(1), supply_gain(0.5, 1, 1)),
        ],
        ids=["passivity", "gain", "dominance", "dissipativity"],
    )
    def test_certificates_and_supplies(self, build, same, other):
        a, b, c = build(same), build(same), build(other)
        assert a is not b and a == b and not a != b
        assert a != c and a.to_dict() != c.to_dict()
        assert a != a.to_dict() and a != np.zeros(2) and a != None  # noqa: E711

    def test_nonlinearity_hash(self):
        assert hash(cubic_saturated()) == hash(cubic_saturated())
        assert hash(tabulated(KNOTS, VALUES)) == hash(tabulated(KNOTS, VALUES))
        assert len({tabulated(KNOTS, VALUES), tabulated(KNOTS, VALUES), cubic_saturated()}) == 2

    def test_fused_field_groups_equal_sigmas(self):
        channels = tuple(
            Channel(g=g, h=h, sigma=tabulated(KNOTS, VALUES), alpha=-0.75, beta=-0.5)
            for g, h in (([1.0, 0.0], [0.0, 1.0]), ([0.0, 1.0], [1.0, 0.0]))
        )
        sys = LureSystem(A=-np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)), channels=channels)
        assert len(sys._sigma_blocks) == 1


class TestOwnedArrays:
    def test_caller_writes_after_a_run_reach_nothing(self):
        # the monotone oscillator, a storage, a supply, a cone and a scaled spring, each built from arrays
        # (or a dict) the caller keeps
        ref = registry.nonlinear_msd("velocity", "monotone")
        A, B, C, D = (np.array(a) for a in (ref.A, ref.B, ref.C, ref.D))
        g, h = np.array(ref.channels[0].g), np.array(ref.channels[0].h)
        knots, values = (np.array(ref.channels[0].sigma.params[key]) for key in ("knots", "values"))
        channel = Channel(g=g, h=h, sigma=tabulated(knots, values), alpha=-2.0, beta=-0.5)
        model = LureSystem(A=A, B=B, C=C, D=D, channels=(channel,))
        P, P_cone = np.array(registry.MONOTONE_STORAGE), np.array(registry.KNOWN_STORAGE[4])
        Q, L, R = np.zeros((1, 1)), np.array([[0.5]]), np.zeros((1, 1))
        cert = DissipativityCertificate(P=P, rate=0.0, epsilon=0.0, p=0, supply=SupplyRate(Q=Q, L=L, R=R))
        cone = QuadraticCone(P=P_cone, p=1)
        params = {"factor": 2.0, "base": cubic_saturated()}
        half_spring = Nonlinearity(kind="scaled", params=params)
        starts = np.array([[1.0, 1.0], [-2.5, 0.5]])

        def run():
            rows = sim._rk4_rows(model, starts, 200, 1e-2, 5, None)
            batch = sim._rk4_batch(model, starts, 200, 1e-2, 5, None)
            return ([states for states, _ in rows], [states for states, _ in batch],
                    check_dominance(model, cert), model.to_dict(), cert.to_dict(), cone.P.tolist(),
                    half_spring.to_dict(), float(half_spring(1.0)), hash(half_spring))

        first = run()  # compiles the model's generated step from the A it holds
        for array in (A, B, C, D, g, h, knots, values, P, P_cone, Q, L, R):
            array[...] = -15.0
        params["factor"] = -15.0
        second = run()
        for a, b in zip(first[0] + first[1], second[0] + second[1], strict=True):
            np.testing.assert_array_equal(a, b)
        assert second[2:] == first[2:]
        for array in (model.A, model.D, channel.g, channel.sigma.params["slopes"], cert.P, cert.supply.L, cone.P,
                      cone.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def test_import_defers_scipy_linalg():
    src = os.path.dirname(os.path.dirname(pdom.__file__))
    code = "import sys, pdom; print('scipy.linalg' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
