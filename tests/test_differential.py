import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import lti_model, random_hyperbolic
from oracles import derivative, failing_corners, jacobian
from pdom import lti
from pdom import matrixcore as mc
from pdom import registry
from pdom.differential import (
    Channel,
    LureSystem,
    check_diff_dissipativity,
    check_diff_dominance,
    cubic_saturated,
    hull_points,
    scaled,
    tabulated,
    vertex_family,
)
from pdom.dissipativity import (
    DissipativityCertificate,
    SupplyRate,
    dissipation_blocks,
    supply_gain,
    supply_passivity,
    verify_dissipativity,
)
from pdom.errors import DimensionError, UnsupportedConfigurationError
from pdom.interconnect import _loop_coupling, network
from pdom.lti import (
    check_dominance,
    construct_certificate,
    DominanceCertificate,
    eigen_split_test,
    residual,
)
from pdom.matrixcore import inertia_of
from pdom.policy import LMI_TOL, MAX_VERTICES, RECON_TOL, SPLIT_TOL


def _claim(sys, P, lam, p, epsilon=0.0, supply=None):
    """The certificate check of a stated claim: storage P at rate lam, claiming p with margin epsilon."""
    if supply is None:
        return check_dominance(sys, DominanceCertificate(P=P, rate=lam, epsilon=epsilon, p=p))
    return verify_dissipativity(sys, DissipativityCertificate(P=P, rate=lam, epsilon=epsilon, p=p, supply=supply))


class TestNonlinearities:
    def test_cubic_values(self):
        sigma = cubic_saturated()
        assert sigma(0.0) == 0.0
        assert sigma(1.0) == pytest.approx(2.0 / 3.0)
        assert sigma(np.sqrt(3.0)) == pytest.approx(0.0)  # nontrivial spring zero
        assert sigma(3.0) == pytest.approx(-1.0)  # saturated branch -s/3

    def test_cubic_derivative_branches(self):
        sigma = cubic_saturated()
        assert derivative(sigma, 0.0) == 1.0
        assert derivative(sigma, 1.0) == 0.0
        assert derivative(sigma, 3.0) == pytest.approx(-1.0 / 3.0)
        # left derivatives at the kinks
        assert derivative(sigma, 2.0) == -3.0
        assert derivative(sigma, -2.0) == pytest.approx(-1.0 / 3.0)

    def test_cubic_slope_range(self):
        lo, hi = cubic_saturated().slope_range()
        assert (lo, hi) == (-3.0, 1.0)  # exact, over the whole real line
        # both bounds are attained by the derivative itself
        assert derivative(cubic_saturated(), 0.0) == 1.0
        assert derivative(cubic_saturated(), 2.0) == -3.0

    def test_scaled(self):
        sigma = scaled(2.0, cubic_saturated())
        assert sigma(1.0) == pytest.approx(4.0 / 3.0)
        assert derivative(sigma, 0.0) == 2.0

    def test_tabulated_left_slopes(self):
        sigma = tabulated([-1.0, 0.0, 1.0], [2.0, 0.0, -0.5])
        assert sigma(0.5) == pytest.approx(-0.25)
        assert derivative(sigma, -0.5) == -2.0
        assert derivative(sigma, 0.5) == -0.5
        assert derivative(sigma, 0.0) == -2.0  # left segment decides at the knot
        # extrapolation keeps the end slopes
        assert sigma(2.0) == pytest.approx(-1.0)
        assert derivative(sigma, 5.0) == -0.5

    def test_slope_ranges_are_exact(self):
        # the table's steep segment lies wholly outside [-10, 10], and counts all the same
        steep = tabulated([-30.0, 20.0, 30.0], [-30.0, 20.0, 1020.0])
        assert steep.slope_range() == (1.0, 100.0)
        assert tabulated([-1.0, 0.0, 1.0], [2.0, 0.0, -0.5]).slope_range() == (-2.0, -0.5)
        # a negative factor swaps the ends of the base range
        assert scaled(2.0, cubic_saturated()).slope_range() == (-6.0, 2.0)
        assert scaled(-0.5, cubic_saturated()).slope_range() == (-0.5, 1.5)
        assert scaled(-1.0, steep).slope_range() == (-100.0, -1.0)


class TestLureSystem:
    def test_far_steep_segment_is_refused(self):
        # slopes 1 and 100, the 100 only on [20, 30]: declared [1, 1], this model was accepted and diverged
        steep = tabulated([-30.0, 20.0, 30.0], [-30.0, 20.0, 1020.0])
        model = lambda sigma, alpha, beta: LureSystem(
            A=[[0.0, 1.0], [-2.0, -1.0]], B=np.zeros((2, 1)), C=np.zeros((1, 2)),
            channels=(Channel(g=[0.0, 1.0], h=[1.0, 0.0], sigma=sigma, alpha=alpha, beta=beta),),
        )
        with pytest.raises(ValueError, match="escapes the declared bounds"):
            model(steep, 1.0, 1.0)
        # a null knot, read as NaN, is refused by the table itself, whatever the bounds
        with pytest.raises(ValueError, match="must be finite"):
            model(tabulated([-30.0, None, 30.0], [-30.0, 20.0, 1020.0]), -np.inf, np.inf)
        # with the true bounds the storage that passed on the narrow claim fails at the steep corner
        verdict = _claim(model(steep, 1.0, 100.0), [[1.5, 0.5], [0.5, 1.0]], 0.0, 0)
        assert not verdict.passed and failing_corners(verdict) == ((100.0,),)

    def test_slope_bound_validation(self):
        with pytest.raises(ValueError):
            LureSystem(
                A=np.zeros((2, 2)),
                channels=(
                    Channel(
                        g=np.array([0.0, 1.0]),
                        h=np.array([1.0, 0.0]),
                        sigma=cubic_saturated(),
                        alpha=-1.0,  # too narrow: true range is [-3, 1]
                        beta=1.0,
                    ),
                ),
                B=np.zeros((2, 1)),
                C=np.zeros((1, 2)),
            )

    def test_round_trip(self):
        sys = registry.nonlinear_msd("mixed", "cubic")
        data = sys.to_dict()
        assert set(data) == {"name", "A", "B", "C", "D", "channels"}
        back = LureSystem.from_dict(data)
        assert np.allclose(back.A, sys.A)
        assert back.channels[0].alpha == sys.channels[0].alpha
        x = np.array([0.7, -0.3])
        assert np.allclose(back.rhs(x), sys.rhs(x))


def _zigzag():
    return tabulated([-2.0, -1.0, 0.0, 1.0, 2.0], [1.0, 0.5, 0.0, -2.0, -2.5])


def _mixed_channel_system(rng):
    """Five states, seven channels: four distinct sigmas, three of them shared by
    value (the zigzag tables are separate objects), overlapping g vectors."""
    n = 5
    g_shared = rng.standard_normal(n)
    specs = [
        (g_shared, cubic_saturated(), -3.0, 1.0),
        (rng.standard_normal(n), scaled(2.0, cubic_saturated()), -6.0, 2.0),
        (rng.standard_normal(n), _zigzag(), -2.0, -0.5),
        (g_shared, cubic_saturated(), -3.0, 1.0),
        (g_shared + rng.standard_normal(n), _zigzag(), -2.0, -0.5),
        (rng.standard_normal(n), scaled(2.0, cubic_saturated()), -6.0, 2.0),
        (g_shared, scaled(0.5, cubic_saturated()), -1.5, 0.5),
    ]
    channels = tuple(
        Channel(g=g, h=rng.standard_normal(n), sigma=sigma, alpha=lo, beta=hi) for g, sigma, lo, hi in specs
    )
    return LureSystem(
        A=rng.standard_normal((n, n)),
        channels=channels,
        B=rng.standard_normal((n, 2)),
        C=rng.standard_normal((1, n)),
    )


def _per_channel_rhs(sys, X):
    """A x + sum_i g_i sigma_i(h_i^T x), one channel at a time.

    Also returns the elementwise size of the summed terms, with each channel
    argument's rounding carried through the slope bound, as the scale of a
    relative error bound.
    """
    out = X @ sys.A.T
    scale = np.abs(X) @ np.abs(sys.A.T)
    for ch in sys.channels:
        term = np.asarray(ch.sigma(X @ ch.h))[..., None] * ch.g
        out = out + term
        slope = max(abs(ch.alpha), abs(ch.beta))
        scale = scale + (np.abs(term) + slope * (np.abs(X) @ np.abs(ch.h))[..., None] * np.abs(ch.g))
    return out, scale


class TestFusedField:
    @pytest.mark.parametrize("shape", [(), (7,)])
    def test_matches_per_channel_sum(self, rng, shape):
        sys = _mixed_channel_system(rng)
        # spread the channel arguments over every branch of the three sigmas
        X = 3.0 * rng.standard_normal(shape + (sys.n,))
        got = sys.rhs(X)
        ref, scale = _per_channel_rhs(sys, X)
        assert got.shape == ref.shape == shape + (sys.n,)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    def test_one_call_per_distinct_sigma(self, rng, monkeypatch):
        sys = _mixed_channel_system(rng)
        kinds = []
        original = type(sys.channels[0].sigma).__call__

        def counting(self, s):
            kinds.append(self.kind)
            return original(self, s)

        monkeypatch.setattr(type(sys.channels[0].sigma), "__call__", counting)
        sys.rhs(rng.standard_normal((4, sys.n)))
        # cubic, tabulated, two scaled cubics and each scaled wrapper's own base
        assert sorted(kinds) == ["cubic_saturated"] * 3 + ["scaled"] * 2 + ["tabulated"]

    def test_channel_free(self, rng):
        A, B = rng.standard_normal((3, 3)), rng.standard_normal((3, 2))
        sys = LureSystem(A=A, channels=(), B=B, C=np.eye(3))
        X = rng.standard_normal((6, 3))
        assert np.array_equal(sys.rhs(X), X @ A.T)
        assert np.array_equal(sys.rhs(X[0]), X[0] @ A.T)

    def test_round_trip_keeps_model_and_field(self, rng):
        sys = _mixed_channel_system(rng)
        data = sys.to_dict()
        back = LureSystem.from_dict(data)
        assert back.to_dict() == data
        X = rng.standard_normal((5, sys.n))
        assert np.array_equal(back.rhs(X), sys.rhs(X))


class TestJacobian:
    def test_at_origin(self):
        sys = registry.nonlinear_msd("velocity", "cubic")
        assert np.allclose(jacobian(sys, [0.0, 0.0]), [[0.0, 1.0], [1.0, -8.0]])

    def test_saturated_branch(self):
        sys = registry.nonlinear_msd("velocity", "cubic")
        assert np.allclose(jacobian(sys, [3.0, 0.0]), [[0.0, 1.0], [-1.0 / 3.0, -8.0]])

    def test_channel_free_system(self):
        sys = LureSystem(A=-np.eye(2), channels=(), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
        for x in ([0.0, 0.0], [3.0, -2.0]):
            assert np.allclose(jacobian(sys, x), -np.eye(2))

    def test_hull_membership(self, rng):
        # every sampled Jacobian has its slope inside the declared interval
        sys = registry.nonlinear_msd("velocity", "cubic")
        lo, hi = sorted((sys.channels[0].alpha, sys.channels[0].beta))
        for _ in range(1000):
            x = rng.uniform(-6.0, 6.0, size=2)
            J = jacobian(sys, x)
            slope = J[1, 0]  # the only entry the channel touches
            assert lo - 1e-12 <= slope <= hi + 1e-12
            base = J - slope * np.outer(sys.channels[0].g, sys.channels[0].h)
            assert np.allclose(base, sys.A)


class TestVertexFamily:
    def test_cubic_corners(self):
        # matrix 0 takes the channel's alpha, matrix 1 its beta
        matrices = vertex_family(registry.nonlinear_msd("velocity", "cubic"))
        assert np.allclose(matrices, [[[0.0, 1.0], [-3.0, -8.0]], [[0.0, 1.0], [1.0, -8.0]]])

    def test_monotone_corners(self):
        sys = registry.nonlinear_msd("velocity", "monotone")
        assert check_diff_dominance(sys, registry.MONOTONE_STORAGE, 0.0).bounds == ((-2.0, -0.5),)

    def test_unbounded_slope_is_refused(self):
        # a channel may declare an infinite bound, but its family has no corner there
        sys = registry.builtin_system("nl-msd")
        ch = sys.channels[0]
        unbounded = LureSystem(A=sys.A, B=sys.B, C=sys.C, channels=(
            Channel(g=ch.g, h=ch.h, sigma=cubic_saturated(), alpha=-np.inf, beta=1.0),))
        with pytest.raises(ValueError, match="vertex relaxation needs finite slope bounds"):
            check_diff_dominance(unbounded, registry.DIFF_STORAGE_VELOCITY, 1.0)

    def test_two_channel_count(self):
        ch = registry.nonlinear_msd("velocity", "cubic").channels[0]
        sys = LureSystem(
            A=np.zeros((2, 2)),
            channels=(ch, Channel(g=ch.h, h=ch.g, sigma=ch.sigma, alpha=ch.alpha, beta=ch.beta)),
            B=np.zeros((2, 1)),
            C=np.zeros((1, 2)),
        )
        assert len(vertex_family(sys)) == 4

    def test_family_size_limit(self):
        ch = registry.nonlinear_msd("velocity", "cubic").channels[0]
        many = lambda k: LureSystem(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 2)), channels=(ch,) * k)
        assert MAX_VERTICES == 2**16 and len(vertex_family(many(16))) == MAX_VERTICES
        with pytest.raises(UnsupportedConfigurationError, match="2\\^17 vertices"):
            vertex_family(many(17))
        P = registry.DIFF_STORAGE_VELOCITY
        with pytest.raises(UnsupportedConfigurationError, match="2\\^17 vertices"):
            _claim(many(17), P, 1.0, 1)


class TestResultEquality:
    """Families are equal stacks; verdicts compare by value, and == never raises on their array fields."""

    def test_equal_values_compare_equal(self):
        sys = registry.nonlinear_msd("velocity", "monotone")
        assert vertex_family(sys).tobytes() == vertex_family(sys).tobytes()
        first = check_diff_dominance(sys, registry.MONOTONE_STORAGE, 0.0)
        second = check_diff_dominance(sys, registry.MONOTONE_STORAGE, 0.0)
        # the failing vertex is the witness, whose vector stays out of ==
        assert first.witness_corner == first.vertices[1].corner and first.witness is not None
        assert first == second and first.vertices[1] == second.vertices[1]
        # the certificate check of the same claim returns the same verdict
        cert = DominanceCertificate(P=registry.MONOTONE_STORAGE, rate=0.0, epsilon=0.0, p=first.p)
        assert check_dominance(sys, cert) == first

    def test_different_values_compare_unequal(self):
        monotone = registry.nonlinear_msd("velocity", "monotone")
        cubic = registry.nonlinear_msd("velocity", "cubic")
        assert not np.array_equal(vertex_family(monotone), vertex_family(cubic))
        at_zero = check_diff_dominance(monotone, registry.MONOTONE_STORAGE, 0.0)
        # the same columns on other slope bounds are another verdict
        assert at_zero != dataclasses.replace(at_zero, bounds=((-2.0, 0.5),))
        assert at_zero != check_diff_dominance(monotone, registry.MONOTONE_STORAGE, 0.5)
        assert at_zero.vertices[0] != at_zero.vertices[1]
        assert at_zero != at_zero.to_dict()
        # a claim of another p is another verdict, though every lmax is the same
        cert = DominanceCertificate(P=registry.MONOTONE_STORAGE, rate=0.0, epsilon=0.0, p=1)
        other = check_dominance(monotone, cert)
        assert other.worst_lmax == at_zero.worst_lmax and other != at_zero

    def test_equality_reads_the_columns(self, rng, monkeypatch):
        # k = 12 channels on n = 6 states: 4096 vertices, compared without forming either to_dict
        n = 6
        channels = tuple(Channel(g=rng.standard_normal(n), h=rng.standard_normal(n), sigma=cubic_saturated(),
                                 alpha=-3.0, beta=1.0) for _ in range(12))
        sys = LureSystem(A=rng.standard_normal((n, n)) - 3.0 * np.eye(n), B=np.zeros((n, 1)), C=np.zeros((1, n)),
                         channels=channels)
        first, second = (_claim(sys, np.eye(n), 0.5, 0) for _ in range(2))
        monkeypatch.setattr(lti.DifferentialVerdict, "to_dict", lambda self: pytest.fail("to_dict called"))
        assert len(first.lmax) == 2**12 and first == second
        for column in ("lmax", "split_ok"):
            changed = getattr(first, column).copy()
            changed[1000] = not changed[1000] if column == "split_ok" else changed[1000] + 1e-12
            assert first != dataclasses.replace(first, **{column: changed})


class TestCertificateChecksOnTheFamily:
    """check_dominance and verify_dissipativity hold a Lur'e certificate to every vertex, not to A alone."""

    def test_dominance_fails_at_the_steep_corner(self):
        sys = registry.builtin_system("nl-msd")
        cert = DominanceCertificate(P=np.diag([-1.0, 1.0]), rate=0.5, epsilon=0.0, p=1)
        assert check_dominance(lti_model(sys.A), cert).passed  # the slope-0 matrix A alone passes
        verdict = check_dominance(sys, cert)
        assert not verdict.passed and verdict.status == "residual_violation"
        assert failing_corners(verdict) == ((-3.0,),)
        assert verdict == check_diff_dominance(sys, cert.P, cert.rate)  # P's inertia gives p = 1

    def test_dissipativity_fails_at_the_upper_corner(self):
        sys = registry.builtin_system("nl-msd-mixed")
        supply = supply_passivity(1)
        cert = DissipativityCertificate(P=registry.DIFF_STORAGE_MIXED, rate=0.75, epsilon=0.0, p=1, supply=supply)
        assert verify_dissipativity(LureSystem(A=sys.A, B=sys.B, C=sys.C), cert).passed  # A alone passes
        verdict = verify_dissipativity(sys, cert)
        assert not verdict.passed and verdict.status == "residual_violation"
        assert failing_corners(verdict) == ((1.0,),)
        assert verdict == check_diff_dissipativity(sys, cert.P, cert.rate, supply)  # P's inertia gives p = 1


def _hull_point_by_channel(sys, slopes):
    """A + sum_i s_i g_i h_i^T accumulated channel by channel, one matrix at a time."""
    J = sys.A.copy()
    for slope, ch in zip(slopes, sys.channels):
        J += slope * np.outer(ch.g, ch.h)
    return J


class TestStackedFamily:
    """The vertex family is one (2^k, n, n) stack, checked with stacked solves."""

    def test_matrices_are_the_hull_points_in_product_order(self, rng):
        # k = 0...12 channels: the seven mixed ones, then one whose bounds coincide, then the mixed ones again
        mixed = _mixed_channel_system(rng)
        fixed = Channel(g=rng.standard_normal(mixed.n), h=rng.standard_normal(mixed.n),
                        sigma=tabulated([0.0, 1.0], [0.0, 0.7]), alpha=0.7, beta=0.7)
        for k in range(13):
            channels = (mixed.channels + (fixed,) + mixed.channels)[:k]
            sys = LureSystem(A=mixed.A, B=mixed.B, C=mixed.C, channels=channels)
            matrices = vertex_family(sys)
            assert matrices.shape == (2**k, sys.n, sys.n)
            product = list(itertools.product(*((ch.alpha, ch.beta) for ch in sys.channels)))
            # matrix i takes channel c's beta when bit k - 1 - c of i is set
            assert product == [tuple(ch.beta if i >> (k - 1 - c) & 1 else ch.alpha for c, ch in enumerate(sys.channels))
                               for i in range(2**k)]
            assert matrices.tobytes() == hull_points(sys, product).tobytes()
            for i in range(0, 2**k, max(1, 2**k // 64)):
                assert matrices[i].tobytes() == _hull_point_by_channel(sys, product[i]).tobytes()

    def test_jacobian_is_the_hull_point_of_its_slopes(self, rng):
        sys = _mixed_channel_system(rng)
        x = 3.0 * rng.standard_normal(sys.n)
        slopes = [derivative(ch.sigma, ch.h @ x) for ch in sys.channels]
        assert jacobian(sys, x).tobytes() == _hull_point_by_channel(sys, slopes).tobytes()

    def test_witnesses_match_single_checks(self, rng):
        # a storage failing on most vertices, so the witnesses of many stack rows are compared
        sys = _mixed_channel_system(rng)
        M = rng.standard_normal((sys.n, sys.n))
        P = M + M.T
        p = inertia_of(P).negative
        lam = 0.5
        matrices = vertex_family(sys)
        corners = list(itertools.product(*((ch.alpha, ch.beta) for ch in sys.channels)))
        verdict = check_diff_dominance(sys, P, lam)
        failing = [i for i, v in enumerate(verdict.vertices) if v.status == "residual_violation"]
        assert len(failing) > len(matrices) // 2
        cert = DominanceCertificate(P=P, rate=lam, epsilon=0.0, p=p)
        for i in failing:
            got, single = verdict.vertices[i], check_dominance(lti_model(matrices[i]), cert).vertices[0]
            assert got.lmax.hex() == single.lmax.hex()
        top = max(failing, key=lambda i: verdict.vertices[i].lmax)
        assert verdict.witness_corner == corners[top]
        single = check_dominance(lti_model(matrices[top]), cert)
        assert verdict.witness.tobytes() == single.witness.tobytes()
        # the vector the stacked eigh would give that vertex
        stacked = mc.sym_eigen(residual(matrices, P, lam))[1][top, :, -1]
        assert verdict.witness.tobytes() == stacked.tobytes()
        v = verdict.witness
        assert v @ residual(matrices[top], P, lam) @ v == pytest.approx(verdict.worst_lmax, rel=1e-9)
        supply = supply_gain(0.5, sys.r, sys.m)
        verdict = check_diff_dissipativity(sys, P, lam, supply)
        cert = DissipativityCertificate(P=P, rate=lam, epsilon=0.0, p=p, supply=supply)
        singles = [verify_dissipativity(LureSystem(A=J, B=sys.B, C=sys.C), cert) for J in matrices]
        for v, single in zip(verdict.vertices, singles):
            assert v.status == single.vertices[0].status
            if v.status == "residual_violation":
                assert v.lmax.hex() == single.vertices[0].lmax.hex()
        top = corners.index(verdict.witness_corner)
        assert verdict.vertices[top].lmax == verdict.worst_lmax
        assert verdict.witness.tobytes() == singles[top].witness.tobytes()

    @pytest.mark.parametrize(
        "name, P, lam",
        [
            ("nl-msd", registry.DIFF_STORAGE_VELOCITY, 1.0),
            ("nl-msd-monotone", registry.MONOTONE_STORAGE, 0.0),
            ("nl-msd-mixed", registry.DIFF_STORAGE_MIXED, 1.0),
            ("nl-loop", np.kron(np.eye(2), registry.DIFF_STORAGE_MIXED), 1.0),
        ],
    )
    def test_split_ok_is_the_split_test(self, name, P, lam):
        sys = registry.builtin_system(name)
        p = inertia_of(P).negative
        verdict = check_diff_dominance(sys, P, lam)
        for J, v in zip(vertex_family(sys), verdict.vertices):
            assert v.split_ok is eigen_split_test(lti_model(J), lam, p).passed

    def test_vertex_on_the_shifted_axis_is_not_split_ok(self):
        # slopes in [-1, 1] on the first state: the corner s = 1 has eigenvalue 0 = -lam
        sigma = tabulated([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
        channel = Channel(g=np.array([1.0, 0.0]), h=np.array([1.0, 0.0]), sigma=sigma, alpha=-1.0, beta=1.0)
        sys = LureSystem(A=np.diag([-1.0, -3.0]), channels=(channel,), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
        verdict = check_diff_dominance(sys, np.eye(2), 0.0)
        matrices = vertex_family(sys)
        splits = [eigen_split_test(lti_model(J), 0.0, 0) for J in matrices]
        assert [s.status for s in splits] == ["pass", "inconclusive"]
        assert [v.split_ok for v in verdict.vertices] == [True, False]

    def test_dissipation_split_reads_the_residual(self):
        # the supply 3 y^2 + u^2 makes every dissipation block diag(2 J - 3, -1) negative definite,
        # while each vertex J ~ 1 is unstable, so the split claimed by p = 0 fails
        ch = registry.nonlinear_msd("velocity", "cubic").channels[0]
        channel = Channel(g=np.array([0.01]), h=np.array([1.0]), sigma=ch.sigma, alpha=ch.alpha, beta=ch.beta)
        sys = LureSystem(A=[[1.0]], channels=(channel,), B=[[0.0]], C=[[1.0]])
        supply = SupplyRate(Q=[[3.0]], L=[[0.0]], R=[[1.0]])
        verdict = _claim(sys, np.eye(1), 0.0, 0, supply=supply)
        assert verdict.passed
        assert [v.split_ok for v in verdict.vertices] == [False, False]


_SHIPPED_CLAIMS = [
    ("nl-msd", registry.DIFF_STORAGE_VELOCITY, 1.0),
    ("nl-msd", registry.DIFF_STORAGE_VELOCITY, 0.5),
    ("nl-msd-monotone", registry.MONOTONE_STORAGE, 0.0),
    ("nl-msd-contractive", registry.MONOTONE_STORAGE, 0.0),
    ("nl-msd-mixed", registry.DIFF_STORAGE_MIXED, 1.0),
    ("nl-loop", np.kron(np.eye(2), registry.DIFF_STORAGE_MIXED), 1.0),
]


class TestVerdictColumns:
    """A verdict keeps its vertices as columns; its records and summaries are those the single checks give."""

    @staticmethod
    def _records(sys, P, lam, p, supply=None):
        """Each vertex's record from the single-matrix check on it and the split test, in product order."""
        corners = list(itertools.product(*((ch.alpha, ch.beta) for ch in sys.channels)))
        records = []
        for J, corner in zip(hull_points(sys, corners), corners):
            if supply is None:
                single = check_dominance(lti_model(J), DominanceCertificate(P=P, rate=lam, epsilon=0.0, p=p))
            else:
                cert = DissipativityCertificate(P=P, rate=lam, epsilon=0.0, p=p, supply=supply)
                single = verify_dissipativity(LureSystem(A=J, B=sys.B, C=sys.C, D=sys.D), cert)
            (vertex,) = single.vertices
            records.append(lti.VertexVerdict(corner, vertex.passed, vertex.status, vertex.lmax,
                                             eigen_split_test(lti_model(J), lam, p).passed))
        return tuple(records)

    @pytest.mark.parametrize("name, P, lam", _SHIPPED_CLAIMS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("with_supply", [False, True])
    def test_columns_give_the_records_of_the_single_checks(self, name, P, lam, sign, with_supply):
        sys = registry.builtin_system(name)
        S = sign * P
        supply = supply_gain(2.0, sys.r, sys.m) if with_supply else None
        nu = inertia_of(S).negative
        for p in (nu, (nu + 1) % (sys.n + 1)):
            verdict = _claim(sys, S, lam, p, supply=supply)
            records = self._records(sys, S, lam, p, supply)
            assert verdict.vertices == records
            assert verdict.status == next((v.status for v in records if not v.passed), "pass")
            assert verdict.passed is all(v.passed for v in records)
            assert failing_corners(verdict) == tuple(v.corner for v in records if not v.passed)
            expected = None
            if verdict.status == "residual_violation":
                expected = max((v for v in records if not v.passed), key=lambda v: v.lmax).corner
            assert verdict.witness_corner == expected
            assert verdict.worst_lmax == max(v.lmax for v in records)
            assert verdict.to_dict()["vertices"] == [
                {"corner": list(v.corner), "passed": v.passed, "status": v.status, "lmax": v.lmax,
                 "witness_eigenvalue": v.lmax if v.status == "residual_violation" else None, "split_ok": v.split_ok}
                for v in records
            ]

    def test_records_are_built_once(self):
        verdict = check_diff_dominance(registry.builtin_system("nl-loop"), np.kron(np.eye(2), registry.DIFF_STORAGE_MIXED), 1.0)
        assert verdict.vertices is verdict.vertices

    def test_record_corners_keep_each_slope_bit_for_bit(self):
        # -0.0 and 0.0 compare equal, but a record's corner is the slope the channel declares
        sigma = tabulated([-1.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        channels = tuple(Channel(g=[0.0, 1.0], h=[1.0, 0.0], sigma=sigma, alpha=a, beta=1.0) for a in (-0.0, 0.0))
        sys = LureSystem(A=[[0.0, 1.0], [-2.0, -1.0]], B=np.zeros((2, 1)), C=np.zeros((1, 2)), channels=channels)
        verdict = _claim(sys, [[1.5, 0.5], [0.5, 1.0]], 0.0, 0)
        corners = [v.corner for v in verdict.vertices]
        assert repr(corners) == "[(-0.0, 0.0), (-0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]"
        # one float object per distinct slope of a channel
        assert corners[0][0] is corners[1][0] and corners[2][1] is corners[0][1]

    def test_a_k16_verdict_keeps_its_columns_alone(self, rng):
        # 2^16 vertices of n = 6 states: the three columns, about 0.6 MB; the corners are read off the channel
        # bounds, where a (2^16, 16) corners array would add 8.4 MB
        n = 6
        channels = tuple(Channel(g=rng.standard_normal(n), h=rng.standard_normal(n), sigma=cubic_saturated(),
                                 alpha=-3.0, beta=1.0) for _ in range(16))
        sys = LureSystem(A=rng.standard_normal((n, n)) - 3.0 * np.eye(n), B=np.zeros((n, 1)), C=np.zeros((1, n)),
                         channels=channels)
        _claim(sys, np.eye(n), 0.5, 0)  # warm: caches and imports stay out of the count
        tracemalloc.start()
        try:
            verdict = _claim(sys, np.eye(n), 0.5, 0)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(verdict.lmax) == 2**16 and kept < 1_000_000

    @pytest.mark.parametrize("with_supply", [False, True])
    def test_columns_are_read_only_and_own_their_memory(self, with_supply):
        sys = registry.builtin_system("nl-loop")
        P = np.kron(np.eye(2), registry.DIFF_STORAGE_MIXED)
        if with_supply:
            verdict = check_diff_dissipativity(sys, P, 1.0, supply_gain(2.0, sys.r, sys.m))
        else:
            verdict = check_diff_dominance(sys, P, 1.0)
        for column in (verdict.vertex_passed, verdict.lmax, verdict.split_ok):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
        # the top eigenvalues are a column of their own, not a view into the whole block spectra
        assert verdict.lmax.base is None and verdict.lmax.flags.c_contiguous
        lone = _claim(lti_model(np.diag([-1.0, -2.0])), np.eye(2), 0.0, 0)
        assert lone.bounds == () and not (lone.vertex_passed.flags.writeable or lone.lmax.flags.writeable)


class TestHullPoints:
    def test_slopes_must_be_one_column_per_channel(self):
        sys = registry.builtin_system("nl-msd")
        assert hull_points(sys, [[1.0]]).shape == (1, 2, 2)
        assert hull_points(sys, np.empty((0, 1))).shape == (0, 2, 2)
        for slopes in ([[1.0, 5.0, 7.0]], [1.0], 1.0, [[[1.0]]], np.empty((3, 0))):
            with pytest.raises(DimensionError, match="one column per channel"):
                hull_points(sys, slopes)
        with pytest.raises(DimensionError):
            hull_points(registry.builtin_system("msd-c4"), [[1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_slopes_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            hull_points(registry.builtin_system("nl-loop"), [[0.0, bad]])


def _planted_lure(rng, n, k, gain):
    """A Lur'e model with k cubic channels around a random hyperbolic A, and A's constructed storage.

    With ``gain = 1`` every vertex keeps half of the storage's margin, so the
    storage passes the whole family; larger gains push vertices past it.
    Returns (model, rate, storage, its p).
    """
    lam = float(rng.uniform(0.0, 1.0))
    A, p = random_hyperbolic(rng, n, lam)
    cert = construct_certificate(lti_model(A), lam, p)
    # a vertex moves A by at most 3 k max|g|, which moves the residual by at most twice ||P|| times that
    size = gain * cert.epsilon / (6.0 * k * np.linalg.norm(cert.P, 2))
    channels = []
    for _ in range(k):
        g, h = rng.standard_normal(n), rng.standard_normal(n)
        channels.append(Channel(g=size * g / np.linalg.norm(g), h=h / np.linalg.norm(h),
                                sigma=cubic_saturated(), alpha=-3.0, beta=1.0))
    sys = LureSystem(A=A, channels=tuple(channels), B=rng.standard_normal((n, 1)), C=rng.standard_normal((1, n)))
    return sys, lam, cert.P, p


class TestSplitFromResidual:
    """A vertex's split_ok is read off its residual by the inertia theorem, or falls back to eigvals."""

    SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)

    def test_battery_matches_split_test(self):
        rng = np.random.default_rng(1414)
        supply = supply_gain(2.0, 1, 1)
        decided = undecided = 0
        for n in range(2, 9):
            for k in range(1, 7):
                sys, lam, P, p = _planted_lure(rng, n, k, gain=float(rng.choice([1.0, 1e3])))
                matrices = vertex_family(sys)
                V, _ = np.linalg.qr(rng.standard_normal((n, n)))
                signs = rng.choice([-1.0, 1.0], n)
                signs[:2] = (-1.0, 1.0)
                indefinite = V @ np.diag(signs * rng.uniform(0.1, 10.0, n)) @ V.T
                expected = {}
                for S in (P, -P, indefinite):
                    nu = inertia_of(S).negative
                    for claim in (nu, (nu + 1) % (n + 1)):
                        if claim not in expected:
                            expected[claim] = [eigen_split_test(lti_model(J), lam, claim).passed for J in matrices]
                        for scale in self.SCALES:
                            for verdict in (
                                _claim(sys, scale * S, lam, claim),
                                _claim(sys, scale * S, lam, claim, supply=supply.scaled(scale)),
                            ):
                                assert [v.split_ok for v in verdict.vertices] == expected[claim], (n, k, scale)
                R = residual(matrices, P, lam)
                top = np.linalg.eigvalsh(R)[:, -1]
                decided += int(np.sum(top < 0))
                undecided += int(np.sum(top >= 0))
        # both paths were taken: storages valid on every vertex, and vertices pushed past the margin
        assert decided > 0 and undecided > 0

    def test_definite_residual_near_the_axis_goes_to_the_split_test(self):
        # corner s = 1 - 5e-8 has eigenvalue -5e-8, inside SPLIT_TOL, yet its residual 2 s P - 2 P stays definite
        sigma = tabulated([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0 - 5e-8])
        channel = Channel(g=np.array([1.0, 0.0]), h=np.array([1.0, 0.0]), sigma=sigma, alpha=-1.0, beta=1.0 - 5e-8)
        sys = LureSystem(A=np.diag([-1.0, -3.0]), channels=(channel,), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
        matrices = vertex_family(sys)
        assert [eigen_split_test(lti_model(J), 0.0, 0).status for J in matrices] == ["pass", "inconclusive"]
        for scale in self.SCALES:
            verdict = _claim(sys, scale * np.eye(2), 0.0, 0)
            assert [v.split_ok for v in verdict.vertices] == [True, False]

    @staticmethod
    def _count_eigvals(monkeypatch):
        calls = []
        original = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(np.shape(M)) or original(M))
        return calls

    def test_definite_residuals_make_no_eigvals_call(self, monkeypatch):
        sys, lam, P, p = _planted_lure(np.random.default_rng(8), 4, 8, gain=1.0)
        calls = self._count_eigvals(monkeypatch)
        valid = check_diff_dominance(sys, P, lam)
        flipped = check_diff_dominance(sys, -P, lam)
        assert calls == []
        assert valid.passed and all(v.split_ok for v in valid.vertices)
        assert not flipped.passed and flipped.p == 4 - p
        monkeypatch.undo()
        matrices = vertex_family(sys)
        assert [v.split_ok for v in flipped.vertices] == [
            eigen_split_test(lti_model(J), lam, 4 - p).passed for J in matrices
        ]

    @pytest.mark.parametrize("k", [1, 5, 6])
    def test_dissipativity_families_solve_no_residual_stack(self, monkeypatch, k):
        # at every family size the residuals' definiteness comes from pivots, not from R's spectra
        sys, lam, P, p = _planted_lure(np.random.default_rng(8), 4, k, gain=1.0)
        supply = supply_gain(2.0, 1, 1)
        shapes = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: shapes.append(np.shape(M)) or original(M))
        verdicts = [check_diff_dissipativity(sys, S, lam, supply) for S in (P, -P)]
        monkeypatch.undo()
        assert shapes == [(4, 4), (2**k, 5, 5)] * 2
        matrices = vertex_family(sys)
        for verdict in verdicts:
            assert verdict.split_ok.tolist() == [eigen_split_test(lti_model(J), lam, verdict.p).passed for J in matrices]

    def test_zero_band_storage_falls_back_on_every_vertex(self, monkeypatch):
        sys, lam, P, p = _planted_lure(np.random.default_rng(8), 4, 8, gain=1.0)
        calls = self._count_eigvals(monkeypatch)
        verdict = _claim(sys, 1e-12 * P, lam, p)
        assert calls == [(256, 4, 4)]
        assert all(v.split_ok for v in verdict.vertices)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_dissipation_masks_are_the_explicitly_shifted_pivots(self, k):
        # split_ok equals, bit for bit, the split read off masks of -R - delta I and R - delta I formed here and
        # factored unshifted; a valid, a flipped and a zero-band storage, under a gain and a passivity supply
        sys, lam, P, p = _planted_lure(np.random.default_rng(100 + k), 4, k, gain=1.0)
        matrices = vertex_family(sys)
        decided = 0
        for supply in (supply_gain(2.0, 1, 1), supply_passivity(1)):
            for S, claim in ((P, p), (-P, 4 - p), (1e-12 * P, p)):
                verdict = _claim(sys, S, lam, claim, supply=supply)
                storage = np.linalg.eigvalsh(S)
                R = residual(matrices, S, lam)
                delta = 2.0 * SPLIT_TOL * abs(storage).max() + RECON_TOL * mc.frobenius(R)
                masks = []
                for shifted in (-R, R.copy()):
                    shifted[:, range(4), range(4)] -= delta[:, None]
                    masks.append(mc.positive_definite(shifted, 0.0))
                assert np.array_equal(masks, [mc.positive_definite(-R, delta), mc.positive_definite(R, delta)])
                inertia = mc.Inertia.of_spectrum(storage)
                want = lti._vertex_splits(matrices, lam, claim, inertia, *masks)
                assert verdict.split_ok.dtype == want.dtype and verdict.split_ok.tobytes() == want.tobytes()
                decided += int((masks[0] | masks[1]).sum())
        assert decided > 0


class TestSplitAcrossCpus:
    """A k = 12 family's stacks are solved one chunk per CPU: every verdict is the one of a single call."""

    def test_split_verdicts_equal_one_call_verdicts(self, monkeypatch):
        sys, lam, P, p = _planted_lure(np.random.default_rng(12), 6, 12, gain=1.0)
        supply = supply_gain(1e3, 1, 1)
        # the flipped storage fails every residual; the zero-band one sends every vertex to eigvals
        claims = [(100.0 * P, p), (-100.0 * P, 6 - p), (1e-12 * P, p)]
        sizes, original = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: sizes.append(len(M)) or original(M))
        parts = min(max(2, mc._CPUS), 4096 // 256)  # this host's split, or two chunks on one CPU
        runs = []
        for run_cpus in (parts, 1):
            monkeypatch.setattr(mc, "_CPUS", run_cpus)
            runs.append([_claim(sys, S, lam, q, 0.0, s) for S, q in claims for s in (None, supply)]
                        + [check(sys, S, lam, *s) for S, _ in claims[:2]
                           for check, s in ((check_diff_dominance, ()), (check_diff_dissipativity, (supply,)))])
        split, unsplit = runs
        assert len(sizes) == 2 * parts + 2 and sizes[-2:] == [4096, 4096] and max(sizes[:-2]) <= -(-4096 // parts)
        statuses = ["pass", "pass", "residual_violation", "residual_violation", "inertia_mismatch", "inertia_mismatch"]
        assert [v.status for v in split] == statuses + statuses[:4]
        assert split[4].split_ok.all()
        assert all(v.lmax.shape == (4096,) for v in split)
        assert split == unsplit
        assert [v.to_dict() for v in split] == [v.to_dict() for v in unsplit]


class TestDiffDominance:
    def test_cubic_uniform_certificate(self):
        sys = registry.nonlinear_msd("velocity", "cubic")
        verdict = check_diff_dominance(sys, registry.DIFF_STORAGE_VELOCITY, 1.0)
        assert verdict.passed and verdict.p == 1
        assert all(v.split_ok for v in verdict.vertices)
        # 2x2 determinant oracle: det R(s) = 28 - (s-1)^2 at each corner
        for v in verdict.vertices:
            s = v.corner[0]
            R = np.array([[-2.0, s - 1.0], [s - 1.0, -14.0]])
            assert 28.0 - (s - 1.0) ** 2 > 0
            assert np.linalg.eigvalsh(R)[-1] < 0

    def test_monotone_claim_splits(self):
        sys = registry.nonlinear_msd("velocity", "monotone")
        verdict = check_diff_dominance(sys, registry.MONOTONE_STORAGE, 0.0)
        outcomes = {v.corner[0]: v.passed for v in verdict.vertices}
        assert outcomes[-2.0] is True
        assert outcomes[-0.5] is False
        assert not verdict.passed
        assert failing_corners(verdict) == ((-0.5,),)
        # frozen residuals: [[s, s-3], [s-3, -15]] at the two corners
        from pdom.lti import residual

        steep = residual(np.array([[0.0, 1.0], [-2.0, -8.0]]), registry.MONOTONE_STORAGE, 0.0)
        assert steep == pytest.approx(np.array([[-2.0, -5.0], [-5.0, -15.0]]))
        assert np.linalg.det(steep) == pytest.approx(5.0)
        shallow = residual(np.array([[0.0, 1.0], [-0.5, -8.0]]), registry.MONOTONE_STORAGE, 0.0)
        assert shallow == pytest.approx(np.array([[-0.5, -3.5], [-3.5, -15.0]]))
        assert np.linalg.det(shallow) == pytest.approx(-4.75)

    def test_contractive_subrange_certifies(self):
        sys = registry.nonlinear_msd("velocity", "contractive")
        assert check_diff_dominance(sys, registry.MONOTONE_STORAGE, 0.0).passed

    def test_vertex_pass_implies_pointwise(self, rng):
        sys = registry.nonlinear_msd("velocity", "cubic")
        assert check_diff_dominance(sys, registry.DIFF_STORAGE_VELOCITY, 1.0).passed
        cert = DominanceCertificate(P=registry.DIFF_STORAGE_VELOCITY, rate=1.0, epsilon=0.0, p=1)
        for _ in range(200):
            x = rng.uniform(-5.0, 5.0, size=2)
            assert check_dominance(lti_model(jacobian(sys, x)), cert).passed


    @pytest.mark.parametrize("lam, epsilon", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_claim_rejected(self, lam, epsilon):
        sys = registry.nonlinear_msd("velocity", "cubic")
        with pytest.raises(ValueError, match="finite"):
            _claim(sys, registry.DIFF_STORAGE_VELOCITY, lam, 1, epsilon)

    def test_zero_band_storage_refused(self):
        # p is read from P's inertia: an eigenvalue of P inside the zero band leaves the claim ill-posed
        with pytest.raises(ValueError, match="zero band"):
            check_diff_dominance(registry.builtin_system("nl-msd"), np.diag([-1.0, 1e-10]), 1.0)

    def test_negative_margin_refused(self):
        # this storage fails at the slope -0.5 vertex (worst lmax 0.30); a margin of -1 would excuse it
        sys = registry.nonlinear_msd("velocity", "monotone")
        assert not check_diff_dominance(sys, registry.MONOTONE_STORAGE, 0.0).passed
        with pytest.raises(ValueError, match="nonnegative"):
            _claim(sys, registry.MONOTONE_STORAGE, 0.0, 0, -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            _claim(sys, registry.MONOTONE_STORAGE, 0.0, 0, -1.0, supply_passivity(sys.r))


class TestDiffDissipativity:
    def test_mixed_output_passivity(self):
        sys = registry.nonlinear_msd("mixed", "cubic")
        P = registry.DIFF_STORAGE_MIXED
        assert np.allclose(P @ sys.B, sys.C.T)
        verdict = check_diff_dissipativity(sys, P, 1.0, supply_passivity(1))
        assert verdict.passed

    def test_wrong_output_fails(self):
        base = registry.nonlinear_msd("mixed", "cubic")
        sys = LureSystem(A=base.A, channels=base.channels, B=base.B, C=np.array([[0.0, 1.0]]))
        verdict = check_diff_dissipativity(sys, registry.DIFF_STORAGE_MIXED, 1.0, supply_passivity(1))
        assert not verdict.passed

    @pytest.mark.parametrize("lam, epsilon", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_claim_rejected(self, lam, epsilon):
        sys = registry.nonlinear_msd("mixed", "cubic")
        with pytest.raises(ValueError, match="finite"):
            _claim(sys, registry.DIFF_STORAGE_MIXED, lam, 1, epsilon, supply_passivity(1))

    def test_zero_band_storage_refused(self):
        sys = registry.builtin_system("nl-msd")
        with pytest.raises(ValueError, match="zero band"):
            check_diff_dissipativity(sys, np.diag([-1.0, 1e-10]), 1.0, supply_passivity(1))

    def test_interior_slope_margin(self):
        # slope s = 1 sits inside the feasible window (roots of s^2 + 5 s - 10)
        sys = registry.nonlinear_msd("mixed", "cubic")
        P = registry.DIFF_STORAGE_MIXED
        roots = np.sort(np.roots([1.0, 5.0, -10.0]))
        assert roots[0] < 1.0 < roots[1]
        verdict = check_diff_dissipativity(sys, P, 1.0, supply_passivity(1))
        top = max(v.lmax for v in verdict.vertices)
        assert top <= 0.0


class TestComposition:
    def test_channel_free_matches_linear_compose(self, msd_c8):
        lure = LureSystem(A=msd_c8.A, channels=(), B=msd_c8.B, C=msd_c8.C)
        composed = network((lure, lure), _loop_coupling(lure, lure))
        linear = network((msd_c8, msd_c8), _loop_coupling(msd_c8, msd_c8))
        assert np.allclose(composed.A, linear.A)
        assert np.allclose(composed.B, linear.B)
        assert np.allclose(composed.C, linear.C)
        assert composed.channels == ()

    def test_loop_structure(self):
        loop = registry.nonlinear_loop()
        assert loop.n == 4 and len(loop.channels) == 2
        g1, g2 = (ch.g for ch in loop.channels)
        assert np.allclose(g1, [0.0, 1.0, 0.0, 0.0])
        assert np.allclose(g2, [0.0, 0.0, 0.0, 1.0])

    def test_loop_blockdiag_certificate(self):
        loop = registry.nonlinear_loop()
        P = np.zeros((4, 4))
        P[:2, :2] = registry.DIFF_STORAGE_MIXED
        P[2:, 2:] = registry.DIFF_STORAGE_MIXED
        verdict = check_diff_dominance(loop, P, 1.0)
        assert verdict.passed and verdict.p == 2
        assert len(verdict.vertices) == 4

    def test_dimension_mismatch(self):
        sys1 = registry.nonlinear_msd("mixed", "cubic")
        bad = LureSystem(A=-np.eye(2), channels=(), B=np.ones((2, 2)), C=np.ones((1, 2)))
        with pytest.raises(DimensionError):
            network((sys1, bad), _loop_coupling(sys1, bad))


def _outcome(vertex):
    # bitwise lmax: both checks must run the one kernel on the same block
    return vertex.passed, vertex.status, vertex.lmax.hex()


def _single_block(block, P, p):
    """The outcome of one block at margin 0, from its own ``sym_eigvals``, for a storage of the claimed inertia."""
    assert inertia_of(P).matches(p)
    lmax = float(mc.sym_eigvals(block)[-1])
    passed = lmax <= LMI_TOL
    return passed, "pass" if passed else "residual_violation", lmax.hex()


def _linear_storages():
    """(P, rate) pairs on msd-c8: passing, residual-failing, and inertia wrong for the split."""
    lam = registry.KNOWN_RATE
    return [
        (registry.KNOWN_STORAGE[8], lam),
        (registry.PASSIVITY_STORAGE_C8, lam),
        (registry.KNOWN_STORAGE[8], 0.0),
        (registry.KNOWN_STORAGE[8], 3.0),
        (np.eye(2), lam),
        (-np.eye(2), lam),
        (np.diag([1.0, 2.0]), 0.0),
    ]


class TestOneKernel:
    """Every verifier runs one acceptance rule on the model's vertex family; a channel-free model is one vertex."""

    @pytest.mark.parametrize("P, lam", _linear_storages())
    def test_channel_free_dominance_matches_single_matrix(self, msd_c8, P, lam):
        p = inertia_of(P).negative
        diff = check_diff_dominance(msd_c8, P, lam)
        single = check_dominance(msd_c8, DominanceCertificate(P=P, rate=lam, epsilon=0.0, p=p))
        kernel = _single_block(residual(msd_c8.A[None], P, lam)[0], P, p)
        assert diff == single and diff.p == p
        assert [(v.corner, v.split_ok) for v in single.vertices] == [((), None)]
        assert _outcome(single.vertices[0]) == kernel
        assert (single.passed, single.status, single.worst_lmax.hex()) == kernel

    @pytest.mark.parametrize("P, lam", _linear_storages())
    @pytest.mark.parametrize("supply", [supply_passivity(1), supply_gain(0.5, 1, 1), supply_gain(5.0, 1, 1)])
    @pytest.mark.parametrize("epsilon", [0.0, 1e-3])
    def test_channel_free_dissipativity_matches_single_matrix(self, msd_c8, P, lam, supply, epsilon):
        p = inertia_of(P).negative
        diff = lti._family_verdict(msd_c8, P, lam, None, epsilon, supply)  # p read from P, at the stated margin
        cert = DissipativityCertificate(P=P, rate=lam, epsilon=epsilon, p=p, supply=supply)
        single = verify_dissipativity(msd_c8, cert)
        blocks = dissipation_blocks(residual(msd_c8.A[None], P, lam), msd_c8, P, supply, epsilon)
        kernel = _single_block(blocks[0], P, p)
        assert diff == single and len(single.vertices) == 1 and diff.p == p
        assert _outcome(single.vertices[0]) == kernel

    def test_outcomes_covered(self, msd_c8):
        # the battery above holds passes, residual failures and split-inconsistent storages;
        # without channels the split is the split test's
        outcomes = set()
        for P, lam in _linear_storages():
            diff = check_diff_dominance(msd_c8, P, lam)
            assert diff.vertices[0].split_ok is None
            outcomes.add((diff.passed, eigen_split_test(msd_c8, lam, diff.p).passed))
        assert {(True, True), (False, True), (False, False)} <= outcomes

    @pytest.mark.parametrize(
        "name, P, lam",
        [
            ("nl-msd", registry.DIFF_STORAGE_VELOCITY, 1.0),
            ("nl-msd-monotone", registry.MONOTONE_STORAGE, 0.0),
            ("nl-msd-mixed", registry.DIFF_STORAGE_MIXED, 1.0),
            ("nl-loop", np.kron(np.eye(2), registry.DIFF_STORAGE_MIXED), 1.0),
        ],
    )
    def test_each_vertex_is_the_single_matrix_check(self, name, P, lam):
        sys = registry.builtin_system(name)
        p = inertia_of(P).negative
        matrices = vertex_family(sys)
        verdict = check_diff_dominance(sys, P, lam)
        for J, v in zip(matrices, verdict.vertices):
            single = check_dominance(lti_model(J), DominanceCertificate(P=P, rate=lam, epsilon=0.0, p=p))
            assert _outcome(v) == _outcome(single.vertices[0])
        supplies = (supply_passivity(sys.r), supply_gain(2.0, sys.r, sys.m))
        for supply, epsilon in itertools.product(supplies, (0.0, 1e-3)):
            verdict = _claim(sys, P, lam, p, epsilon, supply)
            for J, v in zip(matrices, verdict.vertices):
                vertex = LureSystem(A=J, B=sys.B, C=sys.C)
                cert = DissipativityCertificate(P=P, rate=lam, epsilon=epsilon, p=p, supply=supply)
                assert _outcome(v) == _outcome(verify_dissipativity(vertex, cert).vertices[0])


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The shape of every matrix or stack handed to ``np.linalg.eigh`` while the test runs."""
    shapes, original = [], np.linalg.eigh
    spy = lambda a, *args, **kw: shapes.append(np.shape(a)) or original(a, *args, **kw)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    return shapes


def _eigh_battery():
    """(system, P, rate): linear and Lur'e models, with passing and residual-failing storages."""
    linear = [(registry.msd(8.0), P, lam) for P, lam in _linear_storages()]
    return linear + [
        (registry.builtin_system("nl-msd"), registry.DIFF_STORAGE_VELOCITY, 1.0),
        (registry.builtin_system("nl-msd"), np.diag([-1.0, 1.0]), 0.5),
        (registry.builtin_system("nl-msd-monotone"), registry.MONOTONE_STORAGE, 0.0),
        (registry.builtin_system("nl-loop"), np.kron(np.eye(2), registry.DIFF_STORAGE_MIXED), 1.0),
        (registry.builtin_system("nl-loop"), -np.eye(4), 1.0),
    ]


class TestEigenvaluesOnly:
    """Every check solves its blocks for eigenvalues alone; reading the witness is one eigh on one block."""

    def test_checks_make_no_eigh_call(self, eigh_shapes):
        outcomes = set()
        for sys, P, lam in _eigh_battery():
            right = inertia_of(P).negative
            supply = supply_passivity(sys.r)
            for p in (right, (right + 1) % (sys.n + 1)):
                verdicts = [
                    check_dominance(sys, DominanceCertificate(P=P, rate=lam, epsilon=0.0, p=p)),
                    check_diff_dominance(sys, P, lam),
                    verify_dissipativity(sys, DissipativityCertificate(P=P, rate=lam, epsilon=0.0, p=p,
                                                                       supply=supply)),
                    check_diff_dissipativity(sys, P, lam, supply),
                ]
                outcomes.update((bool(sys.channels), kind, v.status) for kind, v in zip("DDSS", verdicts))
        construct_certificate(registry.msd(8.0), registry.KNOWN_RATE, 1)
        statuses = ("pass", "residual_violation", "inertia_mismatch")
        assert set(itertools.product((False, True), "DS", statuses)) <= outcomes
        assert eigh_shapes == []

    @pytest.mark.parametrize(
        "name, P, lam",
        [
            ("msd-c8", registry.KNOWN_STORAGE[8], 0.0),
            ("nl-msd", np.diag([-1.0, 1.0]), 0.5),
            ("nl-loop", -np.eye(4), 1.0),
        ],
    )
    def test_witness_is_one_eigh_on_one_block(self, eigh_shapes, name, P, lam):
        sys = registry.builtin_system(name)
        supply = supply_passivity(sys.r)
        for verdict in (check_diff_dominance(sys, P, lam), check_diff_dissipativity(sys, P, lam, supply)):
            assert verdict.status == "residual_violation" and eigh_shapes == []
            assert verdict.witness is not None
            assert len(eigh_shapes) == 1 and len(eigh_shapes[0]) == 2
            eigh_shapes.clear()

    def test_no_witness_without_a_residual_failure(self, eigh_shapes):
        sys = registry.builtin_system("nl-msd")
        passing = check_diff_dominance(sys, registry.DIFF_STORAGE_VELOCITY, 1.0)
        mismatch = _claim(sys, np.diag([-1.0, 1.0]), 0.5, 0)
        assert passing.passed and mismatch.status == "inertia_mismatch"
        for verdict in (passing, mismatch):
            assert verdict.witness is None and verdict.witness_corner is None
        assert eigh_shapes == []


@pytest.fixture
def residual_calls(monkeypatch):
    """One entry per residual stack formed: ``lti._residual`` is the arithmetic of the public
    ``residual`` and the one the verification kernel calls."""
    calls, original = [], lti._residual
    monkeypatch.setattr(lti, "_residual", lambda *args, **kw: calls.append(1) or original(*args, **kw))
    return calls


class TestOneResidual:
    """Every check forms its residual stack once; the dissipation blocks are built around that stack."""

    def test_one_residual_per_check(self, residual_calls):
        for sys, P, lam in _eigh_battery():
            p = inertia_of(P).negative
            supply = supply_passivity(sys.r)
            dominance_cert = DominanceCertificate(P=P, rate=lam, epsilon=0.0, p=p)
            supply_cert = DissipativityCertificate(P=P, rate=lam, epsilon=0.0, p=p, supply=supply)
            counts = []
            for check in (
                lambda: check_dominance(sys, dominance_cert),
                lambda: verify_dissipativity(sys, supply_cert),
                lambda: check_diff_dominance(sys, P, lam),
                lambda: check_diff_dissipativity(sys, P, lam, supply),
            ):
                residual_calls.clear()
                check()
                counts.append(len(residual_calls))
            assert counts == [1, 1, 1, 1], (sys.name, bool(sys.channels))
