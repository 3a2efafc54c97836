import warnings

import numpy as np
import pytest

from conftest import OVERFLOWING_CONSTRUCTIONS, lti_model, random_hyperbolic, spiral_system
from oracles import _trsyl, block_split
from pdom import registry
from pdom import lti
from pdom import matrixcore as mc
from pdom.errors import DimensionError, NumericalError
from pdom.lti import (
    DominanceCertificate,
    LtiSystem,
    _family_verdict,
    check_dominance,
    construct_certificate,
    eigen_split_test,
    residual,
)
from pdom.matrixcore import inertia_of
from pdom.policy import SPLIT_TOL

RATE = registry.KNOWN_RATE


class TestResidual:
    def test_known_storage_value(self, msd_c4):
        # direct multiplication oracle for the shipped storage at c = 4
        P = registry.KNOWN_STORAGE[4]
        R = residual(msd_c4.A, P, RATE)
        oracle = msd_c4.A.T @ P + P @ msd_c4.A + 2 * RATE * P
        assert np.allclose(R, oracle)
        assert R == pytest.approx(
            np.array([[-2.407, -2.824], [-2.824, -6.528]]), abs=2e-3
        )
        assert np.linalg.eigvalsh(R)[-1] < 0

    def test_stable_identity(self):
        assert np.allclose(residual(-np.eye(2), np.eye(2), 0.0), -2 * np.eye(2))

    def test_infeasible_combination(self):
        assert np.allclose(residual(np.zeros((2, 2)), np.eye(2), 1.0), 2 * np.eye(2))

    @pytest.mark.parametrize("n, k", [(2, 1), (4, 10), (10, 55)])
    def test_stack_of_storages_matches_single(self, rng, n, k):
        # the LMI engine evaluates a block on every search direction in one call
        A = rng.standard_normal((n, n))
        P = rng.standard_normal((k, n, n))
        P = P + P.swapaxes(1, 2)
        R = residual(A, P, 0.7)
        assert R.shape == (k, n, n)
        for Ri, Pi in zip(R, P):
            assert Ri.tobytes() == residual(A, Pi, 0.7).tobytes()

    def test_stack_dimension_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            residual(rng.standard_normal((3, 3)), np.zeros((5, 4, 4)), 0.0)

    def test_stack_with_one_asymmetric_storage_rejected(self, rng):
        P = _symmetric_stack(rng)
        # beyond this matrix's allowance, but within the large last matrix's
        P[0, 0, 1] += 1e-6
        with pytest.raises(DimensionError):
            residual(rng.standard_normal((4, 4)), P, 0.0)


class TestCheckDominance:
    def test_known_storage_passes(self, msd_c4):
        cert = DominanceCertificate(P=registry.KNOWN_STORAGE[4], rate=RATE, epsilon=0.0, p=1)
        verdict = check_dominance(msd_c4, cert)
        assert verdict.passed and verdict.status == "pass"
        assert inertia_of(registry.KNOWN_STORAGE[4]).as_tuple() == (1, 0, 1)

    def test_strict_margin(self):
        cert = DominanceCertificate(P=np.eye(2), rate=0.0, epsilon=1.0, p=0)
        assert check_dominance(lti_model(-np.eye(2)), cert).passed  # residual -2I <= -I

    def test_wrong_claim_fails_with_witness(self, msd_c4):
        # p = 0 cannot hold: an eigenvalue sits above -rate
        cert = DominanceCertificate(P=np.eye(2), rate=RATE, epsilon=0.0, p=0)
        verdict = check_dominance(msd_c4, cert)
        assert not verdict.passed
        assert verdict.status == "residual_violation"
        (vertex,) = verdict.vertices
        assert vertex.corner == () and vertex.split_ok is None
        assert vertex.status == "residual_violation" and vertex.lmax > 0
        assert verdict.to_dict()["vertices"][0]["witness_eigenvalue"] == vertex.lmax
        # the witness eigenvector realizes the violation
        assert verdict.witness_corner == ()
        v = verdict.witness
        R = residual(msd_c4.A, np.eye(2), RATE)
        assert v @ R @ v == pytest.approx(vertex.lmax, rel=1e-9)

    def test_inertia_mismatch_distinct(self, msd_c4):
        cert = DominanceCertificate(P=registry.KNOWN_STORAGE[4], rate=RATE, epsilon=0.0, p=0)
        verdict = check_dominance(msd_c4, cert)
        assert verdict.status == "inertia_mismatch"
        # no witness without the claimed inertia
        assert verdict.witness is None and verdict.witness_corner is None
        assert verdict.to_dict()["vertices"][0]["witness_eigenvalue"] is None

    def test_nan_margin_is_refused(self):
        # lmax = 4 on diag(1, 2) with P = diag(-1, 1): no margin, NaN included, may excuse it. The kernel
        # takes its claim as given, so a NaN claim is refused where it enters: in a certificate's constructor
        from pdom.differential import check_diff_dissipativity, check_diff_dominance
        from pdom.dissipativity import DissipativityCertificate, supply_passivity

        A, P = np.diag([1.0, 2.0]), np.diag([-1.0, 1.0])
        sys = LtiSystem(A=A, B=np.ones((2, 1)), C=np.ones((1, 2)))
        with pytest.raises(ValueError, match="finite"):
            DominanceCertificate(P=P, rate=0.0, epsilon=np.nan, p=1)
        with pytest.raises(ValueError, match="finite"):
            DissipativityCertificate(P=P, rate=0.0, epsilon=np.nan, p=1, supply=supply_passivity(1))
        # the bare-storage checks, which take the kernel's p-from-inertia path at margin 0, refuse a NaN rate
        with pytest.raises(ValueError, match="finite"):
            check_diff_dominance(sys, P, np.nan)
        with pytest.raises(ValueError, match="finite"):
            check_diff_dissipativity(sys, P, np.nan, supply_passivity(1))

    @pytest.mark.parametrize("field", ["rate", "epsilon"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_certificate_rejected(self, field, bad):
        claim = {"P": np.diag([-1.0, 1.0]), "rate": 0.0, "epsilon": 0.0, "p": 1, field: bad}
        with pytest.raises(ValueError, match="finite"):
            DominanceCertificate(**claim)


def _symmetric_stack(rng):
    """Three symmetric 4x4 blocks; the last is large, so an allowance taken
    over the whole stack would hide a small block's asymmetry."""
    S = rng.standard_normal((3, 4, 4))
    S = S + S.swapaxes(1, 2)
    S[2] *= 1e6
    return S


class TestStackedKernel:
    """A (k, d, d) stack is eigensolved in one call, with every matrix checked as a single one is."""

    def test_solves_match_single_matrices(self, rng):
        S = _symmetric_stack(rng)
        w, V = mc.sym_eigen(S)
        for block, wi, Vi in zip(S, w, V):
            w1, V1 = mc.sym_eigen(block)
            assert w1.tobytes() == wi.tobytes() and V1.tobytes() == Vi.tobytes()

    def test_asymmetric_block_rejected(self, rng, monkeypatch):
        S = _symmetric_stack(rng)
        # beyond SYM_TOL * max(1, ||S_0||_F), about 1e-8, but within the last block's allowance
        S[0, 0, 1] += 1e-6
        with pytest.raises(DimensionError):
            mc.sym_eigen(S[0])
        with pytest.raises(DimensionError):
            mc.sym_eigen(S)
        monkeypatch.setattr(lti, "_residual", lambda *args: S)  # the kernel's block stack
        with pytest.raises(DimensionError):
            _family_verdict(lti_model(-np.eye(4)), -np.eye(4), 0.0, 4, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_rejected(self, rng, bad, monkeypatch):
        S = _symmetric_stack(rng)
        S[1, 2, 2] = bad
        with pytest.raises(NumericalError):
            mc.sym_eigen(S[1])
        with pytest.raises(NumericalError):
            mc.sym_eigen(S)
        monkeypatch.setattr(lti, "_residual", lambda *args: S)  # the kernel's block stack
        with pytest.raises(NumericalError):
            _family_verdict(lti_model(-np.eye(4)), -np.eye(4), 0.0, 4, 0.0)


class TestEigenSplit:
    def test_msd_split(self, msd_c4):
        verdict = eigen_split_test(msd_c4, RATE, 1)
        assert verdict.passed
        assert verdict.margin == pytest.approx(1.0, abs=1e-3)

    def test_hurwitz_is_zero_dominant(self, msd_c4):
        assert eigen_split_test(msd_c4, 0.0, 0).passed

    def test_large_rate_flips_everything(self, msd_c4):
        assert eigen_split_test(msd_c4, 5.0, 2).passed

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_rate_rejected(self, msd_c4, lam):
        with pytest.raises(ValueError, match="finite"):
            eigen_split_test(msd_c4, lam, 1)

    def test_inconclusive_on_axis(self):
        verdict = eigen_split_test(lti_model(np.diag([-1.0, -2.0])), 1.0, 1)
        assert verdict.status == "inconclusive"

    def test_schur_form_is_carried_outside_the_report(self, msd_c4):
        # the form the spectrum was read off rides along for the construction; ==, repr and to_dict ignore it
        verdict = eigen_split_test(msd_c4, RATE, 1)
        T, Z, _ = mc._real_schur(msd_c4.A)
        assert verdict.schur[0].tobytes() == T.tobytes() and verdict.schur[1].tobytes() == Z.tobytes()
        bare = lti.SplitVerdict(verdict.status, verdict.margin, verdict.unstable_count, verdict.requested_p)
        assert verdict == bare and repr(verdict) == repr(bare)
        assert verdict.to_dict() == {"status": "pass", "margin": verdict.margin, "unstable_count": 1, "requested_p": 1}

    def test_zero_dominance_iff_hurwitz(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((n, n))
            re = np.linalg.eigvals(A).real
            if np.min(np.abs(re)) < 1e-3:
                continue
            assert eigen_split_test(lti_model(A), 0.0, 0).passed == bool(np.all(re < 0))


class TestImpossibleClaim:
    """A negative or non-finite rate, or a p outside [0, n], is an input error on every entry."""

    @pytest.mark.parametrize("lam, p", [(RATE, 5), (RATE, -1), (-0.5, 1), (-0.5, 0)])
    def test_split_test_and_construction(self, msd_c4, lam, p):
        for entry in (eigen_split_test, construct_certificate):
            with pytest.raises(ValueError, match="nonnegative|outside"):
                entry(msd_c4, lam, p)

    @pytest.mark.parametrize("lam, p", [(-0.5, 1), (RATE, 3)])
    def test_storage_checks(self, msd_c4, lam, p):
        with pytest.raises(ValueError, match="nonnegative|outside"):
            check_dominance(msd_c4, DominanceCertificate(P=registry.KNOWN_STORAGE[4], rate=lam, epsilon=0.0, p=p))

    @pytest.mark.parametrize("p", [1.5, 1.0, True, np.True_, "1"])
    def test_p_that_is_not_an_integer(self, msd_c4, p):
        for entry in (eigen_split_test, construct_certificate):
            with pytest.raises(ValueError, match="integer"):
                entry(msd_c4, RATE, p)
        with pytest.raises(ValueError, match="integer"):
            check_dominance(msd_c4, DominanceCertificate(P=registry.KNOWN_STORAGE[4], rate=RATE, epsilon=0.0, p=p))
        # a certificate file's p is not converted: int() would read 1.5 or true as 1, and this storage passes at p = 1
        with pytest.raises(ValueError, match="integer"):
            DominanceCertificate.from_dict({"P": registry.KNOWN_STORAGE[4].tolist(), "lambda": RATE, "p": p})

    @pytest.mark.parametrize("kind", ["dominance", "dissipativity"])
    def test_certificate_p_none(self, msd_c4, kind):
        # a verifier reads an omitted p off the storage; a certificate states its p
        from pdom.dissipativity import DissipativityCertificate, supply_passivity

        data = {"P": registry.KNOWN_STORAGE[4].tolist(), "lambda": RATE, "p": None}
        claim = {"P": registry.KNOWN_STORAGE[4], "rate": RATE, "epsilon": 0.0, "p": None}
        if kind == "dominance":
            builds = (lambda: DominanceCertificate.from_dict(data), lambda: DominanceCertificate(**claim))
        else:
            builds = (lambda: DissipativityCertificate.from_dict({**data, "supply": {"kind": "passivity"}}, r=1, m=1),
                      lambda: DissipativityCertificate(**claim, supply=supply_passivity(1)))
        for build in builds:
            with pytest.raises(ValueError, match="claimed dominant dimension must be an integer, got None"):
                build()

    @pytest.mark.parametrize("p", [1, np.int64(1), np.int32(1)])
    def test_integer_p_is_stored_as_int(self, msd_c4, p):
        data = {"P": registry.KNOWN_STORAGE[4].tolist(), "lambda": RATE, "p": p}
        cert = DominanceCertificate.from_dict(data)
        assert type(cert.p) is int and cert.p == 1
        assert type(cert.to_dict()["p"]) is int
        assert check_dominance(msd_c4, cert).passed

    @pytest.mark.parametrize("field", ["lambda", "epsilon"])
    @pytest.mark.parametrize("bad", [True, False, np.True_, "1.2", None, [1.0]])
    def test_rate_or_margin_that_is_not_a_number(self, field, bad):
        # float() would read true as 1.0 and "1.2" as 1.2
        data = {"P": registry.KNOWN_STORAGE[4].tolist(), "lambda": RATE, "p": 1, field: bad}
        with pytest.raises(ValueError, match="must be a number"):
            DominanceCertificate.from_dict(data)
        with pytest.raises(ValueError, match="must be a number"):
            DominanceCertificate(P=registry.KNOWN_STORAGE[4], rate=data["lambda"], epsilon=data.get("epsilon", 0.0),
                                 p=1)

    @pytest.mark.parametrize("field", ["lambda", "epsilon"])
    @pytest.mark.parametrize("big", [10**400, -(10**400), 2**1024], ids=["401-digits", "negative", "2^1024"])
    def test_integer_beyond_float_range_is_not_finite(self, field, big):
        # np.isfinite raised a TypeError on a Python int that no float holds
        data = {"P": registry.KNOWN_STORAGE[4].tolist(), "lambda": RATE, "p": 1, field: big}
        with pytest.raises(ValueError, match="must be finite"):
            DominanceCertificate.from_dict(data)

    @pytest.mark.parametrize("rate", [0, np.int64(0), np.float32(0.0)])
    def test_numeric_rate_and_margin_are_stored_as_float(self, rate):
        cert = DominanceCertificate.from_dict({"P": registry.KNOWN_STORAGE[4].tolist(), "lambda": rate, "epsilon": 0,
                                               "p": 1})
        assert type(cert.rate) is float and type(cert.epsilon) is float
        assert cert.to_dict()["lambda"] == 0.0 and type(cert.to_dict()["lambda"]) is float


class TestConstructCertificate:
    def test_diagonal_closed_form(self):
        A = np.diag([-0.2679, -3.7321])
        cert = construct_certificate(lti_model(A), 1.2679, 1)
        assert cert.P == pytest.approx(np.diag([-0.5, 0.2029]), abs=1e-4)

    def test_stable_identity(self):
        cert = construct_certificate(lti_model(-np.eye(2)), 0.0, 0)
        assert np.allclose(cert.P, 0.5 * np.eye(2))

    def test_msd_certificate_verifies(self, msd_c4):
        cert = construct_certificate(msd_c4, RATE, 1)
        assert cert.epsilon > 0
        assert inertia_of(cert.P).as_tuple() == (1, 0, 1)
        assert check_dominance(msd_c4, cert).passed

    def test_residual_eigensolved_once(self, msd_c4, monkeypatch):
        # one eigensolve, of the stack [P, R], for P's inertia and the residual's verdict and margin
        calls = []
        for name in ("sym_eigen", "sym_eigvals"):
            original = getattr(mc, name)
            monkeypatch.setattr(mc, name, lambda S, original=original: calls.append(np.shape(S)) or original(S))
        cert = construct_certificate(msd_c4, RATE, 1)
        assert calls == [(2, 2, 2)]
        assert check_dominance(msd_c4, cert).passed

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_non_hyperbolic_refused(self, p):
        # A + I has the eigenvalue 0: the split rule on T's diagonal refuses every p
        with pytest.raises(ValueError, match="imaginary axis"):
            construct_certificate(lti_model(np.diag([-1.0, -2.0])), 1.0, p)

    def test_nan_rate_rejected(self, msd_c4):
        with pytest.raises(ValueError, match="finite"):
            construct_certificate(msd_c4, np.nan, 1)

    def test_a_storage_its_verdict_refuses_is_not_returned(self):
        # the exact storage diag(-2.5e5, 5e-4) has its smaller eigenvalue inside ZTOL_REL ||P||: the verdict reads
        # it as zero, and the construction refuses the storage rather than return it
        A = np.diag([2e-6, -1e3])
        with pytest.raises(NumericalError, match="failed verification: inertia_mismatch"):
            construct_certificate(lti_model(A), 0.0, 1)
        exact = DominanceCertificate(P=np.diag([-2.5e5, 5e-4]), rate=0.0, epsilon=0.0, p=1)
        assert check_dominance(lti_model(A), exact).status == "inertia_mismatch"

    @pytest.mark.parametrize("model", OVERFLOWING_CONSTRUCTIONS.values(), ids=OVERFLOWING_CONSTRUCTIONS.keys())
    def test_overflowing_construction_is_numerical(self, model):
        # a finite model whose block decoupling or storage overflows: a NumericalError, and no RuntimeWarning
        sys = LtiSystem.from_dict(model)
        assert eigen_split_test(sys, 0.0, 1).passed
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError):
                construct_certificate(sys, 0.0, 1)

    @pytest.mark.parametrize("angle, proved", [(0.1, True), (1.0, False)])
    def test_the_family_verdict_is_the_only_proof(self, msd_c4, monkeypatch, angle, proved):
        # trsen's basis turned by a rotation in its first two columns: Q T Q^T is no longer A. The storage built
        # on it is proved or refused on A itself, with no second check of the basis
        import scipy.linalg.lapack as lapack

        dtrsen = lapack.dtrsen

        def rotated(*args, **kwargs):
            T, Q, *rest = dtrsen(*args, **kwargs)
            G = np.eye(len(Q))
            G[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
            return (T, Q @ G, *rest)

        monkeypatch.setattr(lapack, "dtrsen", rotated)
        if proved:
            assert check_dominance(msd_c4, construct_certificate(msd_c4, RATE, 1)).passed
        else:
            with pytest.raises(NumericalError):
                construct_certificate(msd_c4, RATE, 1)

    def test_equivalence_with_split_test(self, rng):
        # certificate construction succeeds exactly when the split test passes
        for _ in range(50):
            n = int(rng.integers(2, 9))
            lam = float(np.abs(rng.standard_normal()))
            A, p = random_hyperbolic(rng, n, lam)
            assert eigen_split_test(lti_model(A), lam, p).passed
            cert = construct_certificate(lti_model(A), lam, p)
            assert cert.epsilon > 0
            assert check_dominance(lti_model(A), cert).passed
            wrong = p + 1 if p < n else p - 1
            assert not eigen_split_test(lti_model(A), lam, wrong).passed
            with pytest.raises(ValueError, match="unstable eigenvalues"):
                construct_certificate(lti_model(A), lam, wrong)


class TestNearAxisBattery:
    """One eigenvalue at -lam + delta, delta in {0, +-5e-8, +-1e-7, +-2e-7}, in random coordinates V: the claims the
    split rule decides by rounding. The split verdict and the construction read one spectrum, the unsorted Schur
    form's, so they decide each of them alike."""

    DELTAS = (0.0, 5e-8, -5e-8, 1e-7, -1e-7, 2e-7, -2e-7)

    @classmethod
    def _claims(cls, rng, count):
        """``(A, lam, p)`` for ``count`` draws: p is the count of the other unstable eigenvalues, or one more."""
        for i in range(count):
            n = int(rng.integers(2, 9))
            lam = float(rng.uniform(0.0, 2.0))
            others = rng.choice([-1.0, 1.0], n - 1) * rng.uniform(0.3, 3.0, n - 1)
            V = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            A = V @ np.diag([cls.DELTAS[i % 7], *others]) @ np.linalg.inv(V) - lam * np.eye(n)
            p = int(np.sum(others > 0) + rng.integers(0, 2))
            if p <= n:
                yield A, lam, p

    def test_refuses_exactly_what_the_rule_refuses_on_the_schur_form(self):
        seen = {"refused": 0, "certified": 0, "numerical": 0}
        for A, lam, p in self._claims(np.random.default_rng(37), 700):
            shifted = mc._real_schur(A)[2].real + lam  # the real parts of A + lam I's spectrum
            refused = np.min(np.abs(shifted)) <= SPLIT_TOL or np.sum(shifted > SPLIT_TOL) != p
            try:
                cert = construct_certificate(lti_model(A), lam, p)
            except ValueError:
                assert refused
                seen["refused"] += 1
                continue
            except NumericalError:
                assert not refused
                seen["numerical"] += 1
                continue
            assert not refused and check_dominance(lti_model(A), cert).passed
            seen["certified"] += 1
        assert min(seen.values()) >= 30, seen

    def test_split_verdict_passes_exactly_what_the_construction_accepts(self):
        # a claim the split verdict passes is never refused by the construction, and one it does not pass always is
        seen = {"inconclusive": 0, "fail": 0, "pass": 0}
        for A, lam, p in self._claims(np.random.default_rng(39), 3000):
            split = eigen_split_test(lti_model(A), lam, p)
            try:
                construct_certificate(lti_model(A), lam, p)
                accepted = True
            except ValueError:
                accepted = False
            except NumericalError:  # accepted, then failed its own check
                accepted = True
            assert split.passed == accepted, (split, lam, p)
            seen[split.status] += 1
        assert min(seen.values()) >= 300, seen


def _split_battery(rng):
    """Systems with their rate and p: random ones, p = 0 and p = n ones, and 2x2 Schur blocks on both sides."""
    for k in range(48):
        n = 1 + k % 8
        lam = float(abs(rng.standard_normal()))
        A, p = random_hyperbolic(rng, n, lam)
        yield A, lam, p
        real = np.linalg.eigvals(A).real + lam
        yield A - (real.max() + 0.5) * np.eye(n), lam, 0
        yield A - (real.min() - 0.5) * np.eye(n), lam, n
    for _ in range(12):
        n = int(rng.integers(4, 9))
        core = np.diag(rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 3.0, n))
        core[:2, :2] = [[0.4, 1.5], [-1.5, 0.4]]  # unstable pair
        core[2:4, 2:4] = [[-0.6, 2.5], [-2.5, -0.6]]  # stable pair
        mix = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        A = mix @ core @ np.linalg.inv(mix)
        yield A, 0.0, int(np.sum(np.linalg.eigvals(A).real > 0))


def _block_core(T1, T2, lam):
    """``blockdiag(-Xu, Xs)``, each block storage one ``trsyl`` of its own, symmetrized."""
    p, m = len(T1), len(T2)
    core = np.zeros((p + m, p + m))
    if p > 0:
        M = T1 + lam * np.eye(p)
        X = _trsyl(M, M, np.eye(p), trana="T")
        core[:p, :p] = -(0.5 * (X + X.T))  # -Xu
    if m > 0:
        M = T2 + lam * np.eye(m)
        X = _trsyl(M, M, -np.eye(m), trana="T")
        core[p:, p:] = 0.5 * (X + X.T)  # Xs
    return core


def _reference_storage(A, lam, p):
    """The closed-form storage ``Q V^{-T} blockdiag(-Xu, Xs) V^{-1} Q^T`` on the split's Schur basis, symmetrized.

    ``V^{-1} = [[I, -Y], [0, I]]`` with ``T1 Y - Y T2 = -T12``, in the construction's operation order.
    """
    T, Z, _ = mc._real_schur(np.asarray(A, dtype=float))
    Q, T = mc.schur_split(T, Z, lam)
    n = A.shape[0]
    T1, T2 = T[:p, :p], T[p:, p:]
    Vinv = np.eye(n)
    if 0 < p < n:
        Vinv[:p, p:] = -_trsyl(T1, T2, -T[:p, p:], isgn=-1)
    P = Q @ (Vinv.T @ _block_core(T1, T2, lam) @ Vinv) @ Q.T
    return 0.5 * (P + P.T)


class TestOneFactorization:
    def test_storage_is_bitwise_the_block_solves(self, rng):
        seen = {"p=0": 0, "p=n": 0, "pairs on both sides": 0}
        for A, lam, p in _split_battery(rng):
            _, Winv, T1, T2 = block_split(A, lam, p)
            seen["p=0"] += p == 0
            seen["p=n"] += p == A.shape[0]
            seen["pairs on both sides"] += bool(np.diagonal(T1, -1).any() and np.diagonal(T2, -1).any())
            cert = construct_certificate(lti_model(A), lam, p)
            assert cert.P.tobytes() == _reference_storage(A, lam, p).tobytes()
            # the closed form against the oracle's LU-solved W^{-1}, which shares no formula with it
            P = Winv.T @ _block_core(T1, T2, lam) @ Winv
            np.testing.assert_allclose(cert.P, 0.5 * (P + P.T), rtol=0, atol=1e-12 * np.abs(P).max())
        assert min(seen.values()) >= 10, seen

    def test_one_schur_form_per_certificate(self, rng, monkeypatch):
        import scipy.linalg.lapack as lapack

        calls = []
        gees = lapack.dgees
        monkeypatch.setattr(lapack, "dgees", lambda *a, **k: calls.append(k["lwork"]) or gees(*a, **k))
        solves = []
        lyapunov = mc.lyapunov_solve
        monkeypatch.setattr(mc, "lyapunov_solve", lambda M, Q: solves.append(len(M)) or lyapunov(M, Q))
        for A, lam, p in _split_battery(rng):
            calls.clear()
            solves.clear()
            construct_certificate(lti_model(A), lam, p)
            assert sum(lwork != -1 for lwork in calls) == 1  # one factorization; a workspace query is none
            assert solves == [size for size in (p, len(A) - p) if size]  # one Lyapunov solve per non-empty block

    def test_nothing_is_inverted(self, rng, monkeypatch):
        # the decoupling's inverse is written down, not solved for: no LU solve and no inverse per claim
        claims = list(_split_battery(rng))  # the battery inverts its mixing matrices itself
        calls = []
        for name in ("solve", "inv"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, original=original, name=name, **k:
                                calls.append(name) or original(*a, **k))
        for A, lam, p in claims:
            construct_certificate(lti_model(A), lam, p)
        assert calls == []


class TestComplexPairs:
    # oscillatory modes produce 2x2 Schur blocks; the split and the certificate
    # construction must handle them

    def test_certificate_with_spiral_dominant_pair(self):
        A = spiral_system()
        assert eigen_split_test(lti_model(A), 0.0, 2).passed
        cert = construct_certificate(lti_model(A), 0.0, 2)
        assert inertia_of(cert.P).as_tuple() == (2, 0, 2)
        assert cert.epsilon > 0
        assert check_dominance(lti_model(A), cert).passed

    def test_stable_complex_pair_below_rate(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        A[1:, 1:] = [[-0.5, 3.0], [-3.0, -0.5]]
        assert eigen_split_test(lti_model(A), 0.0, 1).passed
        cert = construct_certificate(lti_model(A), 0.0, 1)
        assert check_dominance(lti_model(A), cert).passed


class TestSerialization:
    def test_system_round_trip(self, msd_c4):
        data = msd_c4.to_dict()
        back = LtiSystem.from_dict(data)
        assert np.allclose(back.A, msd_c4.A)
        assert back.name == msd_c4.name
        assert set(data) == {"name", "A", "B", "C", "D", "channels"}

    def test_certificate_round_trip(self):
        cert = DominanceCertificate(P=registry.KNOWN_STORAGE[4], rate=RATE, epsilon=0.1, p=1)
        data = cert.to_dict()
        assert set(data) == {"P", "lambda", "epsilon", "p"}
        back = DominanceCertificate.from_dict(data)
        assert np.allclose(back.P, cert.P)
        assert back.rate == cert.rate

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            LtiSystem(A=np.eye(2), B=np.ones((3, 1)), C=np.ones((1, 2)), D=np.zeros((1, 1)))
