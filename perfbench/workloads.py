"""The three benchmark workloads: seeded job mixes with oracle-checked outcomes.

A workload produces rounds. Each round is generated from ``(seed, round)``
as plain data (lists and floats, with truth labels computed by
:mod:`oracle`), turned into pdom model objects through ``from_dict``, and
then run as a fixed list of jobs, one at a time. The job mix and counts are
the same for every seed; only the random systems, candidates, planted
problems and initial conditions change.

Each job returns an outcome; its ``check`` compares the outcome with the
oracle and returns one of:

- ``OK``: the verdict agrees with the oracle;
- ``KNOWN``: a wrong result of a kind the package already documents
  (a rescaled bogus storage that passes, a planted storage the LMI search
  misses). It counts as failed but does not make the run incorrect;
- ``WRONG``: any other disagreement. It counts as failed and makes the run
  incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

OK, KNOWN, WRONG = "ok", "known", "wrong"

# rescaled copies of failing storages; the truth is scale-free
SCALES = tuple(float(10.0**k) for k in range(-12, 13))
# a pass at or below this scale is the documented scale-dependence defect
KNOWN_BOGUS_SCALE = 1e-3


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]
    steps: int = 0       # RK4 steps x rows, for the integrator jobs
    vertices: int = 0    # vertex matrices the job checks


def _lists(value):
    return np.asarray(value, dtype=float).tolist()


def _lti_plain(A, B, C, name=""):
    return {
        "name": name,
        "A": _lists(A),
        "B": _lists(B),
        "C": _lists(C),
        "D": np.zeros((C.shape[0], B.shape[1])).tolist(),
    }


def _expect(truth: bool, got: bool, detail: str = "") -> tuple[str, str]:
    return (OK, "") if truth == got else (WRONG, detail or f"expected {truth}, got {got}")


class Workload:
    name = ""
    index = 0
    # expected length of one round at the seed commit on a 2-core machine;
    # a run's round count comes from --seconds and this, never from the clock
    nominal_round_s = 1.0

    def __init__(self, pdom, seed: int):
        self.pdom = pdom
        self.seed = seed

    def rng(self, rnd: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.index, rnd])

    def plain_round(self, rnd: int) -> dict:
        raise NotImplementedError

    def build(self, plain: dict) -> dict:
        raise NotImplementedError

    def jobs(self, plain: dict, models: dict, rnd: int) -> list[Job]:
        raise NotImplementedError

    def warmup(self, plain: dict, models: dict) -> list[Callable[[], object]]:
        """Calls made once, untimed, before the first timed round: by
        default the first job of each kind."""
        first = {}
        for job in self.jobs(plain, models, 0):
            first.setdefault(job.kind, job.run)
        return list(first.values())


# ==========================================================================
# verify: the checker's read path


VERIFY_SIZES = (4, 8, 16, 24, 32)
ANALYZE_PER_SIZE = 60
CANDIDATE_SYSTEMS = 5  # planted systems per size for each candidate check
MISMATCH_SIZES = (8, 24)  # analyze jobs asking for the wrong dominant dimension
VERTEX_CHANNELS = tuple(range(2, 13))
VERTEX_STATES = 6
VERTEX_KINDS = ("check_diff_dominance", "check_diff_dissipativity")
LOOP_SIZES = (4, 16)


def _failing_storage(rng, n, p, margin_of) -> np.ndarray:
    """A storage of inertia (p, 0, n-p) whose residual clearly fails."""
    for _ in range(200):
        F = oracle.indefinite_storage(rng, n, p, spread=1.5)
        if margin_of(F) >= 10 * oracle.CLEAR:
            return F
    raise RuntimeError(f"no clearly failing storage found for n={n}, p={p}")


def _gain_setup(rng, n, m, P, q_lo):
    """B, C and a gain supply for which the planted P is clearly dissipative."""
    B = rng.standard_normal((n, m))
    B /= np.linalg.norm(B, 2)
    C = rng.standard_normal((m, n))
    C *= np.sqrt(0.1 * q_lo) / np.linalg.norm(C, 2)
    gamma2 = 4.0 * np.linalg.norm(P @ B, 2) ** 2 / q_lo
    Q, L, R = -np.eye(m), np.zeros((m, m)), gamma2 * np.eye(m)
    return B, C, (Q, L, R)


def _supply_plain(Q, L, R, scale=1.0):
    return {"Q": _lists(scale * Q), "L": _lists(scale * L), "R": _lists(scale * R)}


def _sigma_plain(rng, k):
    """Alternate scaled cubic springs and random piecewise-linear tables."""
    if k % 2 == 0:
        f = rng.uniform(0.2, 0.5)
        return {"kind": "scaled", "factor": f, "base": {"kind": "cubic_saturated"}}, -3.0 * f, f
    knots = np.linspace(-3.0, 3.0, 7)
    slopes = rng.uniform(-1.0, 1.0, 6)
    values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
    sigma = {"kind": "tabulated", "knots": knots.tolist(), "values": values.tolist()}
    return sigma, float(slopes.min()), float(slopes.max())


def _dominance_candidates(rng, n):
    """A valid, an inertia-flipped and rescaled failing storages for one
    planted system."""
    p = int(rng.integers(0, 3))
    lam = float(rng.uniform(0.0, 1.0))
    A, P, _ = oracle.planted_dominant(rng, n, p, lam)
    F = _failing_storage(rng, n, p, lambda S: oracle.dominance_margin(A, S, lam))
    cands = [("valid", P * 10.0 ** rng.uniform(-2, 2), 1.0), ("flipped", -P, 1.0)]
    cands += [("rescaled", F * s, s) for s in SCALES]
    sys_plain = _lti_plain(A, rng.standard_normal((n, 1)), rng.standard_normal((1, n)))
    return [
        {"sys": sys_plain, "cert": {"P": _lists(S), "lambda": lam, "epsilon": 0.0, "p": p},
         "label": label, "scale": scale,
         "truth": oracle.storage_label(A, S, lam, p, oracle.dominance_margin(A, S, lam))}
        for label, S, scale in cands
    ]


def _dissipativity_candidates(rng, n):
    """The same under a gain supply, scaled together with the storage; m = 2
    from n = 24 on, so the blocks are 26 and 34 wide."""
    m = 2 if n >= 24 else 1
    p = int(rng.integers(0, 3))
    lam = float(rng.uniform(0.0, 1.0))
    A, P, _ = oracle.planted_dominant(rng, n, p, lam)
    B, C, (Q, L, R) = _gain_setup(rng, n, m, P, 0.5)
    margin_of = lambda S, s=1.0: oracle.dissipation_margin(A, B, C, S, lam, s * Q, s * L, s * R)
    F = _failing_storage(rng, n, p, margin_of)
    v = 10.0 ** rng.uniform(-2, 2)
    cands = [("valid", P * v, v), ("flipped", -P, 1.0)]
    cands += [("rescaled", F * s, s) for s in SCALES]
    sys_plain = _lti_plain(A, B, C)
    return [
        {"sys": sys_plain,
         "cert": {"P": _lists(S), "lambda": lam, "epsilon": 0.0, "p": p, "supply": _supply_plain(Q, L, R, scale)},
         "r": m, "m": m, "label": label, "scale": scale, "truth": oracle.storage_label(A, S, lam, p, margin_of(S, scale))}
        for label, S, scale in cands
    ]


class Verify(Workload):
    """Split tests, certificate construction and candidate checks on LTI
    systems, loop certificates on LTI pairs, and vertex checks on Lur'e
    systems. Neither lmi nor sim runs."""

    name = "verify"
    index = 0
    nominal_round_s = 8.5

    def plain_round(self, rnd):
        rng = self.rng(rnd)
        out = {"analyze": [], "dominance": [], "dissipativity": [], "loops": [], "coupling": [], "vertex": []}
        for n in VERIFY_SIZES:
            # analyze: split test, construction, check and (0 < p < n) cone probe
            for rep in range(ANALYZE_PER_SIZE):
                p = int(rng.integers(0, 3))
                lam = float(rng.uniform(0.2, 1.0))
                A = oracle.hyperbolic(rng, n, p, lam)
                count, distance = oracle.split_count(A, lam)
                if count != p or distance < oracle.CLEAR:
                    raise RuntimeError("generated system is not clearly hyperbolic")
                B, C = rng.standard_normal((n, 1)), rng.standard_normal((1, n))
                mismatch = rep == 0 and n in MISMATCH_SIZES
                out["analyze"].append(
                    {"sys": _lti_plain(A, B, C), "lam": lam, "p": p + mismatch, "split_ok": not mismatch,
                     "probe_seed": int(rng.integers(2**31))}
                )

            for _ in range(CANDIDATE_SYSTEMS):
                out["dominance"] += _dominance_candidates(rng, n)
                out["dissipativity"] += _dissipativity_candidates(rng, n)

        # passive LTI pairs: the loop certificate must come back verified
        lam = float(rng.uniform(0.1, 0.8))
        for n in LOOP_SIZES:
            pair = []
            for _ in range(2):
                p = int(rng.integers(0, 2))
                A, P, _ = oracle.planted_dominant(rng, n, p, lam)
                B = rng.standard_normal((n, 1))
                B /= np.linalg.norm(B, 2)
                C = (P @ B).T
                pair.append((A, B, C, P, p))
            A_cl = oracle.feedback_matrix(*pair[0][:3], *pair[1][:3])
            P_cl = np.block([[pair[0][3], np.zeros((n, n))], [np.zeros((n, n)), pair[1][3]]])
            p_cl = pair[0][4] + pair[1][4]
            truth = oracle.storage_label(A_cl, P_cl, lam, p_cl, oracle.dominance_margin(A_cl, P_cl, lam))
            out["loops"].append(
                {"systems": [_lti_plain(*s[:3]) for s in pair],
                 "certs": [{"P": _lists(s[3]), "lambda": lam, "epsilon": 0.0, "p": s[4],
                            "supply": {"kind": "passivity"}} for s in pair],
                 "P": _lists(P_cl), "p": p_cl, "truth": truth}
            )

        # coupling of balanced gain supplies, decided by gamma1 * gamma2 against 1
        for product in (0.5, 2.0):
            g1 = float(rng.uniform(0.5, 2.0))
            g2 = product / g1
            tau = g1 / g2
            s1 = (-np.eye(1), np.zeros((1, 1)), g1 * g1 * np.eye(1))
            s2 = (-tau * np.eye(1), np.zeros((1, 1)), tau * g2 * g2 * np.eye(1))
            lmax = float(np.linalg.eigvalsh(oracle.composed_output_supply(*s1, *s2))[-1])
            scale = max(np.abs(np.concatenate([np.ravel(x) for x in s1 + s2])))
            if abs(lmax) < oracle.CLEAR * scale:
                raise RuntimeError("coupling case is not clearly decided")
            out["coupling"].append(
                {"supplies": [_supply_plain(*s1), _supply_plain(*s2)], "truth": lmax < 0}
            )
        # the first pair again, under the supplies that fail the coupling test
        loop, bad = out["loops"][0], out["coupling"][-1]
        out["refused"] = {
            "systems": loop["systems"],
            "certs": [dict(cert, supply=supply) for cert, supply in zip(loop["certs"], bad["supplies"])],
        }

        # Lur'e vertex checks over 2^k slope corners, k = 2..12
        n = VERTEX_STATES
        for k in VERTEX_CHANNELS:
            lam = float(rng.uniform(0.2, 0.8))
            A, P, _ = oracle.planted_dominant(rng, n, 1, lam)
            channels, G, H, lo, hi = [], [], [], [], []
            for i in range(k):
                sigma, alpha, beta = _sigma_plain(rng, i)
                h = rng.standard_normal(n)
                h /= np.linalg.norm(h)
                g = rng.standard_normal(n)
                g *= 0.25 / (2 * k * max(abs(alpha), abs(beta)) * np.linalg.norm(g))
                channels.append({"g": g.tolist(), "h": h.tolist(), "sigma": sigma, "alpha": alpha, "beta": beta})
                G.append(g), H.append(h), lo.append(alpha), hi.append(beta)
            B, C, (Q, L, R) = _gain_setup(rng, n, 1, P, 0.25)
            J = oracle.vertex_matrices(A, np.array(G), np.array(H), lo, hi)
            checks = []
            for i, kind in enumerate(VERTEX_KINDS):
                # one check on the valid storage and one on the inertia-flipped
                # storage, swapping from round to round
                S = P if (k + rnd + i) % 2 == 0 else -P
                if kind == "check_diff_dominance":
                    truth = oracle.family_label(oracle.dominance_margins(J, S, lam))
                else:
                    truth = oracle.family_label(oracle.dissipation_margins(J, B, C, S, lam, Q, L, R))
                checks.append({"kind": kind, "P": _lists(S), "truth": truth})
            out["vertex"].append(
                {"sys": {"name": f"lure-k{k}", "A": _lists(A), "B": _lists(B), "C": _lists(C), "channels": channels},
                 "lam": lam, "supply": _supply_plain(Q, L, R), "k": k, "checks": checks}
            )
        return out

    def build(self, plain):
        pd = self.pdom
        lti = pd.LtiSystem.from_dict
        return {
            "analyze": [lti(c["sys"]) for c in plain["analyze"]],
            "dominance": [(lti(c["sys"]), pd.DominanceCertificate.from_dict(c["cert"])) for c in plain["dominance"]],
            "dissipativity": [
                (lti(c["sys"]), pd.DissipativityCertificate.from_dict(c["cert"], r=c["r"], m=c["m"]))
                for c in plain["dissipativity"]
            ],
            "loops": [
                ([lti(s) for s in c["systems"]],
                 [pd.DissipativityCertificate.from_dict(x, r=1, m=1) for x in c["certs"]])
                for c in plain["loops"]
            ],
            "coupling": [[pd.SupplyRate.from_dict(s) for s in c["supplies"]] for c in plain["coupling"]],
            "refused": (
                [lti(s) for s in plain["refused"]["systems"]],
                [pd.DissipativityCertificate.from_dict(x, r=1, m=1) for x in plain["refused"]["certs"]],
            ),
            "vertex": [(pd.LureSystem.from_dict(c["sys"]), pd.SupplyRate.from_dict(c["supply"])) for c in plain["vertex"]],
        }

    def jobs(self, plain, models, rnd):
        pd = self.pdom
        jobs = []

        def analyze(sys, c):
            def run():
                split = pd.eigen_split_test(sys, c["lam"], c["p"])
                if not split.passed:
                    return split.status, None, None, None
                cert = pd.construct_certificate(sys, c["lam"], c["p"])
                verdict = pd.check_dominance(sys, cert)
                probe = None
                if 0 < c["p"] < sys.n:
                    cone = pd.QuadraticCone(P=cert.P, p=c["p"])
                    rng = np.random.default_rng(c["probe_seed"])
                    probe = pd.positivity_probe(sys, cone, (0.1, 1.0), 64, rng).passed
                return split.status, cert, verdict.passed, probe

            def check(out):
                status, cert, passed, probe = out
                if (status == "pass") != c["split_ok"]:
                    return WRONG, f"split {status}, expected ok={c['split_ok']}"
                if cert is None:
                    return OK, ""
                A = sys.A
                (neg, zero, pos), _ = oracle.inertia(cert.P)
                sound = (neg, zero, pos) == (c["p"], 0, sys.n - c["p"]) and \
                    oracle.dominance_margin(A, cert.P, c["lam"]) < 0 and cert.p == c["p"]
                if not sound:
                    return WRONG, "constructed certificate fails the numpy recheck"
                if not passed:
                    return WRONG, "constructed certificate rejected"
                if probe is False:
                    return WRONG, "cone probe failed for a valid certificate"
                return OK, ""

            return Job("analyze", run, check)

        for sys, c in zip(models["analyze"], plain["analyze"]):
            jobs.append(analyze(sys, c))

        def candidate(kind, verify, sys, cert, c):
            def check(verdict):
                if verdict.passed == c["truth"]:
                    return OK, ""
                if verdict.passed and c["label"] == "rescaled" and c["scale"] <= KNOWN_BOGUS_SCALE:
                    return KNOWN, f"bogus storage passes at scale {c['scale']:.0e}"
                return WRONG, f"{c['label']} storage: expected {c['truth']}, got {verdict.passed}"

            return Job(kind, lambda: verify(sys, cert), check)

        for (sys, cert), c in zip(models["dominance"], plain["dominance"]):
            jobs.append(candidate("check_dominance", lambda s, x: pd.check_dominance(s, x), sys, cert, c))
        for (sys, cert), c in zip(models["dissipativity"], plain["dissipativity"]):
            jobs.append(candidate("verify_dissipativity", lambda s, x: pd.verify_dissipativity(s, x), sys, cert, c))

        for (systems, certs), c in zip(models["loops"], plain["loops"]):
            def run(systems=systems, certs=certs):
                return pd.closed_loop_certificate(systems[0], certs[0], systems[1], certs[1])

            def check(cert, c=c):
                same = cert.p == c["p"] and np.allclose(cert.P, np.asarray(c["P"]), rtol=0, atol=1e-12)
                return _expect(c["truth"], same, "loop certificate differs from blockdiag(P1, P2)")

            jobs.append(Job("closed_loop_certificate", run, check))

        for (s1, s2), c in zip(models["coupling"], plain["coupling"]):
            jobs.append(Job("coupling_condition", lambda s1=s1, s2=s2: pd.coupling_condition(s1, s2).passed,
                            lambda got, c=c: _expect(c["truth"], got)))

        def refused(systems=models["refused"][0], certs=models["refused"][1]):
            try:
                pd.closed_loop_certificate(systems[0], certs[0], systems[1], certs[1])
            except pd.CouplingError:
                return True
            return False

        jobs.append(Job("closed_loop_certificate", refused,
                        lambda got: _expect(True, got, "a loop failing the coupling test was certified")))

        for (sys, supply), c in zip(models["vertex"], plain["vertex"]):
            count = 2 ** c["k"]
            for check in c["checks"]:
                P = np.asarray(check["P"])
                if check["kind"] == "check_diff_dominance":
                    run = lambda sys=sys, P=P, c=c: pd.check_diff_dominance(sys, P, c["lam"])
                else:
                    run = lambda sys=sys, P=P, c=c, supply=supply: pd.check_diff_dissipativity(sys, P, c["lam"], supply)

                def verdict_check(verdict, truth=check["truth"], count=count):
                    if len(verdict.vertices) != count:
                        return WRONG, f"{len(verdict.vertices)} vertices checked, expected {count}"
                    return _expect(truth, verdict.passed)

                jobs.append(Job(check["kind"], run, verdict_check, vertices=count))
        return jobs


# ==========================================================================
# search: the write path


SEARCH_SIZES = (4, 6, 10, 16, 24)
SEARCH_COMBOS = tuple((p, m) for p in (0, 1, 2) for m in (1, 2))
# three problems at the wide margin for each one at the narrow margin
SEARCH_MARGINS = (1e-1, 1e-1, 1e-1, 1e-2)
SEARCH_RATE = 0.5


class Search(Workload):
    """Passivity storage search on planted-feasible problems: each has an
    exact storage of inertia (p, 0, n-p) with P B = C^T and residual
    -2 margin I, so a miss is a failure."""

    name = "search"
    index = 1
    nominal_round_s = 8.5

    def plain_round(self, rnd):
        rng = self.rng(rnd)
        problems = []
        for i, n in enumerate(SEARCH_SIZES):
            for j, margin in enumerate(SEARCH_MARGINS):
                p, m = SEARCH_COMBOS[(len(SEARCH_MARGINS) * rnd + i + j) % len(SEARCH_COMBOS)]
                # only orientations are random: rate, coupling norm and the
                # storage's conditioning are fixed, so the difficulty is set
                # by (n, p, m, margin) and not by the draw
                lam = SEARCH_RATE
                P = oracle.indefinite_storage(rng, n, p)
                K = oracle.skew(rng, n, 1.0)
                A = np.linalg.solve(P, -margin * np.eye(n) + K) - lam * np.eye(n)
                B = rng.standard_normal((n, m))
                B /= np.linalg.norm(B, 2)
                C = (P @ B).T
                problems.append({"sys": _lti_plain(A, B, C), "lam": lam, "p": p, "margin": margin})
        return {"problems": problems}

    def build(self, plain):
        return {"systems": [self.pdom.LtiSystem.from_dict(c["sys"]) for c in plain["problems"]]}

    def jobs(self, plain, models, rnd):
        pd = self.pdom
        jobs = []
        for sys, c in zip(models["systems"], plain["problems"]):
            def run(sys=sys, c=c):
                try:
                    return pd.find_passivity_storage(sys, c["lam"], c["p"])
                except pd.LmiInfeasibleError as exc:
                    return exc.report

            def check(out, sys=sys, c=c):
                if isinstance(out, pd.lmi.LmiReport):
                    return KNOWN, f"planted storage missed after {out.iterations} iterations"
                P, A, B, C = out.P, sys.A, sys.B, sys.C
                eq = np.linalg.norm(P @ B - C.T) <= 1e-8 * (np.linalg.norm(P, 2) * np.linalg.norm(B, 2) + np.linalg.norm(C))
                (neg, zero, pos), _ = oracle.inertia(P)
                ok = eq and (neg, zero, pos) == (c["p"], 0, sys.n - c["p"]) and \
                    oracle.dominance_margin(A, P, c["lam"]) < 0
                return (OK, "") if ok else (WRONG, "returned storage fails the numpy recheck")

            jobs.append(Job("find_passivity_storage", run, check))
        return jobs


# ==========================================================================
# simulate: the trajectory path


def _nl_msd_plain(output_row, name):
    return {
        "name": name,
        "A": [[0.0, 1.0], [0.0, -8.0]],
        "B": [[0.0], [1.0]],
        "C": [output_row],
        "channels": [{"g": [0.0, 1.0], "h": [1.0, 0.0], "sigma": {"kind": "cubic_saturated"},
                      "alpha": -3.0, "beta": 1.0}],
    }


def _nl_loop_plain():
    """Negative feedback of two mixed-output cubic oscillators (4 states)."""
    one = _nl_msd_plain([1.0, 2.0], "nl-msd-mixed")
    A1, B1, C1 = (np.asarray(one[k]) for k in ("A", "B", "C"))
    A = oracle.feedback_matrix(A1, B1, C1, A1, B1, C1)
    z2 = np.zeros(2)
    channels = []
    for pad_before, pad_after in ((0, 2), (2, 0)):
        ch = dict(one["channels"][0])
        ch["g"] = np.r_[np.zeros(pad_before), ch["g"], np.zeros(pad_after)].tolist()
        ch["h"] = np.r_[np.zeros(pad_before), ch["h"], np.zeros(pad_after)].tolist()
        channels.append(ch)
    B = np.block([[B1, np.zeros((2, 1))], [np.zeros((2, 1)), B1]])
    C = np.block([[C1, z2[None]], [z2[None], C1]])
    return {"name": "nl-loop", "A": _lists(A), "B": _lists(B), "C": _lists(C), "channels": channels}


SIM_LOOP_BATCH = 10
SIM_WIDE_BATCH = 256
# narrow nl-loop batches: enough of them that the median and the tail both
# land inside this one group, not on a boundary between job kinds
SIM_NARROW_BATCH = 16
SIM_NARROW_RUNS = 12


class Simulate(Workload):
    """RK4 integrations classified by classify_asymptotics: the reproduction
    runs, narrow and wide limit-cycle batches and a long linear run."""

    name = "simulate"
    index = 2
    nominal_round_s = 30.0

    def plain_round(self, rnd):
        rng = self.rng(rnd)
        return {
            "nl_msd": _nl_msd_plain([0.0, 1.0], "nl-msd"),
            "nl_loop": _nl_loop_plain(),
            "msd_c8": _lti_plain(np.array([[0.0, 1.0], [-1.0, -8.0]]), np.array([[0.0], [1.0]]),
                                 np.array([[0.0, 1.0]]), "msd-c8"),
            "loop_x0": rng.uniform(-3.0, 3.0, (SIM_LOOP_BATCH, 4)).tolist(),
            "narrow_x0": rng.uniform(-3.0, 3.0, (SIM_NARROW_RUNS, SIM_NARROW_BATCH, 4)).tolist(),
            "wide_x0": rng.uniform(-3.0, 3.0, (SIM_WIDE_BATCH, 4)).tolist(),
            "c8_x0": rng.uniform(-3.0, 3.0, (1, 2)).tolist(),
        }

    def build(self, plain):
        pd = self.pdom
        return {
            "nl_msd": pd.LureSystem.from_dict(plain["nl_msd"]),
            "nl_loop": pd.LureSystem.from_dict(plain["nl_loop"]),
            "msd_c8": pd.LtiSystem.from_dict(plain["msd_c8"]),
        }

    def jobs(self, plain, models, rnd):
        pd = self.pdom

        def integrate(kind, sys, X0, t_end, dt, record_every, expect):
            X0 = np.asarray(X0, dtype=float)

            def run():
                trajs = pd.integrate_batch(sys, X0, t_end=t_end, dt=dt, record_every=record_every)
                return [pd.classify_asymptotics(t) for t in trajs]

            def check(verdicts):
                kinds = [v.kind for v in verdicts]
                if any(k != expect for k in kinds):
                    return WRONG, f"expected every run to end in a {expect}, got {sorted(set(kinds))}"
                if expect == "limit_cycle" and oracle.period_spread([v.period for v in verdicts]) >= 0.01:
                    return WRONG, "limit-cycle periods disagree by 1% or more"
                return OK, ""

            return Job(kind, run, check, steps=int(round(t_end / dt)) * X0.shape[0])

        return [
            integrate("nl_msd_single", models["nl_msd"], [[1.0, 1.0]], 100.0, 1e-3, 10, "fixed_point"),
            integrate("nl_loop_batch", models["nl_loop"], plain["loop_x0"], 400.0, 1e-2, 2, "limit_cycle"),
            integrate("nl_loop_origin", models["nl_loop"], [[0.0] * 4], 100.0, 1e-2, 1, "fixed_point"),
            integrate("nl_loop_wide", models["nl_loop"], plain["wide_x0"], 400.0, 2e-2, 5, "limit_cycle"),
            integrate("msd_c8_long", models["msd_c8"], plain["c8_x0"], 300.0, 1e-2, 1, "fixed_point"),
            *(integrate("nl_loop_narrow", models["nl_loop"], x0, 400.0, 2.5e-2, 5, "limit_cycle")
              for x0 in plain["narrow_x0"]),
        ]

    def warmup(self, plain, models):
        # a short integration of each model instead of the multi-second jobs
        pd = self.pdom
        return [lambda sys=sys: pd.integrate_batch(sys, np.ones((2, sys.n)), t_end=1.0, dt=1e-2)
                for sys in models.values()]


WORKLOADS = {cls.name: cls for cls in (Verify, Search, Simulate)}
