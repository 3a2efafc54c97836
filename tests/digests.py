"""SHA-256 digests of a pdom tree's results, to show that a change keeps every bit.

usage: OPENBLAS_NUM_THREADS=1 python tests/digests.py [TREE]

TREE (default: the tree holding this file) is a checkout with ``src``, ``perfbench`` and ``tests``. Three lines:

- ``verify DIGEST COUNT``: every job of ``perfbench.workloads`` ``verify`` at seeds 1-5, rounds 0-1. A
  ``DifferentialVerdict`` hashes as ``repr((passed, p, rate, inertia.as_tuple(), witness_corner))``, then the bytes
  of ``vertex_passed``, ``lmax`` and ``split_ok`` (when not None), then ``json.dumps(to_dict(), sort_keys=True)``,
  then the repr of each record's ``(corner, passed, status, lmax, split_ok)``; a tuple item by item; a
  ``DominanceCertificate`` as ``P.tobytes()`` and ``repr((p, epsilon))``; anything else by ``repr``. COUNT is the
  number of verdicts.
- ``search DIGEST misses N``: the bytes of every storage found by the ``search`` jobs at seeds 1-5, rounds 0-3, and
  the number of jobs that found none.
- ``onefactorization DIGEST COUNT``: the bytes of every P that ``construct_certificate`` gives on ``test_lti``'s split
  battery (seed 42).

The workloads build their inputs from their seeds; no data file is read. Reprs of numpy scalars differ across numpy
versions, so compare digests made with one numpy.
"""

import hashlib
import json
import os
import sys

tree = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), os.pardir))
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench"), os.path.join(tree, "tests")]

import numpy as np  # noqa: E402

import pdom  # noqa: E402
from pdom.lmi import LmiReport  # noqa: E402
from pdom.lti import DifferentialVerdict, DominanceCertificate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

assert pdom.__file__.startswith(tree), pdom.__file__


def feed(h, x, count):
    if isinstance(x, DifferentialVerdict):
        count[0] += 1
        h.update(repr((x.passed, x.p, x.rate, x.inertia.as_tuple(), x.witness_corner)).encode())
        h.update(x.vertex_passed.tobytes())
        h.update(x.lmax.tobytes())
        if x.split_ok is not None:
            h.update(x.split_ok.tobytes())
        h.update(json.dumps(x.to_dict(), sort_keys=True).encode())
        for v in x.vertices:
            h.update(repr((v.corner, v.passed, v.status, v.lmax, v.split_ok)).encode())
    elif isinstance(x, tuple):
        for item in x:
            feed(h, item, count)
    elif isinstance(x, DominanceCertificate):
        h.update(x.P.tobytes())
        h.update(repr((x.p, x.epsilon)).encode())
    else:
        h.update(repr(x).encode())


def jobs(name, rounds):
    for seed in range(1, 6):
        workload = WORKLOADS[name](pdom, seed)
        for rnd in range(rounds):
            plain = workload.plain_round(rnd)
            yield from workload.jobs(plain, workload.build(plain), rnd)


h, count = hashlib.sha256(), [0]
for job in jobs("verify", 2):
    feed(h, job.run(), count)
print("verify", h.hexdigest(), count[0])

h, misses = hashlib.sha256(), 0
for job in jobs("search", 4):
    out = job.run()
    if isinstance(out, LmiReport):
        misses += 1
    else:
        h.update(out.P.tobytes())
print("search", h.hexdigest(), "misses", misses)

from conftest import lti_model  # noqa: E402
from test_lti import _split_battery  # noqa: E402

h, n = hashlib.sha256(), 0
for A, lam, p in _split_battery(np.random.default_rng(42)):
    h.update(pdom.construct_certificate(lti_model(A), lam, p).P.tobytes())
    n += 1
print("onefactorization", h.hexdigest(), n)
