import functools
import importlib.util
import os

import pytest

import hurwitz
from hurwitz import build_builtin, make_gamma, sigma, sigma_inv


@pytest.fixture(scope="session")
def s3():
    return build_builtin("sym:3")


@pytest.fixture(scope="session")
def s4():
    return build_builtin("sym:4")


@pytest.fixture(scope="session")
def c4():
    return build_builtin("cyclic:4")


@pytest.fixture(scope="session")
def klein():
    return build_builtin("cyclic:2xcyclic:2")


@pytest.fixture(scope="session")
def d4():
    return build_builtin("dihedral:4")


@pytest.fixture(scope="session")
def q8():
    return build_builtin("quaternion:8")


@pytest.fixture(scope="session")
def a4():
    return build_builtin("alt:4")


@pytest.fixture(scope="session")
def s3_transpositions(s3):
    return make_gamma(s3, [s3.index_of("(12)")])


@pytest.fixture(scope="session")
def s3_all(s3):
    return make_gamma(s3, "all-nontrivial")


# table documents that are well-formed JSON but not a group table
MALFORMED_TABLES = [
    {"order": 2, "mul": 5},
    {"order": 2, "mul": [[0, 1], 5]},
    {"order": 2, "mul": [[0, 1], [1, 0]], "names": 5},
    {"order": 2, "mul": [[0, 1], [1, 0]], "names": ["e", 7]},
    {"order": 2, "mul": [[0, 1], [1, 0]], "names": ["e", "e"]},
]


def el(G, name):
    return G.index_of(name)


def two_sided_orbit(G, v, lo=0, extra=()):
    """Closure of ``v`` under sigma and sigma_inv at every position past the
    first ``lo`` entries, and under the functions in ``extra``.

    An oracle for the package's forward-only kernel, built from the public
    moves alone.
    """
    seen = {v}
    stack = [v]
    while stack:
        t = stack.pop()
        nxt = [move(G, i, t) for i in range(lo + 1, len(t)) for move in (sigma, sigma_inv)]
        nxt += [move(t) for move in extra]
        for u in nxt:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def cli_env(**extra):
    """Environment for a child ``python -m hurwitz.cli``.

    Puts the directory this process imported the package from on the child's
    PYTHONPATH, so the child runs the same code whether or not the suite was
    started with PYTHONPATH set.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(hurwitz.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **extra)


@functools.cache
def bench_oracles():
    """The package-free oracles of ``bench/oracles.py``, imported by path.

    The file is only read; the module is not put in ``sys.modules``, so it
    cannot shadow the benchmark's own ``import oracles``.
    """
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "oracles.py")
    spec = importlib.util.spec_from_file_location("_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
