import functools
import importlib.util
import itertools
import os
import sys

import pytest

import hurwitz
from hurwitz import build_builtin, make_gamma, sigma, sigma_inv, subgroup_closure


@pytest.fixture(autouse=True)
def recursion_limit_is_left_alone():
    """Fail any test after which the interpreter's recursion limit differs
    from its value before: outcomes must not depend on a process-wide
    setting that earlier calls changed."""
    before = sys.getrecursionlimit()
    yield
    assert sys.getrecursionlimit() == before, "the recursion limit was changed"


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
    {"order": 2, "mul": [[0, 1], [1, False]]},  # a bool is no element index
    {"order": True, "mul": [[0]]},
]


def el(G, name):
    return G.index_of(name)


def generating_gammas(G):
    """Every union of nontrivial conjugacy classes that generates ``G``."""
    ct = G.classes
    full = (1 << G.order) - 1
    for r in range(1, ct.count):
        for cids in itertools.combinations(range(1, ct.count), r):
            gam = make_gamma(G, [ct.members[c][0] for c in cids])
            if subgroup_closure(G, gam.elements()).bits == full:
                yield gam


def two_sided_orbit(G, v):
    """Closure of ``v`` under sigma and sigma_inv at every position.

    An oracle for the package's forward-only kernel, built from the public
    moves alone.
    """
    seen = {v}
    stack = [v]
    while stack:
        t = stack.pop()
        for u in (move(G, i, t) for i in range(1, len(t)) for move in (sigma, sigma_inv)):
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


def load_repo_file(*parts):
    """Import a file of this repository by path, e.g. ``("bench", "oracles.py")``.

    The file is only read; the module is not put in ``sys.modules``, so it
    cannot shadow an ``import`` of the same name elsewhere.
    """
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), *parts)
    spec = importlib.util.spec_from_file_location("_" + parts[-1].removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def bench_oracles():
    """The package-free oracles of ``bench/oracles.py``."""
    return load_repo_file("bench", "oracles.py")


def inversion_extension(moduli):
    """G = A ⋊ Z/2 with A = Z/m_1 ⊕ ... ⊕ Z/m_k and Z/2 acting by inversion.

    Elements are pairs (v, e) with e = 0 first, so that the identity is
    index 0, and (v, e)·(w, f) = (v + (−1)^e w, e + f).  Returns the group
    and the index of each pair.
    """
    vectors = list(itertools.product(*(range(m) for m in moduli)))
    elements = [(v, e) for e in (0, 1) for v in vectors]
    index = {x: i for i, x in enumerate(elements)}

    def mul(x, y):
        (v, e), (w, f) = x, y
        sign = -1 if e else 1
        return index[(tuple((a + sign * b) % m for a, b, m in zip(v, w, moduli)), (e + f) % 2)]

    table = [[mul(x, y) for y in elements] for x in elements]
    return hurwitz.build_from_table({"order": len(elements), "mul": table}), index
