"""Curated and generated example structures.

Every entry lives on a solvable or nilpotent Lie algebra in a phi-adapted
basis (e_1..e_n, phi e_1..phi e_n, xi) with g = diag(+1^n, -1^n, +1).  The
labels in ``expected`` are not literature claims: each set was derived by
running the exact-rational classification pipeline on the entry and frozen
here, and the zoo test re-derives them, so a classifier regression shows up
as a zoo failure.

Bracket patterns are restricted to families whose Jacobi identity holds
structurally: either the only brackets are [xi, .] = A for a linear A on the
contact distribution, or xi is central and the horizontal brackets land in a
central subspace.

Besides the main catalog there is a small *boundary* catalog of models on
which the covariant derivative of the Reeb vector vanishes for exactly one
metric of the pair (the two one-sided vertical classes swap under the
associated metric).  On these models the identity suite's two class-level
equivalence checks fail by measurement, so they are excluded from the
default verification catalog; the expected outcome of every check on them is
frozen in their entries and asserted by the test suite instead.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import modelfile
from .pipeline import Workspace
from .scalars import DEFAULT_EPS, RATIONAL
from .structure import ALL_FLAGS, ACBStructure


class UnknownEntryError(KeyError):
    pass


class GenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class ZooEntry:
    name: str
    description: str
    dim: int
    brackets: tuple  # ((i, j, coeff-tuple), ...) with i < j, [e_i,e_j] = sum coeff_k e_k
    phi: tuple
    xi: tuple
    eta: tuple
    g: tuple
    expected: dict = field(default_factory=dict)  # {"g": {...}, "gtilde": {...}}
    planes: tuple = ()  # ((kind, x-coeffs, y-coeffs), ...)
    failing_checks: tuple = ()  # names of suite checks known to fail (boundary catalog)

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    def doc(self) -> dict:
        out = {
            "format": "bcontact-model/1",
            "name": self.name,
            "dim": self.dim,
            "brackets": [[i, j, list(c)] for i, j, c in self.brackets],
            "phi": [list(r) for r in self.phi],
            "xi": list(self.xi),
            "eta": list(self.eta),
            "g": [list(r) for r in self.g],
        }
        meta = {}
        if self.description:
            meta["description"] = self.description
        if self.expected:
            meta["expected"] = {k: sorted(v) for k, v in self.expected.items()}
        if self.planes:
            meta["planes"] = [
                {"kind": k, "x": list(x), "y": list(y)} for k, x, y in self.planes
            ]
        if meta:
            out["metadata"] = meta
        return out

    def structure(self, mode: str = RATIONAL, eps: float = DEFAULT_EPS) -> ACBStructure:
        """The entry's model, built the way a model file is loaded."""
        return modelfile.to_structure(self.doc(), mode, eps)

    def workspace(self, mode: str = RATIONAL, eps: float = DEFAULT_EPS) -> Workspace:
        return Workspace(self.structure(mode, eps))


def _standard_frame(n: int):
    """phi-adapted frame: phi e_i = e_{n+i}, phi e_{n+i} = -e_i, xi last."""
    dim = 2 * n + 1
    phi = [[0] * dim for _ in range(dim)]
    for i in range(n):
        phi[n + i][i] = 1
        phi[i][n + i] = -1
    g = [[0] * dim for _ in range(dim)]
    for i in range(n):
        g[i][i] = 1
        g[n + i][n + i] = -1
    g[dim - 1][dim - 1] = 1
    xi = [0] * dim
    xi[dim - 1] = 1
    eta = list(xi)
    return tuple(map(tuple, phi)), tuple(xi), tuple(eta), tuple(map(tuple, g))


def _entry(name, description, n, brackets, expected=None, planes=(), failing=()):
    phi, xi, eta, g = _standard_frame(n)
    return ZooEntry(
        name,
        description,
        2 * n + 1,
        tuple((i, j, tuple(c)) for i, j, c in brackets),
        phi,
        xi,
        eta,
        g,
        expected or {},
        planes,
        tuple(failing),
    )


def _adjoint_brackets(n: int, a_matrix) -> list:
    """Brackets [xi, e_k] = A e_k for a 2n x 2n matrix A acting on the
    horizontal basis; stored as [e_k, xi] = -A e_k, one per nonzero column."""
    return _reeb_brackets(n, [[-v for v in col] for col in zip(*a_matrix)])


def _reeb_brackets(n: int, columns) -> list:
    """The brackets [e_k, xi] = columns[k] of the nonzero columns."""
    return [(k, 2 * n, (*col, 0)) for k, col in enumerate(columns) if any(col)]


# Flag sets below were derived by the exact-rational pipeline (see the zoo
# test, which re-derives and compares them).
_U2_FAMILY = {"U2", "U3", "F3+U3", "F1+F2+U3"}


def _catalog() -> dict[str, ZooEntry]:
    entries = [
        _entry(
            "abelian3",
            "flat abelian model; zero fundamental tensor",
            1,
            [],
            expected={"g": set(ALL_FLAGS), "gtilde": set(ALL_FLAGS)},
        ),
        _entry(
            "solv3-a",
            "solvable model, Reeb vector acting as the identity on the "
            "contact distribution; pure trace class of the second Lee form",
            1,
            _adjoint_brackets(1, [[1, 0], [0, 1]]),
            expected={"g": {"F5"} | _U2_FAMILY, "gtilde": {"F5"} | _U2_FAMILY},
        ),
        _entry(
            "solv3-f4",
            "Reeb vector acting as -phi; pure trace class of the first Lee form",
            1,
            _adjoint_brackets(1, [[0, 1], [-1, 0]]),
            expected={"g": {"F4"} | _U2_FAMILY, "gtilde": {"F4"} | _U2_FAMILY},
        ),
        _entry(
            "solv3-f11",
            "Reeb bracket with a vertical component; the only entry with a "
            "nonzero omega Lee form and non-closed eta",
            1,
            [(0, 2, (0, 0, -1))],
            expected={"g": {"F11"} | _U2_FAMILY, "gtilde": {"F11"} | _U2_FAMILY},
        ),
        _entry(
            "nil5-u1",
            "central Reeb vector over a nilpotent horizontal algebra; "
            "nonzero fundamental tensor with parallel Reeb vector",
            2,
            [(0, 1, (0, 0, 1, 0, 0))],
            expected={"g": {"U1", "U1_assoc"}, "gtilde": {"U1", "U1_assoc"}},
        ),
        _entry(
            "solv5-f1",
            "one horizontal vector acting as minus the identity on the rest "
            "of the contact distribution; pure first basic class",
            2,
            [
                (0, 1, (0, -1, 0, 0, 0)),
                (0, 2, (0, 0, -1, 0, 0)),
                (0, 3, (0, 0, 0, -1, 0)),
            ],
            expected={
                "g": {"F1", "U1", "U1_assoc"},
                "gtilde": {"F1", "U1", "U1_assoc"},
            },
        ),
        _entry(
            "sl2-f3",
            "an sl(2) factor inside the contact distribution (central Reeb "
            "vector); pure cyclic class on both views",
            2,
            [
                (0, 1, (0, 0, 1, 0, 0)),
                (0, 2, (0, 1, 0, 0, 0)),
                (1, 2, (-1, 0, 0, 0, 0)),
            ],
            expected={
                "g": {"F3", "U1", "U1_assoc"},
                "gtilde": {"F3", "U1", "U1_assoc"},
            },
        ),
        _entry(
            "nil5-f2",
            "central Reeb vector, single horizontal bracket chosen so the "
            "cyclic condition with a phi-twist and both trace conditions hold",
            2,
            [(0, 2, (0, -1, 0, -1, 0))],
            expected={
                "g": {"F2", "U1", "U1_assoc"},
                "gtilde": {"F2", "U1", "U1_assoc"},
            },
        ),
        _entry(
            "solv5-f6",
            "Reeb action commuting with phi and trace-free for both metrics",
            2,
            _adjoint_brackets(
                2, [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
            ),
            expected={"g": {"F6"} | _U2_FAMILY, "gtilde": {"F6"} | _U2_FAMILY},
        ),
        _entry(
            "dim5-tr",
            "five-dimensional model (Reeb action -phi) carrying recorded "
            "phi-totally-real sections",
            2,
            _adjoint_brackets(
                2, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
            ),
            expected={"g": {"F4"} | _U2_FAMILY, "gtilde": {"F4"} | _U2_FAMILY},
            planes=(
                ("phi-totally-real", (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
                ("xi-section", (1, 0, 0, 0, 0), (0, 0, 0, 0, 1)),
                ("phi-holomorphic", (1, 0, 0, 0, 0), (0, 0, 1, 0, 0)),
            ),
        ),
        _entry(
            "solv7-u2",
            "dimension-7 model mixing both trace classes; lies in the "
            "vertical-fundamental union without satisfying any pure class",
            3,
            _adjoint_brackets(
                3,
                [
                    [1, 0, 0, 1, 0, 0],
                    [0, 1, 0, 0, 1, 0],
                    [0, 0, 1, 0, 0, 1],
                    [-1, 0, 0, 1, 0, 0],
                    [0, -1, 0, 0, 1, 0],
                    [0, 0, -1, 0, 0, 1],
                ],
            ),
            expected={"g": set(_U2_FAMILY), "gtilde": set(_U2_FAMILY)},
        ),
    ]
    return {e.name: e for e in entries}


def _boundary_catalog() -> dict[str, ZooEntry]:
    """Models where the Reeb vector is parallel for exactly one metric of the
    pair.  The antisymmetric one-sided classes swap under the associated
    metric, so each entry's two views carry different labels, and two
    class-level equivalences measured by the check suite fail here."""
    entries = [
        _entry(
            "x-heis5-f7",
            "Heisenberg-type model with horizontal brackets into the center; "
            "Killing Reeb vector, non-closed eta",
            2,
            [(0, 1, (0, 0, 0, 0, 1)), (2, 3, (0, 0, 0, 0, -1))],
            expected={"g": {"F7"} | _U2_FAMILY, "gtilde": {"F7"} | _U2_FAMILY},
            failing=("svk-pair-coincide-iff-u2",),
        ),
        _entry(
            "x-solv3-f9",
            "self-adjoint Reeb action anticommuting with phi",
            1,
            _adjoint_brackets(1, [[1, 0], [0, -1]]),
            expected={
                "g": {"F9", "U1_assoc", "U2"},
                "gtilde": {"F10", "U1", "F1+F2+U3"},
            },
            failing=("reeb-parallel-transfer", "svk-pair-coincide-iff-u2"),
        ),
        _entry(
            "x-solv3-f10",
            "skew-adjoint Reeb action not commuting with phi; parallel Reeb "
            "vector for the first metric only",
            1,
            _adjoint_brackets(1, [[0, 1], [1, 0]]),
            expected={
                "g": {"F10", "U1", "F1+F2+U3"},
                "gtilde": {"F9", "U1_assoc", "U2"},
            },
            failing=("reeb-parallel-transfer",),
        ),
        _entry(
            "x-solv5-f9",
            "five-dimensional self-adjoint Reeb action anticommuting with phi",
            2,
            _adjoint_brackets(
                2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
            ),
            expected={
                "g": {"F9", "U1_assoc", "U2"},
                "gtilde": {"F10", "U1", "F1+F2+U3"},
            },
            failing=("reeb-parallel-transfer", "svk-pair-coincide-iff-u2"),
        ),
        _entry(
            "x-mix5-f8",
            "skew Reeb action mixed with a central horizontal bracket on the "
            "same phi-pair; the symmetric one-sided class",
            2,
            [
                (0, 2, (0, 0, 0, 0, -2)),
                (0, 4, (0, 0, -1, 0, 0)),
                (2, 4, (-1, 0, 0, 0, 0)),
            ],
            expected={
                "g": {"F8", "U2", "F1+F2+U3"},
                "gtilde": set(),
            },
            failing=("svk-pair-coincide-iff-u2", "assoc-svk-natural-iff"),
        ),
    ]
    return {e.name: e for e in entries}


@functools.cache
def _catalogs():
    return _catalog(), _boundary_catalog()


def names() -> list[str]:
    return sorted(_catalogs()[0])


def boundary_names() -> list[str]:
    return sorted(_catalogs()[1])


def builtin(name: str) -> ZooEntry:
    main, boundary = _catalogs()
    if name in main:
        return main[name]
    if name in boundary:
        return boundary[name]
    known = ", ".join(sorted(main) + sorted(boundary))
    raise UnknownEntryError(f"unknown zoo entry {name!r}; available: {known}")


def all_entries() -> list[ZooEntry]:
    """The curated verification catalog (boundary entries not included)."""
    return [builtin(n) for n in names()]


# draws random_structure makes before it gives up on a seed
_RETRIES = 64


def random_structure(seed: int, n: int) -> ZooEntry:
    """Deterministic random entry: a phi-adapted frame whose only brackets
    are [xi, .] = A for a random rational matrix A on the horizontal space.

    Jacobi holds structurally for this pattern.  The generator aims at
    *generic* entries, so a draw is rejected when it sits on one of the
    special algebraic hyperplanes realized by the curated catalogs instead:
    the symmetric part of A (with respect to g) must be nonzero, and the
    skew part must not commute with phi.  The first rule keeps the Reeb
    vector non-parallel, the second keeps the fundamental tensor out of the
    exactly-vertical union, away from the boundary family documented in the
    module docstring.  The frame and the bracket pattern are fixed, so every
    draw that passes both rules is a valid structure.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    m = 2 * n
    sign = np.array([1] * n + [-1] * n)  # g on the horizontal basis
    phi = np.array(_standard_frame(n)[0])[:m, :m]
    for _ in range(_RETRIES):
        num = rng.integers(-2, 3, size=(m, m))
        den = rng.integers(1, 3, size=(m, m))
        # the entries of A are num / den with den 1 or 2, so 2A is an integer
        # matrix; its adjoint with respect to g, then 4 times the
        # symmetric/skew split of A, are integer matrices too
        a2 = num * (2 // den)
        adj2 = np.outer(sign, sign) * a2.T
        sym4, skew4 = a2 + adj2, a2 - adj2
        if np.any(sym4) and np.any(skew4 @ phi - phi @ skew4):
            # the columns of -A = -(2A) / 2, as _adjoint_brackets stores them
            minus_a = [[Fraction(-v, 2) for v in col] for col in a2.T.tolist()]
            return _entry(
                f"random-{seed}-n{n}",
                f"generated entry (seed {seed}, n {n})",
                n,
                _reeb_brackets(n, minus_a),
            )
    raise GenerationError(f"no valid structure after {_RETRIES} draws (seed {seed})")
