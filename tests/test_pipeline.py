"""The Workspace computes each field on first use, along the primary route
only; run_checks is where the routes are compared."""
import gc
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bcontact import cli, liegroup, modelfile, pipeline, scalars, zoo
from bcontact.checks import run_checks
from bcontact.scalars import FLOAT, RATIONAL

from support import corrupted_phi_entry, suite_results, workspace

# fields of the SvK pair, the shape operators and the curvature
DOWNSTREAM = {
    "q_closed", "hv_closed", "potential", "svk", "torsion", "hv", "svk_phi", "svk_xi", "svk_eta",
    "svk_metric", "shape", "curv", "rho_xi_xi",
}


def test_classification_computes_no_curvature(monkeypatch):
    calls = []
    real = pipeline.curvature_data
    monkeypatch.setattr(
        pipeline, "curvature_data", lambda *args: calls.append(args) or real(*args)
    )
    ws = zoo.builtin("solv3-f4").workspace()
    assert ws.view("g").classification.membership["F4"]
    assert ws.view("gtilde").classification.membership["F4"]
    assert calls == []
    assert not DOWNSTREAM & vars(ws.batch).keys()
    ws.g.curv
    ws.gt.curv
    assert len(calls) == 1


@pytest.fixture
def refcount_only():
    """While the test runs, only reference counting frees objects: the
    cyclic collector is off."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def _kept_results():
    """The keys of the scaled forms the kernel keeps, but for those of the
    exact zeros in ``scalars._ZEROS``, which live as long as that table."""
    return scalars._SCALED.keys() - {id(zero) for zero in scalars._ZEROS.values()}


def test_a_dropped_workspace_is_freed_by_reference_counting(refcount_only):
    kept = _kept_results()
    ws = zoo.builtin("dim5-tr").workspace(RATIONAL)
    assert all(r.passed for r in run_checks(ws))
    assert _kept_results() > kept
    dropped = weakref.ref(ws)
    del ws
    assert dropped() is None
    # the kernel's kept scaled forms of its arrays went with it
    assert _kept_results() == kept


def test_verify_zoo_holds_one_model_at_a_time(monkeypatch, capsys, refcount_only):
    built, alive = [], []
    real = zoo.ZooEntry.workspace

    def workspace(entry, *args):
        alive.append(sum(ref() is not None for ref in built))
        ws = real(entry, *args)
        built.append(weakref.ref(ws))
        return ws

    monkeypatch.setattr(zoo.ZooEntry, "workspace", workspace)
    assert cli.main(["verify", "--zoo"]) == 0
    capsys.readouterr()
    # no Workspace was alive when the next one was built
    assert alive == [0] * len(zoo.names())
    assert all(ref() is None for ref in built)


def test_a_view_outliving_its_workspace_keeps_its_fields(refcount_only):
    ws = zoo.builtin("solv3-a").workspace()
    view, dropped = ws.g, weakref.ref(ws)
    del ws
    assert dropped() is None
    # its fields are rows of the batch, which the view holds
    assert view.conn.shape == (3, 3, 3) and view.curv.r04.shape == (3, 3, 3, 3)


def test_run_checks_stops_at_broken_axioms():
    results = run_checks(corrupted_phi_entry().workspace())
    assert [r.name for r in results] == ["structure-axioms"]
    assert not results[0].passed
    assert "phi^2 = -id + eta (x) xi" in results[0].detail


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_model_and_cached_arrays_are_read_only(mode):
    suite_results("solv3-f11", mode)
    ws = workspace("solv3-f11", mode)
    arrays = {
        "s.phi": ws.s.phi,
        "s.algebra.c": ws.s.algebra.c,
        "s.metric.matrix": ws.s.metric.matrix,
        "s.assoc.inv": ws.s.assoc.inv,
        "g.conn": ws.g.conn,
        "g.fundamental": ws.g.fundamental,
        "g.lee.theta": ws.g.lee.theta,
        "s.vertical": ws.s.vertical,
        "s.d_eta_xi": ws.s.d_eta_xi,
        "gt.shape.operator": ws.gt.shape.operator,
        "g.hv_closed.q_h": ws.g.hv_closed.q_h,
        "gt.hv.t_v": ws.gt.hv.t_v,
        "g.svk_metric": ws.g.svk_metric,
        "gt.partner_potential_xi": ws.gt.partner_potential_xi,
        "g.curv.r04": ws.g.curv.r04,
    }
    for name, arr in arrays.items():
        corner = (0,) * arr.ndim
        with pytest.raises(ValueError, match="read-only"):
            arr[corner] = arr[corner]


def _count_calls(monkeypatch, fn, tag=None):
    """Route every bcontact module's reference to ``fn`` through a wrapper;
    returns the list of argument tuples it records, each led by ``tag()``
    when ``tag`` is given."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args if tag is None else (tag(), *args))
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "bcontact":
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_each_structure_tensor_is_differentiated_once_per_metric(monkeypatch):
    # every closed form reads the batch's nabla_xi, nabla_eta and nabla_phi
    # and the structure's d_eta, and every check of the SvK connection reads
    # the batch's D phi, D xi, D eta and D m; besides these, only nabla m,
    # nabla S and nabla S(xi) are taken.  Each is taken once per model, for
    # both metrics of the pair at once, on the batch axis
    derivatives = _count_calls(monkeypatch, liegroup.covariant_derivative)
    d_eta_calls = _count_calls(monkeypatch, liegroup.d_eta)
    ws = zoo.builtin("solv7-u2").workspace(RATIONAL)
    assert all(r.passed for r in run_checks(ws))
    s, b = ws.s, ws.batch
    taken = Counter(
        (connection, name)
        for gamma, t, *_ in derivatives
        for connection, conn in (("levi-civita", b.conn), ("svk", b.svk))
        if gamma is conn
        for name, field in (("xi", s.xi), ("eta", s.eta), ("phi", s.phi), ("metric", b.metric.matrix))
        if t is field
    )
    assert taken == {
        (connection, name): 1
        for connection in ("levi-civita", "svk")
        for name in ("xi", "eta", "phi", "metric")
    }
    assert all(len(gamma) == 2 for gamma, *_ in derivatives)
    assert len(derivatives) == 10
    assert len(d_eta_calls) == 1


# The contractions of two or more operands that one rational run_checks on
# solv7-u2 makes a second time on the same operands, by (calling function,
# spec), with how many times and why; every other tensor that two families
# use has one home on the structure or on the Workspace's batch.
F_ROUTES = "the second route of F~ takes F alone, as the closed form of the potential does"
REPEATS_ALLOWED = {
    ("assoc_fundamental_from_fundamental", "xym,m->xy"): (1, F_ROUTES),
    ("assoc_fundamental_from_fundamental", "abm,ax,by,m->xy"): (1, F_ROUTES),
    ("assoc_fundamental_from_fundamental", "xam,ay,m->xy"): (1, F_ROUTES),
    ("check_qt_pair_relations", "j,ki->kij"): (
        1, "eta(y) Phi(x, xi), a term of the pair difference and of the Q and T relations"
    ),
}


def _memory(a):
    """The memory an array reads: its root owner, data pointer and layout;
    a scalar operand is known by its identity."""
    if not isinstance(a, np.ndarray):
        return id(a)
    root = a
    while root.base is not None:
        root = root.base
    return id(root), a.__array_interface__["data"][0], a.shape, a.strides


def test_run_checks_repeats_only_the_allowed_contractions(monkeypatch):
    real = scalars.einsum
    made, repeats, operands = set(), Counter(), []

    def einsum(spec, *arrays):
        # a contraction with the kernel's exact zero of a shape makes none:
        # the zero rule returns a zero at once, so it repeats no work
        zero = any(a is scalars._ZEROS.get(np.shape(a)) for a in arrays)
        if len(arrays) >= 2 and not zero:
            operands.append(arrays)  # kept alive, so no memory is reused
            key = (spec, *map(_memory, arrays))
            if key in made:
                repeats[sys._getframe(1).f_code.co_name, spec] += 1
            made.add(key)
        return real(spec, *arrays)

    monkeypatch.setattr(scalars, "einsum", einsum)
    ws = zoo.builtin("solv7-u2").workspace(RATIONAL)
    assert all(r.passed for r in run_checks(ws))
    unexpected = {
        where: n for where, n in repeats.items() if n > REPEATS_ALLOWED.get(where, (0,))[0]
    }
    assert not unexpected
    assert sum(repeats.values()) <= 4


# Fraction's arithmetic operators: every exact computation of the library
# is made by the integer kernel in scalars.py, so a Fraction elsewhere is
# only read (compared, converted, printed)
ARITHMETIC = [
    f"__{op}__" for name in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow", "divmod")
    for op in (name, "r" + name)
] + ["__neg__", "__pos__", "__abs__"]


def _arithmetic_callers(monkeypatch) -> Counter:
    """Route Fraction's arithmetic operators through a wrapper that counts
    the calls by the file and function that made them (the function that
    called numpy, for an operation on an object array)."""
    callers = Counter()
    fractions_file = sys.modules[Fraction.__module__].__file__

    def wrap(op):
        def counted(*args):
            frame = sys._getframe(1)
            while frame.f_code.co_filename == fractions_file:
                frame = frame.f_back
            callers[Path(frame.f_code.co_filename).name, frame.f_code.co_name] += 1
            return op(*args)
        return counted

    for name in ARITHMETIC:
        monkeypatch.setattr(Fraction, name, wrap(getattr(Fraction, name)))
    return callers


def test_fraction_arithmetic_happens_only_in_the_kernel(monkeypatch, tmp_path, capsys):
    path = tmp_path / "dim5-tr.json"
    modelfile.save_path(str(path), zoo.builtin("dim5-tr").doc())
    callers = _arithmetic_callers(monkeypatch)
    for name in zoo.names():
        assert all(r.passed for r in run_checks(zoo.builtin(name).workspace(RATIONAL))), name
    for argv in (["validate"], ["classify"], ["report"], ["curvature", "--plane", "0,1"]):
        assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    # the generated entries are drawn in the zoo module
    assert cli.main(["verify", "--zoo", "--seed", "1"]) == 0
    capsys.readouterr()
    assert {where: n for where, n in callers.items() if where[0] != "scalars.py"} == {}


# the ndarray methods that read a rational kernel array's integers, which
# hold its value only over the denominator that scalars.py keeps
READS = [
    "__getitem__", "__iter__", "__contains__", "__bool__", "__int__", "__float__", "__index__",
    "__repr__", "__str__", "__format__", "tolist", "item",
]
# the numpy functions that read no entry: a view one takes is guarded in turn
VIEWS = {np.broadcast_to, np.shape, np.ndim}
# the numpy conversions that hand back a plain ndarray of a guarded array's
# integers, which no method of the subclass then sees
CONVERSIONS = ("asarray", "array", "asanyarray")


def _numerator_readers(monkeypatch) -> Counter:
    """Make every rational array the kernel hands out an ndarray subclass
    whose reads (``READS``, ufuncs, and numpy functions other than
    ``VIEWS``) are counted by the file and line outside numpy that made
    them, for a file of the library other than scalars.py; so are the
    ``CONVERSIONS`` of such an array, or of a list or tuple holding one,
    that such a file calls."""
    readers = Counter()
    package = Path(scalars.__file__).parent
    numpy_dir = Path(np.__file__).parent

    def note(frame=None):
        if frame is None:  # the first frame outside numpy above the read
            frame = sys._getframe(2)
            while Path(frame.f_code.co_filename).is_relative_to(numpy_dir):
                frame = frame.f_back
        where = Path(frame.f_code.co_filename)
        if where.parent == package and where.name != "scalars.py":
            readers[where.name, frame.f_lineno] += 1

    def converting(convert):
        def conversion(a, *args, **kwargs):
            if any(isinstance(x, Numerators) for x in (a if isinstance(a, (list, tuple)) else [a])):
                note(sys._getframe(1))
            return convert(a, *args, **kwargs)
        return conversion

    def reading(name):
        def read(self, *args, **kwargs):
            note()
            return getattr(np.ndarray, name)(self, *args, **kwargs)
        return read

    def plain(x):
        return x.view(np.ndarray) if isinstance(x, Numerators) else x

    class Numerators(np.ndarray):
        locals().update({name: reading(name) for name in READS})

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            note()
            return getattr(ufunc, method)(*map(plain, inputs), **kwargs)

        def __array_function__(self, func, types, args, kwargs):
            out = super().__array_function__(func, (np.ndarray,), args, kwargs)
            if func not in VIEWS:
                note()
            elif isinstance(out, np.ndarray):
                out = out.view(Numerators)
            return out

    for name in CONVERSIONS:
        monkeypatch.setattr(np, name, converting(getattr(np, name)))
    real = scalars._remember
    monkeypatch.setattr(scalars, "_remember", lambda n, d, m: real(n.view(Numerators), d, m))
    monkeypatch.setattr(scalars, "_ZEROS", {})
    return readers


def test_only_the_kernel_reads_the_integers_of_a_rational_array(monkeypatch, tmp_path, capsys):
    path = tmp_path / "dim5-tr.json"
    modelfile.save_path(str(path), zoo.builtin("dim5-tr").doc())
    readers = _numerator_readers(monkeypatch)
    for name in zoo.names():
        assert all(r.passed for r in run_checks(zoo.builtin(name).workspace(RATIONAL))), name
    for argv in (["validate"], ["classify"], ["report"], ["curvature", "--plane", "0,1"]):
        assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    assert cli.main(["verify", "--zoo", "--seed", "1"]) == 0
    capsys.readouterr()
    assert readers == {}


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_every_contraction_of_a_verification_is_pairwise(monkeypatch, mode):
    # the kernel stages every contraction of three or more operands that
    # loading a model, its Workspace and the check suite make, so numpy
    # never runs one as a single loop over all its labels
    real = np.einsum
    wide = Counter()

    def einsum(spec, *operands, **kwargs):
        if len(operands) >= 3:
            wide[spec] += 1
        return real(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", einsum)
    rows = run_checks(zoo.builtin("solv7-u2").workspace(mode))
    assert rows and all(r.passed for r in rows)
    assert wide == {}
