import ast
import contextlib
import copy
import importlib
import io
import json
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import cartanbal
from cartanbal.cli import main

_MODULES = ("catalog", "exactnum", "wallach", "moments", "balanced", "calabi", "epsilon", "errors")

# the public names of release 0.1.0, each still exported from the package, less
# rising, multi_index_enumerate and ball_h_coefficients, which only tests called
_RELEASED = """
__version__ Family CartanDomain make_domain ball parse_domain enumerate_catalog
parse_rational LinearFactor FactoredRational WallachSet wallach_set
cartan_projectively_induced hartogs_projective_failure hartogs_projectively_induced
corollary_witness MomentRatio block_lengths moment_ratio moment_converges HartogsSpec
BalancedVerdict cartan_balanced hartogs_necessary final_quantity norm_chain_ratio
hartogs_balanced ScanRow balanced_scan CorollaryRow CorollaryReport corollary_scan
ImmersionCoefficients build_immersion PullbackCheck verify_pullback
WeightedBasisNorms EpsilonReport DiscGrid
ball_monomial_norms epsilon_ball epsilon_point_ball hartogs_disc_norms
epsilon_hartogs_disc epsilon_point_hartogs constancy_verdict CartanbalError
InvalidSizeError DomainParseError NonpositiveParameterError PoleError
BallNotAllowedError PreconditionError InternalConsistencyError
SampleOutsideDomainError TrivialSpaceError
""".split()


def test_package_exports_each_module_all():
    modules = [importlib.import_module(f"cartanbal.{name}") for name in _MODULES]
    union = ["__version__"] + [name for module in modules for name in module.__all__]
    assert cartanbal.__all__ == union
    assert len(set(cartanbal.__all__)) == len(cartanbal.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(cartanbal, name) is getattr(module, name), (module.__name__, name)
    assert len(_RELEASED) == 56
    assert set(_RELEASED) <= set(cartanbal.__all__)
    assert {"REASON_OK", "REASON_M_DEPENDENCE", "SPREAD_CONSTANT"} <= set(cartanbal.__all__)


# Runs in a fresh interpreter: the first lookup named in argv[1] is the first
# to reach the package __getattr__, which loads the numeric modules.
_LAZY_PROBE = """
import json, sys
import cartanbal

def numeric_loaded():
    return [name for name in ("cartanbal.calabi", "cartanbal.epsilon") if name in sys.modules]

before = [numeric_loaded(), "epsilon_ball" in vars(cartanbal)]
namespace = {}
first = sys.argv[1]
if first == "star":
    exec("from cartanbal import *", namespace)
elif first == "dir":
    dir(cartanbal)
else:
    getattr(cartanbal, first)
after = [numeric_loaded(), sorted(name for name in cartanbal.__all__ if name not in vars(cartanbal))]
exec("from cartanbal import *", namespace)
try:
    cartanbal.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "before": before, "after": after, "all": cartanbal.__all__, "dir": dir(cartanbal),
    "star": sorted(name for name in namespace if name != "__builtins__"), "missing": missing,
}))
"""


@pytest.mark.parametrize("first", ["epsilon_ball", "calabi", "__all__", "star", "dir"])
def test_numeric_modules_load_on_first_lookup(first):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE, first],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    probe = json.loads(done.stdout)
    assert probe["before"] == [[], False]
    assert probe["after"] == [["cartanbal.calabi", "cartanbal.epsilon"], []]
    assert probe["all"] == cartanbal.__all__ and len(probe["all"]) == 62
    assert probe["star"] == sorted(cartanbal.__all__)
    assert set(probe["all"]) <= set(probe["dir"])
    assert probe["missing"] == "module 'cartanbal' has no attribute 'no_such_name'"


_SPEC = cartanbal.HartogsSpec(cartanbal.ball(1), 1, 3)


@pytest.mark.parametrize("call", [
    lambda: cartanbal.ball_monomial_norms(1, 3.0, 5.5),
    lambda: cartanbal.epsilon_ball(1, 3.0, 0.5, 5.5),
    lambda: cartanbal.epsilon_ball(1, 3.0, 0.5, 5, grid_points=2.5),
    lambda: cartanbal.hartogs_disc_norms(1.0, 3.0, (4.5, 4)),
    lambda: cartanbal.build_immersion(_SPEC, 5.5),
    lambda: cartanbal.enumerate_catalog(5.5),
    lambda: cartanbal.balanced_scan(5.5),
    lambda: cartanbal.corollary_scan(5.5),
], ids=["ball-norms", "epsilon-ball-cap", "epsilon-ball-points", "hartogs-norms", "immersion",
        "catalog", "scan", "corollary-scan"])
def test_size_arguments_must_be_integers(call):
    # refused where the size enters: the TypeError comes from the called
    # function's own frame, before any helper builds a table or an array
    with pytest.raises(TypeError, match="cannot be interpreted as an integer") as excinfo:
        call()
    assert len(excinfo.traceback) == 3  # the test, the lambda, the called function
    assert excinfo.traceback[-1].frame.f_globals["__name__"].startswith("cartanbal.")


def _records():
    """name -> (a builder of one record, one of its fields); two builds are field-equal."""
    dom = cartanbal.parse_domain("I:2,3")
    return {
        "CartanDomain": (lambda: cartanbal.parse_domain("I:2,3"), "gamma"),
        "HartogsSpec": (lambda: cartanbal.HartogsSpec(dom, 2, 3), "mu"),
        "BalancedVerdict": (
            lambda: cartanbal.hartogs_balanced(cartanbal.HartogsSpec(dom, 1, 9)), "reason"),
        "WallachSet": (lambda: cartanbal.wallach_set(dom), "discrete"),
        "MomentRatio": (lambda: cartanbal.moment_ratio(dom), "block_lengths"),
        "ScanRow": (lambda: cartanbal.balanced_scan(2)[-1], "balanced"),
        "CorollaryRow": (lambda: cartanbal.corollary_scan(3).rows[-1], "alpha"),
        "CorollaryReport": (lambda: cartanbal.corollary_scan(3), "rows"),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_exact_records_are_immutable_values(name):
    build, field = _records()[name]
    first, second = build(), build()
    assert type(first).__name__ == name and first is not second
    assert first == second and hash(first) == hash(second)
    for attr in (field, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(first, attr, None)
    assert first == second


def test_exact_record_order_repr_and_coercion():
    catalog = cartanbal.enumerate_catalog(27)
    assert sorted(reversed(catalog)) == catalog
    dom = cartanbal.parse_domain("I:2,3")
    dom_repr = "CartanDomain(family=<Family.TYPE_I: 'I'>, sizes=(2, 3), r=2, a=2, b=1, gamma=5, dim=6)"
    assert repr(dom) == dom_repr
    spec = cartanbal.HartogsSpec(dom, 2, 3)
    assert repr(spec) == f"HartogsSpec(base={dom_repr}, mu=Fraction(2, 1), alpha=Fraction(3, 1))"
    assert type(spec.mu) is Fraction and type(spec.alpha) is Fraction
    for mu, alpha in [(0, 3), (-1, 3), (2, 0), (2, Fraction(-1, 2))]:
        with pytest.raises(cartanbal.NonpositiveParameterError):
            cartanbal.HartogsSpec(dom, mu, alpha)


def test_domain_is_a_namedtuple_that_pickles_copies_and_lists_its_fields():
    dom = cartanbal.parse_domain("I:2,3")
    for clone in (pickle.loads(pickle.dumps(dom)), copy.copy(dom), copy.deepcopy(dom)):
        assert type(clone) is cartanbal.CartanDomain and clone == dom
        assert hash(clone) == hash(dom) and repr(clone) == repr(dom)
    fields = dom._asdict()
    assert list(fields) == ["family", "sizes", "r", "a", "b", "gamma", "dim"]
    assert fields == {"family": cartanbal.Family.TYPE_I, "sizes": (2, 3), "r": 2, "a": 2,
                      "b": 1, "gamma": 5, "dim": 6}
    assert dom == tuple(fields.values())  # a domain equals the plain tuple of its fields
    assert str(dom) == dom.label == "I:2,3" and not dom.is_ball


def test_immutability_message_names_the_class():
    records = [
        cartanbal.FactoredRational(2, [(1, 1)], [(1, 3)]),
        cartanbal.hartogs_disc_norms(1.0, 3.0, (4, 4)),
        cartanbal.build_immersion(cartanbal.HartogsSpec(cartanbal.ball(1), 1, 3), 6),
    ]
    for record in records:
        message = f"^{type(record).__name__} is immutable$"
        with pytest.raises(AttributeError, match=message):
            record.no_such_field = None
        with pytest.raises(AttributeError, match=message):
            del record.no_such_field
    assert [type(record).__name__ for record in records] == [
        "FactoredRational", "WeightedBasisNorms", "ImmersionCoefficients"]


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_validates_like_the_constructor():
    spec = cartanbal.HartogsSpec(cartanbal.ball(1), 1, 3)
    with pytest.raises(cartanbal.NonpositiveParameterError, match="mu must be positive"):
        copy.replace(spec, mu=-1)
    assert copy.replace(spec, mu="3/2").mu == Fraction(3, 2)


class _Twelve:
    def __index__(self):
        return 12


def test_replace_and_make_validate_like_the_constructor():
    spec = cartanbal.HartogsSpec(cartanbal.ball(1), 1, 3)
    verdict = cartanbal.hartogs_balanced(spec)
    factor = cartanbal.LinearFactor(1, 2)
    grid = cartanbal.DiscGrid()
    invalid = [
        (lambda: spec._replace(mu=-1), cartanbal.NonpositiveParameterError,
         "mu must be positive, got -1"),
        (lambda: verdict._replace(witness_m=3), ValueError,
         "witness fields present iff reason is m_dependence"),
        (lambda: factor._replace(slope=0), ValueError, "LinearFactor slope must be nonzero"),
        (lambda: grid._replace(nz=0), ValueError, "grid needs at least one point per axis"),
        (lambda: grid._replace(u_max=1.0), cartanbal.SampleOutsideDomainError, "grid bounds"),
        (lambda: cartanbal.LinearFactor._make((0, 1)), ValueError, "slope must be nonzero"),
    ]
    for build, error, message in invalid:
        with pytest.raises(error, match=message):
            build()
    # a valid replacement is coerced as the constructor coerces
    moved = spec._replace(mu=2)
    assert type(moved) is cartanbal.HartogsSpec and moved.mu == 2 and type(moved.mu) is Fraction
    made = cartanbal.HartogsSpec._make((cartanbal.ball(1), "3/2", 4))
    assert type(made) is cartanbal.HartogsSpec and made.mu == Fraction(3, 2)
    assert type(made.alpha) is Fraction
    wider = grid._replace(nz=_Twelve())  # an index, stored as the int it stands for
    assert type(wider) is cartanbal.DiscGrid and wider == (12, 8, 0.35, 0.5)
    assert type(wider.nz) is int
    assert type(verdict._replace()) is cartanbal.BalancedVerdict
    assert factor._replace(intercept=-1) == (1, -1)


def test_numeric_records_keep_their_frozen_semantics():
    # what the frozen dataclasses guaranteed: no assignment or deletion, of a
    # field, a cached view or a new name; pickle and both copies round-trip;
    # DiscGrid's defaults; and the report's fields are its payload keys
    coeffs = cartanbal.build_immersion(cartanbal.HartogsSpec(cartanbal.ball(1), 1, 3), 6)
    check = cartanbal.verify_pullback(coeffs, [(0.1, 0.2)])  # caches coeffs.slice_matrix
    norms = cartanbal.hartogs_disc_norms(1.0, 3.0, (4, 4))
    assert norms.norms  # caches the dict view
    report = cartanbal.epsilon_ball(1, 3.0, 0.5, 10, grid_points=3)
    grid = cartanbal.DiscGrid()
    assert (grid.nz, grid.nw, grid.t_max, grid.u_max) == (8, 8, 0.35, 0.5)
    cases = [(coeffs, ["spec", "entry_count", "slice_matrix"]), (check, ["tail_bound"]),
             (norms, ["params", "_array", "norms"]), (report, ["spread"]), (grid, ["nz"])]
    for record, names in cases:
        for name in names + ["no_such_field"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        clones = [pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)]
        for clone in clones:
            assert type(clone) is type(record) and clone is not record
            if record is norms:  # equality is identity: compare the fields and the array
                assert (clone.setting, clone.params) == (norms.setting, norms.params)
                assert clone._array.tolist() == norms._array.tolist()
                assert clone.norms == norms.norms
            else:
                assert clone == record
            # the arrays the sums read stay read-only, in the record and every clone
            for array in [getattr(r, name) for r in (record, clone)
                          for name in ("slice_matrix", "_array") if name in names]:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 1e9
    fields = ["grid", "values", "min_value", "max_value", "spread", "truncation_degree",
              "tail_bound"]
    assert list(report._asdict()) == fields
    heads = {("epsilon-ball", "--alpha", "3", "--cap", "8"): ["d", "alpha", "rmax", "cap"],
             ("epsilon-hartogs", "--mu", "1", "--alpha", "3", "--grid", "2x2", "--caps", "8,8"):
             ["mu", "alpha", "grid", "caps"]}
    for argv, head in heads.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--json"]) == 0
        keys = [key for key in fields if key not in head]  # the hartogs head holds the grid
        assert list(json.loads(out.getvalue())) == ["schema", *head, *keys, "verdict"]


_BLAS_CALLS = {"dot", "matmul", "tensordot", "inner"}


def _blas_uses(tree: ast.AST) -> list[str]:
    """Nodes of tree that would reach BLAS: @, a BLAS product, einsum(optimize=...)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _BLAS_CALLS:
                found.append(f"line {node.lineno}: {name}")
            elif name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                found.append(f"line {node.lineno}: einsum(optimize=...)")
    return found


def test_blas_guard_flags_each_form():
    source = "a @ b\na @= b\nnp.dot(a, b)\nx.matmul(b)\ntensordot(a, b)\nnp.inner(a, b)\n" \
             "np.einsum('ij,jk', a, b, optimize=True)\nnp.einsum('ij,jk', a, b)\n"
    assert len(_blas_uses(ast.parse(source))) == 7


def test_src_calls_no_blas():
    # an unpinned OpenBLAS thread pool makes small products erratic; the CLI pins
    # it, but a library caller's process may not, so the library multiplies with
    # einsum, unoptimized
    src = pathlib.Path(cartanbal.__file__).parent
    found = {path.name: uses for path in sorted(src.glob("*.py"))
             if (uses := _blas_uses(ast.parse(path.read_text())))}
    assert found == {}
