"""The two sides of every congruence share no code path.

The left-hand side is a brute-force binomial sum (binomsums); the right-hand
side is built from root sums and finite polylogarithms.  A bug in a table
both sides read could cancel out and read as a pass, so neither side may
read the other's tables.  In the same way the root sums' arithmetic
(kernels) and the quotient-ring reference the tests hold them to (modring,
_gfpoly, polyfactor) import nothing from each other.
"""

import ast
import pathlib
from fractions import Fraction

import pytest

from rkksums import binomsums, theorems
from rkksums.modring import ctx_for

SRC = pathlib.Path(theorems.__file__).parent
RHS_MODULES = ("modring", "finlog", "polyfactor", "kernels", "_gfpoly")


def _imported_modules(name):
    """The rkksums modules a module imports, by their bare names."""
    tree = ast.parse((SRC / f"{name}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                out.add(node.module.split(".")[0])
            elif node.level:  # from . import a, b
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("rkksums."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("rkksums."))
    return out


def test_binomsums_and_the_rhs_modules_never_import_each_other():
    assert "finlog" not in _imported_modules("binomsums")
    for name in RHS_MODULES:
        assert "binomsums" not in _imported_modules(name), name


REFERENCE_MODULES = ("modring", "_gfpoly", "polyfactor")


def test_the_reference_and_the_root_sum_arithmetic_never_import_each_other():
    # the quotient-ring reference runs on _gfpoly, the root sums on kernels
    for name in REFERENCE_MODULES:
        assert "kernels" not in _imported_modules(name), name
    assert not _imported_modules("kernels") & set(REFERENCE_MODULES)


@pytest.mark.parametrize("e", [1, 2, 3])
def test_root_sums_never_read_the_binomial_tables(monkeypatch, e):
    def forbidden(*args, **kwargs):
        raise AssertionError("the right-hand side read the left-hand side")

    for name in ("binom_table", "batch_inverse", "inverse_table", "lhs_sum", "lhs_coefficients"):
        monkeypatch.setattr(binomsums, name, forbidden)
    monkeypatch.setattr(theorems, "lhs_sum", forbidden)

    attributes = [name for name in dir(theorems.RootSums) if name.startswith("sum_")]
    attributes.append("z_inverse_pow_p_charpoly")
    for r, x, p in [(1, 3, 5), (2, 3, 7), (3, Fraction(-1, 3), 11), (4, 5, 13),
                    (5, Fraction(2, 7), 17)]:
        # fresh: nothing cached
        rs = theorems.RootSums(theorems.build_root_poly(r, Fraction(x), ctx_for(p, e)), r)
        for name in attributes:
            assert isinstance(getattr(rs, name), (int, tuple)), (r, x, p, name)
    # x0's cofactor takes the same RootSums
    for r, p in [(3, 11), (5, 13)]:
        rs = theorems.RootSums(theorems.double_root_cofactor(r, p, e)[1], r)
        for name in attributes:
            assert isinstance(getattr(rs, name), (int, tuple)), (r, p, name)
