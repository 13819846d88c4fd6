"""Every public entry point takes any kind of argument to a value or a ZetaLabError.

One argument at a time is replaced by a value of each kind in KINDS, the
others kept valid, with every warning an error, so a bare TypeError or
AttributeError and a NumPy deprecation fail alike.  The kinds are those a
caller may hand over where a number or a zero list is expected.
"""

from __future__ import annotations

import ast
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import zetalab
from zetalab import config, quadrature as quad, special_functions as sf
from zetalab import strip_map as smap, zero_analysis as za
from zetalab.errors import ToleranceNotMet, ZetaLabError

KINDS = {
    "Fraction": Fraction(1, 2),
    "float32": np.float32(0.5),
    "int64": np.int64(1),
    "bool": True,
    "0-d array": np.array(0.5),
    "list": [0.5],
    "None": None,
    "str": "0.5",
    "Decimal": Decimal("0.5"),
    "complex": 0.5 + 0.25j,
    "10**400": 10**400,
    "NaN": math.nan,
}

# each public entry point: a call and valid arguments for it
ENTRY_POINTS = {
    "ensure_complex_array": (sf.ensure_complex_array, (0.5,)),
    "ensure_finite": (sf.ensure_finite, (0.5,)),
    "ensure_real": (sf.ensure_real, (0.5,)),
    "ensure_strip": (sf.ensure_strip, (0.5,)),
    "gamma": (sf.gamma, (0.5,)),
    "gamma_abs_product": (sf.gamma_abs_product, (0.5, 1.0, 100)),
    "eta": (sf.eta, (0.5,)),
    "zeta": (sf.zeta, (0.5,)),
    "fermi_mellin": (quad.fermi_mellin, (0.5, 1e-8)),
    "f_shifted": (quad.f_shifted, (0.25, 1e-8)),
    "m_bound": (quad.m_bound, (0.5,)),
    "m_star": (quad.m_star, (0.5, 1e-8)),
    "m_star_derivative": (quad.m_star_derivative, (0.5, 1, 1e-8)),
    "ensure_disk": (smap.ensure_disk, (0.25,)),
    "ensure_map_param": (smap.ensure_map_param, (0.5,)),
    "theta": (smap.theta, (0.25, 0.5)),
    "theta_inverse": (smap.theta_inverse, (0.25, 0.5)),
    "phi": (smap.phi, (0.25, 0.5)),
    "phi_inverse": (smap.phi_inverse, (0.25, 0.5)),
    "disk_modulus_H": (smap.disk_modulus_H, (0.25, 0.5)),
    "f_on_disk": (smap.f_on_disk, (0.25, 0.5, 1e-8)),
    "omega0": (smap.omega0, (0.5,)),
    "omega0_prime": (smap.omega0_prime, (0.5,)),
    "g_of_b": (smap.g_of_b, (0.5, 1e-8)),
    "RectangleRegion": (za.RectangleRegion, (-1.0, 1.0, -1.0, 1.0)),
    "CriticalZeroList": (za.CriticalZeroList, ([14.134725141734695], 20.0)),
    # its numbers enter through the rectangle
    "winding_count": (lambda *bounds: za.winding_count(lambda p: p - 0.25, za.RectangleRegion(*bounds)),
                      (-1.0, 1.0, -1.0, 1.0)),
    "critical_line_zeros": (za.critical_line_zeros, (20.0, 1e-4)),
    "riemann_von_mangoldt": (za.riemann_von_mangoldt, (20.0,)),
    # the first argument is fn's one value, which jensen_check coerces
    "jensen_check": (lambda value, zeros, R, samples: za.jensen_check(lambda z: value, zeros, R, samples),
                     (1.0, [0.25j], 0.5, 8)),
    "titchmarsh_zero_bound": (za.titchmarsh_zero_bound, (2.0, 1.0, 0.5)),
    "titchmarsh_zero_free": (za.titchmarsh_zero_free, (2.0, 1.0, 0.5)),
    "blaschke_L": (za.blaschke_L, (0.25 + 0.5j, [14.13])),
    "rouche_scan": (za.rouche_scan, (1.0, 0.1, 0.01)),
    "lambda_choice": (za.lambda_choice, (1.0, 0.1, 0.01)),
    "triangle_equality_condition": (za.triangle_equality_condition, (1.0, 2.0)),
    "AuditConfig": (config.AuditConfig, (1, 16.0, 0.1, 0.01)),
}
# public names that take no argument or are records the library fills in
NOT_SWEPT = {"EVAL_BUDGET", "QuadratureEstimate", "m_star_half", "RoucheScanResult"}


def test_every_public_entry_point_is_swept():
    public = {name for module in (sf, quad, smap, za) for name in module.__all__}
    assert public - NOT_SWEPT == set(ENTRY_POINTS) - {"AuditConfig"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, slot, kind", [
    pytest.param(name, slot, kind, id=f"{name}[{slot}]-{kind}")
    for name, (_, args) in ENTRY_POINTS.items() for slot in range(len(args)) for kind in KINDS
])
def test_argument_kind_answers_or_refuses(name, slot, kind):
    call, args = ENTRY_POINTS[name]
    args = list(args)
    args[slot] = KINDS[kind]
    try:
        call(*args)
    except ZetaLabError:
        pass


# each of these ended in a bare TypeError or AttributeError, the body going
# on with the argument its check had only compared: a real that is not a
# float now gives what its float gives, field for field
def test_fraction_tolerance_refused_as_its_float():
    messages = []
    for tol in (Fraction(1, 10**13), 1e-13):
        with pytest.raises(ToleranceNotMet) as refused:
            quad.fermi_mellin(0.05 + 100j, tol)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("call, real, as_float", [
    pytest.param(lambda x: za.critical_line_zeros(20, x), Fraction(1, 3), 1 / 3, id="critical_line_zeros"),
    pytest.param(lambda x: za.rouche_scan(10, x, 0.01), Fraction(1, 10), 0.1, id="rouche_scan"),
])
def test_fraction_gives_the_float_result(call, real, as_float):
    result, expected = call(real), call(as_float)
    assert repr(result) == repr(expected)  # repr writes each float exactly


_COERCIONS = {"ensure_real", "ensure_finite", "_positive_finite"}
# a node that keeps only whether its child is true, or nothing of it
_DROPPING = (ast.Expr, ast.Compare, ast.UnaryOp, ast.BoolOp, ast.If, ast.While, ast.Assert)


def test_no_coercion_result_is_dropped():
    """A check's coerced value is what the body reads, so no call discards it."""
    dropped = []
    for path in sorted(Path(zetalab.__file__).parent.glob("*.py")):
        for parent in ast.walk(ast.parse(path.read_text())):
            for node in ast.iter_child_nodes(parent):
                if (isinstance(node, ast.Call) and isinstance(parent, _DROPPING)
                        and getattr(node.func, "id", getattr(node.func, "attr", None)) in _COERCIONS):
                    dropped.append(f"{path.name}:{node.lineno}")
    assert dropped == []
