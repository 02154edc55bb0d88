"""JSON (de)serialisation for systems, inputs, rational data and families.

Complex scalars are stored as [re, im] pairs throughout; matrices as nested
lists of such pairs.  The system schema is

    {"n": ..., "m": ...,
     "S": {"minus": [[...]], "plus": [[...]]},
     "C": {...}, "Omega": {...}}

Parameter families are stored as a base system plus affine dependency
descriptors: each names a target block ("C.minus", "Omega.plus", ...), an
entry (row, col) and a complex coefficient; evaluation adds
coefficient * theta to the entry, mirroring across the Hermitian/symmetric
partner entry of Omega so the family stays well formed.

Inputs and rational data import their classes when read, so loading a
system loads only ``algebra`` and ``model``.
"""

import json
import math
import operator
import reprlib

import numpy as np

from .algebra import Delta, du_blocks
from .model import ParamFamily, QLSystem, StateSpace


class InputError(ValueError):
    """Malformed or physically invalid input (CLI exit code 2)."""


def finite_float(x, what):
    """float(x); InputError naming the value unless it is finite (json and float() accept NaN and
    Infinity, and json reads integers of any length)."""
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InputError(f"{what} must be a finite number, got {reprlib.repr(x)}")
    return value


def complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(p):
    """The complex number of an [re, im] pair; InputError unless p is two finite numbers."""
    try:
        re, im = p
        if bool not in (type(re), type(im)):
            z = complex(re, im)
            if math.isfinite(z.real) and math.isfinite(z.imag):
                return z
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"expected an [re, im] pair of two finite numbers, got {reprlib.repr(p)}")


def _pairs(a):
    """Float array of shape a.shape + (2,) holding the [re, im] pairs of a complex array."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1)


def matrix_to_json(M):
    return _pairs(np.atleast_2d(M)).tolist()


def matrix_from_json(data):
    """Rows of [re, im] pairs; ``[]`` reads as 0 x 0 (the Omega of a 0-mode system)."""
    M = np.array([[pair_to_complex(p) for p in row] for row in data], dtype=complex)
    return M.reshape(len(data), len(data[0]) if len(data) else 0)


def _block_to_json(M):
    minus, plus = du_blocks(M)
    return {"minus": matrix_to_json(minus), "plus": matrix_to_json(plus)}


def system_to_json(sys):
    return {
        "n": sys.n,
        "m": sys.m,
        "S": _block_to_json(sys.S),
        "C": _block_to_json(sys.C),
        "Omega": _block_to_json(sys.Omega),
    }


def system_from_json(data):
    def block(d):
        return matrix_from_json(d["minus"]), matrix_from_json(d["plus"])

    Sm, Sp = block(data["S"])
    Cm, Cp = block(data["C"])
    Om, Op = block(data["Omega"])
    return QLSystem(S=Delta(Sm, Sp), C=Delta(Cm, Cp), Omega=Delta(Om, Op))


def input_to_json(V):
    return {"N": matrix_to_json(V.N), "M": matrix_to_json(V.M)}


def input_from_json(data):
    from .stationary import InputCovariance

    return InputCovariance(matrix_from_json(data["N"]), matrix_from_json(data["M"]))


def rational_to_json(r):
    return {
        "constant": matrix_to_json(r.constant),
        "poles": [complex_to_pair(p) for p in r.poles],
        "residues": [matrix_to_json(R) for R in r.residues],
    }


def rational_from_json(data):
    from .realization import RationalMatrixFunction

    return RationalMatrixFunction(
        constant=matrix_from_json(data["constant"]),
        poles=tuple(pair_to_complex(p) for p in data["poles"]),
        residues=tuple(matrix_from_json(R) for R in data["residues"]),
    )


def statespace_to_json(ss):
    return {name: matrix_to_json(getattr(ss, name)) for name in ("A", "B", "C", "D")}


def statespace_from_json(data):
    return StateSpace(**{name: matrix_from_json(data[name]) for name in ("A", "B", "C", "D")})


_FAMILY_TARGETS = {"S.minus", "S.plus", "C.minus", "C.plus", "Omega.minus", "Omega.plus"}


def family_from_json(data):
    """Affine parameter family: base system plus entrywise dependencies.

    Omega dependencies are mirrored onto the Hermitian (minus block) or
    symmetric (plus block) partner entry (``entry_and_partner``) so that
    evaluation always yields a valid Hamiltonian; a diagonal entry of
    Omega_- takes only a real coefficient.  The family carries its exact
    tangent: the coefficients, added by the same rule to zero Delta forms.
    """
    base = system_from_json(data["base"])
    fd_step = finite_float(data.get("fd_step", 0.0), "fd_step")
    shapes = {"S": (base.m, base.m), "C": (base.m, base.n), "Omega": (base.n, base.n)}
    deps = []  # (block name, 0 minus / 1 plus, row, col, coefficient), parsed once
    for k, dep in enumerate(data.get("dependencies", [])):
        if dep["target"] not in _FAMILY_TARGETS:
            raise ValueError(f"unknown dependency target {dep['target']!r}")
        name, half = dep["target"].split(".")
        rows, cols = shapes[name]
        row, col = (entry_index(dep[key], f"dependency {k} ({dep['target']}) {key}") for key in ("row", "col"))
        try:  # numpy's indexing of the block: negative indices count from its end
            i, j = range(rows)[row], range(cols)[col]
        except IndexError:
            raise IndexError(f"dependency entry ({reprlib.repr(row)}, {reprlib.repr(col)}) lies outside "
                             f"the {rows} x {cols} block {dep['target']}") from None
        coeff = pair_to_complex(dep["coefficient"])
        if name == "Omega" and half == "minus" and i == j and coeff.imag:
            raise ValueError(f"Omega.minus diagonal entry ({i}, {i}) needs a real coefficient, got {coeff}")
        for a, b, value in entry_and_partner(name, half, i, j, coeff):
            deps.append((name, int(half == "plus"), a, b, value))

    def evaluate(theta):
        if theta == 0:  # the base system, already built and validated
            return base
        # the base matrices are exact Delta forms, so writing each changed upper entry's
        # conjugate into its mirror entry gives the Delta of the changed blocks
        mats = {"S": np.array(base.S), "C": np.array(base.C), "Omega": np.array(base.Omega)}
        for name, idx, i, j, coeff in deps:
            _add(mats[name], idx, i, j, coeff * theta)
        return QLSystem(S=mats["S"], C=mats["C"], Omega=mats["Omega"])

    tangent = {k: np.zeros_like(getattr(base, k)) for k in ("S", "C", "Omega")}
    for name, idx, i, j, coeff in deps:
        _add(tangent[name], idx, i, j, coeff)
    return ParamFamily(evaluate=evaluate, fd_step=fd_step,
                       tangent=(tangent["S"], tangent["C"], tangent["Omega"]))


def entry_index(value, what):
    """value as a Python int; ValueError naming it unless it is an integer (not a bool, a float or a string)."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {reprlib.repr(value)}")


def entry_and_partner(name, half, i, j, value):
    """[(i, j, value)] and, off the diagonal of Omega, the Hermitian (minus block) or
    symmetric (plus block) partner entry (j, i) that keeps the Hamiltonian valid."""
    if name != "Omega" or i == j:
        return [(i, j, value)]
    return [(i, j, value), (j, i, value if half == "plus" else np.conj(value))]


def _add(M, idx, i, j, value):
    """Add value to entry (i, j) of the minus (idx 0) or plus (idx 1) block of a Delta form M
    and write the sum's conjugate into the mirror entry."""
    n, m = M.shape[0] // 2, M.shape[1] // 2
    M[i, idx * m + j] += value
    M[n + i, (1 - idx) * m + j] = np.conj(M[i, idx * m + j])


_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False)


def dump_json(obj, path=None):
    """Deterministic JSON text (sorted keys, two-space indent, no NaN or infinity).

    numpy arrays inside dicts are written in bulk as the [re, im] lists of
    ``matrix_to_json``, in the same bytes as the standard encoder on that form:
    one indented template per array, filled by one %-format, so each float
    costs its ``repr`` and no per-list join.  Other values, lists included,
    go through the standard encoder.
    """
    text = _json_text(obj, 0)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def _json_text(obj, depth):
    """Indented JSON of obj as it stands `depth` containers deep."""
    if isinstance(obj, np.ndarray):
        return _array_text(_pairs(obj), depth)
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        pad = "\n" + "  " * (depth + 1)
        items = [f"{_ENCODER.encode(k)}: {_json_text(v, depth + 1)}" for k, v in sorted(obj.items())]
        return "{" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "}"
    # encoded JSON strings hold no raw newline, so every newline is an indent to shift
    return _ENCODER.encode(obj).replace("\n", "\n" + "  " * depth)


def _array_text(pairs, depth):
    """Indented JSON of the nested lists of a float array, filled by one %-format.

    The layout of one entry of each axis, with a ``%r`` hole per float, is
    built once and repeated along that axis by one join; ``%r`` of a float is
    ``float.__repr__``, as the standard encoder writes it.
    """
    if not np.isfinite(pairs).all():
        raise ValueError("Out of range float values are not JSON compliant")
    if pairs.size == 0:
        return _json_text(pairs.tolist(), depth)
    layout = "%r"
    for level in reversed(range(pairs.ndim)):
        pad, tail = "\n" + "  " * (depth + level + 1), "\n" + "  " * (depth + level) + "]"
        layout = "[" + pad + ("," + pad).join([layout] * pairs.shape[level]) + tail
    return layout % tuple(pairs.ravel().tolist())


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
