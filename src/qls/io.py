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
"""

import json

import numpy as np

from .algebra import Delta, du_blocks
from .model import ParamFamily, QLSystem, StateSpace
from .realization import RationalMatrixFunction
from .stationary import InputCovariance


def complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(p):
    return complex(p[0], p[1])


def matrix_to_json(M):
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[complex_to_pair(z) for z in row] for row in M]


def matrix_from_json(data):
    return np.array([[pair_to_complex(p) for p in row] for row in data], dtype=complex)


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
    return InputCovariance(matrix_from_json(data["N"]), matrix_from_json(data["M"]))


def rational_to_json(r):
    return {
        "constant": matrix_to_json(r.constant),
        "poles": [complex_to_pair(p) for p in r.poles],
        "residues": [matrix_to_json(R) for R in r.residues],
    }


def rational_from_json(data):
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
    symmetric (plus block) partner entry so that evaluation always yields a
    valid Hamiltonian.
    """
    base = system_from_json(data["base"])
    fd_step = float(data.get("fd_step", 0.0))
    deps = data.get("dependencies", [])
    for dep in deps:
        if dep["target"] not in _FAMILY_TARGETS:
            raise ValueError(f"unknown dependency target {dep['target']!r}")

    def evaluate(theta):
        blocks = {
            "S": [b.copy() for b in du_blocks(base.S)],
            "C": [b.copy() for b in du_blocks(base.C)],
            "Omega": [b.copy() for b in du_blocks(base.Omega)],
        }
        for dep in deps:
            name, half = dep["target"].split(".")
            idx = 0 if half == "minus" else 1
            i, j = int(dep["row"]), int(dep["col"])
            coeff = pair_to_complex(dep["coefficient"])
            M = blocks[name][idx]
            M[i, j] += coeff * theta
            if name == "Omega" and i != j:
                M[j, i] += (np.conj(coeff) if half == "minus" else coeff) * theta
        return QLSystem(
            S=Delta(*blocks["S"]), C=Delta(*blocks["C"]), Omega=Delta(*blocks["Omega"])
        )

    return ParamFamily(evaluate=evaluate, fd_step=fd_step)


def dump_json(obj, path=None):
    """Deterministic JSON text (sorted keys, fixed separators)."""
    text = json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "),
                      allow_nan=False)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
