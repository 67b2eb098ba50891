"""Dense complex linear algebra for small Hilbert spaces (n <= 64), and
the package's file formats.

States are 1-d complex arrays, operators dense n x n complex arrays.  The
linear algebra is pure functions returning fresh copies, so values can be
shared freely across workers.  The JSON form of states and operators and
the two writers every output goes through, write_table and write_json,
are the only code of the package that knows how a file looks.  Callers
hand write_json their arrays as arrays, complex ones included; it writes
the bytes json.dumps(indent=2) gives for their nested lists, without
building those lists.
"""

import contextlib
import functools
import json
import math
import numbers
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (DegenerateStateError, InvalidParameterError, OutputError,
                     ShapeError)

HERMITIAN_TOL = 1e-12     # relative asymmetry allowed on hermitian operators
HERMITIAN_REPAIR_TOL = 1e-8   # largest asymmetry silently symmetrized away
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
ZERO_NORM_TOL = 1e-14


def positive(name: str, value, allow_zero: bool = False) -> float:
    """float(value), checked to be finite and > 0 (>= 0 with allow_zero).

    The one check of a scalar parameter: anything else, a bool, str, None
    or complex included, raises InvalidParameterError naming the parameter.
    """
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise InvalidParameterError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:   # an int beyond float range
        value = math.inf if value > 0 else -math.inf
    in_range = value >= 0.0 if allow_zero else value > 0.0
    if not (in_range and math.isfinite(value)):
        bound = ">= 0" if allow_zero else "positive"
        raise InvalidParameterError(f"{name} must be {bound}, got {value}")
    return value


def whole(name: str, value) -> int:
    """value as an int: a whole number such as 3 or 3.0, not a bool, str,
    None or complex."""
    integral = isinstance(value, (int, numbers.Integral)) or (   # of any size
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise InvalidParameterError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def check_memory(need: float, what: str, advice: str):
    """Refuse work whose estimated peak of `need` bytes exceeds physical
    memory, before it starts: InvalidParameterError naming `what` and
    `advice`.  Where the platform gives no sysconf figure, nothing is
    checked."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > physical:
        raise InvalidParameterError(
            f"{what} needs about {need / 2 ** 20:.0f} MiB, more than the "
            f"{physical / 2 ** 20:.0f} MiB of physical memory; {advice}")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def as_state(vec, normalized: bool = True) -> np.ndarray:
    """Validate and copy a state vector; optionally require unit norm."""
    psi = np.asarray(vec, dtype=np.complex128)
    if psi.ndim != 1 or psi.size < 1:
        raise ShapeError(f"state must be a 1-d vector, got shape {psi.shape}")
    if not np.all(np.isfinite(psi.view(np.float64))):
        raise InvalidParameterError("state has non-finite amplitudes")
    if normalized and abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise InvalidParameterError(
            f"state is not normalized: ||psi|| = {np.linalg.norm(psi)!r}")
    return psi.copy()


def as_operator(entries) -> np.ndarray:
    """Validate a hermitian operator; returns a copy symmetrized to
    (A + A^dag)/2.  An asymmetry beyond HERMITIAN_REPAIR_TOL * max(||A||, 1)
    is an error rather than something to paper over.
    """
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ShapeError(f"operator must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise InvalidParameterError("operator has non-finite entries")
    # measured on A / m, m its largest component, so that the squares
    # summed in the norm cannot overflow
    m = max(float(np.max(np.abs(a.view(np.float64)))), 1.0)
    b = a / m
    asym = float(np.max(np.abs(b - b.conj().T)))
    if asym > HERMITIAN_REPAIR_TOL * max(np.linalg.norm(b), 1.0 / m):
        raise InvalidParameterError(
            f"operator flagged hermitian but |A - A^dag| = {asym * m:.3e}")
    return 0.5 * (a + a.conj().T)


def as_density(entries) -> np.ndarray:
    """Validate a density operator: hermitian, unit trace, positive."""
    rho = np.asarray(entries, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ShapeError(f"density operator must be square, got shape {rho.shape}")
    scale = max(np.linalg.norm(rho), 1.0)
    if np.max(np.abs(rho - rho.conj().T)) > HERMITIAN_TOL * scale:
        raise InvalidParameterError("density operator is not hermitian")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidParameterError(f"density operator trace {tr!r} != 1")
    evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if evals.min() < -POSITIVITY_TOL:
        raise InvalidParameterError(
            f"density operator has negative eigenvalue {evals.min():.3e}")
    return rho.copy()


def _check_match(a: np.ndarray, psi: np.ndarray):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"operator must be square, got shape {a.shape}")
    if psi.ndim != 1 or psi.shape[0] != a.shape[0]:
        raise ShapeError(
            f"dimension mismatch: operator {a.shape} vs state {psi.shape}")


def normalize(psi) -> np.ndarray:
    """Return psi / ||psi||; error when the norm is numerically zero."""
    psi = np.asarray(psi, dtype=np.complex128)
    nrm = np.linalg.norm(psi)
    if not np.isfinite(nrm) or nrm < ZERO_NORM_TOL:
        raise DegenerateStateError(f"cannot normalize state with norm {nrm!r}")
    return psi / nrm


def pure_projector(psi) -> np.ndarray:
    """|psi><psi| for a normalized state."""
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 1:
        raise ShapeError(f"state must be 1-d, got shape {psi.shape}")
    return np.outer(psi, psi.conj())


def trace_distance(rho1, rho2):
    """Half the sum of |eigenvalues| of rho1 - rho2: a float for two
    (n, n) operators, an array (...) for two stacks (..., n, n).

    A stack is taken a group of pairs at a time, at most 4096 entries per
    group, so that its temporaries stay as small as a pair's at large n;
    each pair gets the bits of taking it alone (the same LAPACK call per
    matrix and the same sum per row).
    """
    rho1 = np.asarray(rho1, dtype=np.complex128)
    rho2 = np.asarray(rho2, dtype=np.complex128)
    if rho1.shape != rho2.shape or rho1.ndim < 2 \
            or rho1.shape[-1] != rho1.shape[-2]:
        raise ShapeError(f"need two square operators or stacks of the same "
                         f"shape, got {rho1.shape} vs {rho2.shape}")
    n = rho1.shape[-1]
    count = math.prod(rho1.shape[:-2])
    a, b = rho1.reshape(count, n, n), rho2.reshape(count, n, n)
    dist = np.empty(count)
    group = max(1, 4096 // max(n * n, 1))
    for k in range(0, len(a), group):
        diff = a[k:k + group] - b[k:k + group]
        diff = 0.5 * (diff + np.swapaxes(diff.conj(), -1, -2))
        dist[k:k + group] = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)),
                                         axis=-1)
    return float(dist[0]) if rho1.ndim == 2 else dist.reshape(rho1.shape[:-2])


def align_global_phase(psi, reference) -> np.ndarray:
    """Rotate psi by a unit phase so it matches reference on the
    largest-magnitude component of reference."""
    psi = np.asarray(psi, dtype=np.complex128)
    ref = np.asarray(reference, dtype=np.complex128)
    if psi.shape != ref.shape:
        raise ShapeError(f"shape mismatch: {psi.shape} vs {ref.shape}")
    k = int(np.argmax(np.abs(ref)))
    if abs(psi[k]) < ZERO_NORM_TOL:
        return psi.copy()
    phase = (ref[k] / abs(ref[k])) * (abs(psi[k]) / psi[k])
    return psi * phase


# ---------------------------------------------------------------------------
# JSON representation: complex scalars as [re, im] pairs, row-major matrices.

def state_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ShapeError("state JSON must be a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def operator_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError("operator JSON must be a square grid of [re, im] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


# ---------------------------------------------------------------------------
# Output files.  Each is written to <name>.partial and renamed when complete,
# so a failed run leaves every file whole or absent; path None is stdout.
# A file that cannot be opened raises the OSError (a bad path is invalid
# input); a write that fails after that raises OutputError.

def write_table(path, header: dict, columns, rows):
    """CSV: a `# key = value` line per header entry, the column names, then
    one line per row of numbers, each as %.17g (a float reads back bit for
    bit, an int below 2^53 prints exactly), lines ending in CRLF."""
    line = ",".join(["%.17g"] * len(columns)) + "\r\n"
    with _whole(path) as fh:
        fh.writelines(f"# {key} = {value}\n" for key, value in header.items())
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(line % tuple(row) for row in rows)


def write_json(path, payload):
    """payload as JSON, indented by 2, with a final newline: the bytes of
    json.dumps(payload, indent=2) + "\n" with every real or complex
    ndarray in it as its nested lists, a complex entry as an [re, im]
    pair (dict keys are str).  The text goes out piece by piece, an array
    about _CHUNK values at a time, so no file is held as one string."""
    with _whole(path) as fh:
        fh.writelines(_pieces(payload, 0))
        fh.write("\n")


_CHUNK = 1024     # values of an array formatted at once
_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _pieces(value, level: int):
    """The JSON text of value at indent level `level`, in pieces."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "c":
            value = np.stack((value.real, value.imag), axis=-1)
        if value.ndim and value.dtype.kind == "f":
            yield from _array(value, level)
        else:
            yield from _pieces(value.tolist(), level)
        return
    if not (isinstance(value, (dict, list, tuple)) and value):
        yield json.dumps(value)
        return
    items = ((json.dumps(key) + ": ", item) for key, item in value.items()) \
        if isinstance(value, dict) else (("", item) for item in value)
    inner = ",\n" + "  " * (level + 1)
    brackets = "{}" if isinstance(value, dict) else "[]"
    for k, (key, item) in enumerate(items):
        yield (inner if k else brackets[0] + inner[1:]) + key
        yield from _pieces(item, level + 1)
    yield "\n" + "  " * level + brackets[1]


def _array(a: np.ndarray, level: int):
    """The pieces of a real array of at least one axis: a run of rows
    (along its first axis) of about _CHUNK values at a time, or one row,
    filled into the template of its shape."""
    if not len(a):
        yield "[]"
        return
    inner = ",\n" + "  " * (level + 1)
    rows = max(1, _CHUNK // max(1, math.prod(a.shape[1:])))
    yield "[" + inner[1:]
    for k in range(0, len(a), rows):
        part = a[k:k + rows]
        text = tuple(map(float.__repr__, part.ravel().tolist()))
        if not np.isfinite(part).all():
            text = tuple(_SPECIAL.get(t, t) for t in text)
        yield (inner if k else "") + _items(part.shape, level) % text
    yield "\n" + "  " * level + "]"


@functools.lru_cache(maxsize=64)
def _items(shape: tuple, level: int) -> str:
    """The %s template of the entries of an array of this shape at this
    level, between its brackets."""
    inner = ",\n" + "  " * (level + 1)
    if len(shape) == 1:
        return inner.join(["%s"] * shape[0])
    if not shape[1]:
        return inner.join(["[]"] * shape[0])
    row = ("[\n" + "  " * (level + 2) + _items(shape[1:], level + 1)
           + "\n" + "  " * (level + 1) + "]")
    return inner.join([row] * shape[0])


@contextlib.contextmanager
def _whole(path):
    if path is None:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            # stdout drops what it still buffers, so the interpreter's own
            # flush at exit does not fail a second time
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            raise OutputError(
                f"cannot write <stdout>: {exc.strerror or exc}") from exc
        return
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    fh = open(partial, "w", newline="")
    try:
        with fh:
            yield fh
        partial.replace(path)
    except BaseException as exc:
        partial.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OutputError(
                f"cannot write {path}: {exc.strerror or exc}") from exc
        raise
