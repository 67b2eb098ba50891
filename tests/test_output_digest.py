"""Every output byte of the four perfbench commands, and of `qsdsim master`
on two of their configs, against a committed listing.

output_digests.json, beside this file, holds what `python3
tools/output_digest.py --seeds 3 --workers 1 2` printed, under the key of
the host it was made on: numpy's version, the runtime config string of
numpy's OpenBLAS (which names the core kernel it chose) and numpy's
enabled CPU features.  The dense64_compare digest goes through zgemm,
whose bits depend on that kernel, so a listing holds on its own key only.

    python3 tests/test_output_digest.py

stores this host's listing in the file, in place of any under the same
key.  A change that moves output bits on purpose does so, and says why.
"""

import contextlib
import ctypes
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import output_digest  # noqa: E402

DIGESTS = Path(__file__).with_name("output_digests.json")
ARGS = ["--seeds", "3", "--workers", "1", "2"]


def openblas_config() -> str:
    """The runtime config string of the OpenBLAS bundled with numpy, or ""
    where there is none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            get = getattr(dll, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return ""


def host_key() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:     # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "openblas": openblas_config(),
            "cpu_features": sorted(k for k, on in __cpu_features__.items()
                                   if on)}


def fresh_listing(extra=()) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert output_digest.main(ARGS + list(extra)) == 0
    return out.getvalue().splitlines()


def saved_listing() -> list:
    """The listing committed under this host's key.  On a host with no
    listing committed the calling test skips and says so: a skip is not a
    pass, for it compared no byte."""
    key = host_key()
    saved = [entry["listing"] for entry in json.loads(DIGESTS.read_text())
             if entry["host"] == key]
    if not saved:
        pytest.skip(f"no output listing is committed for this host, {key}; "
                    f"a skip is not a pass (python3 tests/{Path(__file__).name} "
                    "stores one)")
    return saved[0]


def test_outputs_are_the_committed_listing():
    """A fresh listing is the one committed under this host's key."""
    assert fresh_listing() == saved_listing()


def test_outputs_do_not_depend_on_the_split():
    """Under --cpus 1 every batch steps in-process, while on a host of 2
    usable CPUs or more the listing splits qubit_compare and dense64_compare
    with a row helper: the listing is still the committed one.  With fewer
    CPUs nothing splits, so the test skips, and a skip is not a pass.  It
    adds about 6 s to tier-1 on a 2-CPU host."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus < 2:
        pytest.skip(f"{cpus} usable CPU: no batch splits, so --cpus 1 tests "
                    "nothing the committed listing does not; a skip is not a pass")
    assert fresh_listing(["--cpus", "1"]) == saved_listing()


if __name__ == "__main__":
    key = host_key()
    entries = [entry for entry in json.loads(DIGESTS.read_text())
               if entry["host"] != key] if DIGESTS.exists() else []
    entries.append({"host": key, "listing": fresh_listing()})
    DIGESTS.write_text(json.dumps(entries, indent=1) + "\n")
