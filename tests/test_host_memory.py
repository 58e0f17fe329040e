"""The host heap the package pins at import (``repro._keep_heap``)."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

#: Minor faults of the third of three identical hash joins at 250 k rows,
#: in a process of its own so that no earlier test has shaped its heap.
THIRD_JOIN_FAULTS = """
import resource
import repro
from repro.operators import hash_join_kernel
from repro.storage import make_join_pair
pair = make_join_pair(250_000, seed=3)
build, probe = pair.build.arrays(), pair.probe.arrays()
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    hash_join_kernel(build, probe, build_keys=["key"], probe_keys=["key"])
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(repro.HEAP_KEPT, faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the pin is glibc's mallopt; other C libraries "
                           "leave the heap as it is")
def test_a_repeated_join_faults_in_no_fresh_pages():
    """Unpinned, glibc serves each large temporary with a fresh ``mmap``
    (about 5,300 faults per call); pinned, the third call reuses the heap
    the first two left resident."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", THIRD_JOIN_FAULTS], env=env,
                         capture_output=True, text=True, check=True).stdout
    kept, faults = out.split()
    assert kept == "True"
    assert int(faults) < 64, f"{faults} minor faults in the third join"


class _NoMallopt:
    """A loaded library without ``mallopt``."""


def _unloadable(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [_unloadable, lambda name: _NoMallopt()],
                         ids=["no-libc", "no-mallopt"])
def test_without_mallopt_the_pin_is_a_no_op(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert repro._keep_heap() is False
