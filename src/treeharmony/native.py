"""Build, cache and load the compiled search kernel, ``_kernel.c``.

The searches run in one C extension with four entries.  The solvers
make one call per tree: ``solve_twostage`` runs a whole
:func:`treeharmony.twostage.solve_twostage` call, every round of stage
1, the leaf-CSP build and stage 2, and ``solve_backtracking`` a whole
:func:`treeharmony.backtracking.solve_backtracking` call, every restart.
``stage1`` (one stage-1 search on a tree) and ``stage2`` (the leaf-CSP
build and leaf search on a tree and stage 1's labels) serve
:func:`treeharmony.twostage.stage1_internal` and
:func:`treeharmony.twostage.solve_leaf_csp`, library and test entry
points.  Every entry takes an int seed and draws only from a
Mersenne Twister of its own, seeded as ``random.Random(seed)`` seeds
one; no draw calls back into Python.  The extension is built with gcc
on first use and kept in a cache outside the source tree:
``$XDG_CACHE_HOME/treeharmony/`` or
``~/.cache/treeharmony/``.  The file name carries a CRC-32 of the source,
the compiler flags and the interpreter's ABI, so an edited source or
another interpreter gets its own build and a stale one is never loaded.
A build goes to a temporary file that is renamed into place, so
interpreters that build at the same moment leave one intact file.

Only the solvers load the kernel, on their first call, and a sweep
whose pipeline runs two-stage or backtracking loads it before it forks
its workers, which inherit it; enumeration, counting and ``verify``
never need a compiler.  Without gcc or the Python headers, the first
solver call raises :class:`KernelBuildError` naming the command and its
output.
"""

import os
import sys
import zlib

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
COMPILER = "gcc"
CFLAGS = ("-O2", "-std=c11", "-fPIC", "-shared")

_kernel = None


class KernelBuildError(RuntimeError):
    """The search kernel could not be compiled."""


def kernel():
    """The loaded kernel module, built first if the cache lacks it."""
    global _kernel
    if _kernel is None:
        _kernel = _load()
    return _kernel


def _cache_path() -> str:
    """Where the build of the current source for this interpreter lives."""
    from importlib.machinery import EXTENSION_SUFFIXES

    suffix = EXTENSION_SUFFIXES[0]
    with open(SOURCE, "rb") as fh:
        key = zlib.crc32(fh.read())
    key = zlib.crc32(" ".join((COMPILER, *CFLAGS, suffix, sys.version)).encode(), key)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "treeharmony", f"_kernel-{key:08x}{suffix}")


def build(path: str, extra_flags=()) -> None:
    """Compile the kernel to *path* through a temporary file in the same
    directory, renamed into place when the compiler succeeds."""
    import subprocess
    import sysconfig
    import tempfile

    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    except OSError as exc:
        raise KernelBuildError(f"cannot build the search kernel in {directory}: "
                               f"{exc}") from None
    os.close(fd)
    cmd = [COMPILER, *CFLAGS, *extra_flags, "-I" + sysconfig.get_paths()["include"],
           SOURCE, "-o", tmp]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise KernelBuildError(f"cannot build the search kernel: "
                                   f"{' '.join(cmd)}: {exc}") from None
        if proc.returncode != 0:
            raise KernelBuildError(
                f"cannot build the search kernel: {' '.join(cmd)} exited with "
                f"{proc.returncode}:\n{proc.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    from importlib.machinery import ExtensionFileLoader
    from importlib.util import module_from_spec, spec_from_loader

    path = _cache_path()
    if not os.path.exists(path):
        build(path)
    loader = ExtensionFileLoader("treeharmony._kernel", path)
    module = module_from_spec(spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module
