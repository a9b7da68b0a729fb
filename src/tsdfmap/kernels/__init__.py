"""Kernel dispatch: numba-compiled hot loops with pure-numpy fallbacks.

Hash probing, row scatter-add, sparse Adam and sphere tracing exist
twice, as ``<name>_numba`` (an ``@njit`` loop) and ``<name>_numpy`` (a
numpy implementation). The public alias ``<name>`` points at the numba
build unless the environment variable ``TSDFMAP_NUMBA`` is set to
``0``/``false``/``off``/``no`` or numba is not importable. Marching-cubes
emission is one vectorized gather and has no compiled twin. Running
``perfbench/run.py --trace 1`` with and without ``TSDFMAP_NUMBA=0``
compares the two lanes.
"""

import os


def _env_wants_jit() -> bool:
    value = os.environ.get("TSDFMAP_NUMBA", "1").strip().lower()
    return value not in ("0", "false", "off", "no")


JIT_ENABLED = _env_wants_jit()

if JIT_ENABLED:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        JIT_ENABLED = False

if not JIT_ENABLED:

    def njit(*args, **kwargs):
        """No-op stand-in so the _numba variants stay importable."""
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap
