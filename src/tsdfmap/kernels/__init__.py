"""Numpy kernels for the hot loops: hash probing, row scatter-add, sparse
Adam, sphere tracing and marching cubes.

Each kernel is defined once, under the name its callers import.
"""

# Always False: there is no compiled lane. perfbench's provenance block
# still reads this name for its `kernel_lane` and `jit_enabled` fields, so
# it goes when the benchmark stops reading it.
JIT_ENABLED = False
