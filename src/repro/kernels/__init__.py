"""The hot numerical kernels of the sweep engine.

:mod:`repro.kernels.numpy_backend` holds the one implementation of the
LASSO/greedy solvers (``fista``/``ista``/``omp``) and of the
charge-sharing encoder multiply.  :mod:`repro.cs.reconstruction` and
:mod:`repro.cs.charge_sharing` call them directly; their floating-point
operations, in order, are the package's numbers (see
``docs/extending.md`` §11).
"""
