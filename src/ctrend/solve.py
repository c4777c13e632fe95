"""Weighted least-squares solver and estimate diagnostics.

The point estimate minimizes the stacked weighted objective; the parameter
covariance is the residual variance sigma^2 times the inverse of the
weighted normal matrix.  Everything downstream (adjacent-estimate
correlations, goodness of fit, cluster inference) is derived from the
compact estimate, the inverse and sigma^2 held by :class:`Solution`.  The
compact order is the banded one (:class:`~ctrend.domain.AnalysisDomain`),
so the solver factors and solves in it with no permutation.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from .design import DesignSystem, band_one_norm, check_weights, residual_parts, weighted_sum
from .domain import AnalysisDomain
from .grid import ModelVector, forward_levels

__all__ = [
    "Solution",
    "BandedCovariance",
    "CorrelationSummary",
    "SingularSystemError",
    "LapackUnavailableError",
    "require_lapack",
    "solve",
    "adjacent_correlations",
    "one_blas_thread",
]

# Hard singularity threshold and the soft ill-conditioning threshold that
# only attaches a warning, both on the estimated 1-norm condition number.
SINGULAR_CONDITION = 1e14
ILL_CONDITION = 1e12
# A solve skips the estimate where this multiple of the O(p) bound on the
# condition number (:func:`_condition_bound`) is at most ILL_CONDITION: a
# margin for the rounding of the band sum and of the banded solves that
# the estimate reads, neither of which the exact bound sees.
BOUND_MARGIN = 2.0

IDENTIFIABILITY_HINT = (
    "the stacked system is singular: the data do not identify the model. "
    "A sufficient condition is four observation points with no three on a "
    "common straight line in the year-age plane, together with positive "
    "smoothing weights."
)


class SingularSystemError(RuntimeError):
    pass


@dataclass
class CorrelationSummary:
    trend_smoothness: float  # mean correlation over adjacent trend pairs
    level_smoothness: float  # mean correlation over consecutive boundary slots
    n_trend_links: int
    n_level_links: int
    n_skipped_trend: int = 0
    n_skipped_level: int = 0


class _EstimatedOnFirstRead:
    """The ``condition`` field of :class:`Solution`: the value given, or,
    where none was (None, the field's default), the estimate made on the
    first read and kept."""

    def __get__(self, solution, owner=None):
        if solution is None:
            return None  # the field's default
        if solution._condition is None:
            solution._condition = _estimated_condition(
                solution.bands, (solution.trend_weight, solution.level_weight), solution.inverse
            )
        return solution._condition

    def __set__(self, solution, value):
        solution._condition = value


@dataclass
class Solution:
    """Point estimates with covariance over one analysis domain.

    ``estimate`` and ``inverse`` (``N^-1``) are in the compact order,
    cohort-major (:class:`~ctrend.domain.AnalysisDomain`); full-scale views
    carry NaN for non-participating components.  The covariance is
    ``sigma2 * N^-1``, formed only where read (:meth:`standard_errors`, the
    cluster block covariances).  ``condition``, where not given, is
    estimated from ``bands`` (the design's :attr:`DesignSystem.bands`) and
    the factor when first read, so a solution nobody reports never pays
    for the estimate.
    """

    domain: AnalysisDomain
    trend_weight: float
    level_weight: float
    estimate: np.ndarray
    inverse: BandedCovariance  # N^-1, without sigma2
    sigma2: float
    r2: float | None
    data_misfit: float  # weighted data RSS at the estimate
    trend_curvature: float  # squared trend second differences
    level_curvature: float  # squared boundary-level second differences
    dof: int
    condition: float = _EstimatedOnFirstRead()  # estimated 1-norm condition number of N
    warnings: list = field(default_factory=list)
    bands: np.ndarray | None = field(default=None, repr=False, compare=False)

    # --- scattered views -----------------------------------------------------

    @property
    def frame(self):
        return self.domain.frame

    def full_vector(self) -> np.ndarray:
        return self.domain.scatter(self.estimate)

    def model(self) -> ModelVector:
        return ModelVector.from_flat(self.frame, self.full_vector())

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(self.sigma2 * self.inverse.diagonal(), 0.0, None))

    def trend_grid(self) -> np.ndarray:
        return self.model().trends

    def trend_se_grid(self) -> np.ndarray:
        full = self.domain.scatter(self.standard_errors())
        return full[self.frame.cohort_count :].reshape(
            self.frame.year_cells, self.frame.age_cells
        )

    def boundary_levels(self) -> np.ndarray:
        return self.full_vector()[: self.frame.cohort_count]

    def boundary_level_se(self) -> np.ndarray:
        return self.domain.scatter(self.standard_errors())[: self.frame.cohort_count]

    def level_grid(self) -> np.ndarray:
        """Forward-evaluated mean levels wherever the cohort path is covered."""
        return forward_levels(self.model(), domain=self.domain)


class BandedCovariance:
    """The inverse of a symmetric positive definite band matrix.

    ``band`` is the matrix's lower band in LAPACK lower band storage (entry
    ``[r - c, c]`` holds the matrix at ``(r, c)``, ``r >= c``), in the
    compact order, which is the banded one; its row count less one is the
    half-bandwidth ``bandwidth``.
    The matrix is held as its Cholesky factor ``chol`` in the same storage,
    and the selected inverse as ``inverse_band``, the lower band of the
    inverse in that storage too (:func:`_selected_inverse`): two
    arrays of ``(b + 1) x p`` floats.  Factor and solves cost O(p b^2) and
    O(p b) instead of O(p^3).  The object offers:

    * ``inverse.diagonal()``, a copy of row 0 of ``inverse_band``;
    * ``inverse[a, b]`` for nonnegative indices or index arrays inside the
      band, entry ``[hi - lo, lo]`` of ``inverse_band`` for ``lo <= hi``
      (``IndexError`` for a pair outside it or a negative index);
    * ``inverse @ x``, a banded solve;
    * ``np.asarray(inverse)``, the dense matrix, built only when asked for;
    * :meth:`map_covariance`, ``A N^-1 A^T`` for a sparse map ``A``, from
      one forward solve.

    A column-major (Fortran-order) ``band`` is factored in place, so it
    becomes the factor; any other layout is copied first.  Raises
    ``LinAlgError`` when the matrix is not positive definite, or when the
    factor is so near singular that the selected inverse overflows to a
    non-finite entry.
    """

    def __init__(self, band: np.ndarray):
        self.chol = np.asfortranarray(band, dtype=float)
        info = _lapack().pbtrf(self.chol)
        if info > 0:
            raise LinAlgError(f"{info}-th leading minor not positive definite")
        self.bandwidth = band.shape[0] - 1
        self.shape = (band.shape[1],) * 2
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            self.inverse_band = _selected_inverse(self.chol)
        if not np.isfinite(self.inverse_band).all():
            raise LinAlgError("the selected inverse of the factor is not finite")

    def diagonal(self) -> np.ndarray:
        return self.inverse_band[0].copy()

    def inverse_norm_bound(self) -> float:
        """An upper bound on ``||N^-1||_1`` from the variances
        alone: ``|S_ij| <= sqrt(S_ii S_jj)`` for the positive definite
        ``S = N^-1``, so each column sum of moduli is at most
        ``sqrt(max S_ii) * sum sqrt(S_ii)``.  Infinite unless every
        variance is positive."""
        variances = self.inverse_band[0]
        if not variances.min() > 0.0:  # NaN fails the test too
            return math.inf
        roots = np.sqrt(variances)
        return float(roots.max() * roots.sum())

    def __getitem__(self, key):
        a, b = key
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        if np.any(lo < 0) or np.any(hi - lo > self.bandwidth):
            raise IndexError(
                f"covariance entry outside the band (half-bandwidth {self.bandwidth}) "
                "or at a negative index"
            )
        return self.inverse_band[hi - lo, lo]

    def __matmul__(self, x):
        # One column-major copy, solved in place.
        y = np.array(x, dtype=float, order="F")
        _lapack().pbtrs(self.chol, y)
        return y

    def map_covariance(self, rows, columns, values, count: int) -> np.ndarray:
        """``A N^-1 A^T`` for the ``count x p`` map ``A`` whose nonzero
        entries are ``values`` at ``(rows, columns)``.  With ``N = L L^T``,
        this is ``V^T V`` for ``V = L^-1 A^T``:
        ``A^T`` is written straight into its rows and solved forward in
        place (LAPACK ``dtbtrs``), so neither a dense ``A`` nor a back
        substitution is formed.  The factor has a positive diagonal, so the
        solve cannot fail."""
        v = np.zeros((self.shape[0], count), order="F")
        v[columns, rows] = values
        _lapack().tbtrs(self.chol, v)
        return v.T @ v

    def __array__(self, dtype=None, copy=None):
        dense = self @ np.eye(self.shape[0])
        return np.asarray(0.5 * (dense + dense.T), dtype=dtype)


def _selected_inverse(chol: np.ndarray) -> np.ndarray:
    """The lower band of ``N^-1``, from ``N = L L^T`` with ``L`` in lower
    band storage (Takahashi, Fagan & Chin 1973), in the same storage:
    entry ``[d, c]`` is the inverse at positions ``(c + d, c)``.

    In blocks of ``m = max(b, 1)`` rows, a band-``b`` ``L`` is block lower
    bidiagonal, with diagonal blocks ``D_k`` and sub-diagonal blocks
    ``C_k``.  ``L^T S = L^-1``, read block row by block row from the last,
    gives with ``Y_k = D_k^-T C_k^T``::

        S[k, k+1] = -Y_k S[k+1, k+1]
        S[k, k]   = D_k^-T D_k^-1 - S[k, k+1] Y_k^T

    Row ``x`` of the pair ``[S[k, k] | S[k, k+1]]`` holds, from its own
    diagonal on, the ``b + 1`` entries ``S[km + x, km + x + d]`` of position
    ``km + x``, so each block's band columns are read from the upper
    triangle of ``S[k, k]`` and from ``S[k, k+1]``.  (In floating point the
    computed ``S[k, k]`` is not exactly symmetric; the band holds
    ``S[lo, hi]``, ``lo <= hi``.)  One sweep, from the last block, writes
    the band: each step needs only its own ``m x 2m`` pair and the diagonal
    block of the previous one, so two pairs take turns as the work space.
    Each step inverts its ``D_k`` (LAPACK ``dtrtri``) before its products.
    Under the scipy binding that call runs in scipy's OpenBLAS pool and the
    products in numpy's; with two threads in each pool, on 2 cores, this
    order took at most 1% longer than inverting every block first (b = 64
    and 124).
    """
    width, p = chol.shape
    m = max(width - 1, 1)
    n = -(-p // m)
    out = np.empty((width, p), order="F")  # each block's columns are contiguous
    lapack = _lapack()
    pair, below = np.empty((m, 2 * m)), np.empty((m, 2 * m))
    # Each pair's band columns: entry [d, x] is pair[x, x + d], (x (2m + 1)
    # + d) floats from its start.
    rows, rows_below = (
        np.lib.stride_tricks.as_strided(
            work, (width, m), (work.itemsize, (2 * m + 1) * work.itemsize), writeable=False
        )
        for work in (pair, below)
    )
    # Block k's columns of L, one per row, each as L[c, c], ..., L[c + m, c]
    # (a column past the matrix keeps the unit diagonal it starts with, which
    # keeps it apart).  Read m wide, the first m^2 entries hold D_k^T in their
    # upper triangle and the last m^2 hold C_k^T in their lower one.
    columns = np.zeros((m, m + 1))
    columns[:, 0] = 1.0
    flat = columns.ravel()
    diag_source, coupling_source = flat[: m * m].reshape(m, m), flat[m:].reshape(m, m)
    upper_mask = np.triu(np.ones((m, m), dtype=bool))
    lower_mask = upper_mask.T
    # The other work arrays, each made once; the zero triangles are never written.
    diag_t = np.empty((m, m), order="F")  # D_k^T, inverted in place (upper triangle)
    d_inv_t = np.zeros((m, m))  # D_k^-T, row-major: the products round by layout
    coupling_t = np.zeros((m, m))  # C_k^T
    own, coupling, product = np.empty((m, m)), np.empty((m, m)), np.empty((m, m))
    for k in range(n - 1, -1, -1):
        part = chol[:, k * m : (k + 1) * m].T
        columns[: len(part), :width] = part
        np.copyto(diag_t, diag_source, where=upper_mask)
        if lapack.trtri(diag_t):
            raise LinAlgError(f"singular triangular block {k} of the Cholesky factor")
        np.copyto(d_inv_t, diag_t, where=upper_mask)
        np.matmul(d_inv_t, d_inv_t.T, out=own)
        if k == n - 1:
            pair[:, :m] = own
            pair[:, m:] = 0.0
        else:
            np.copyto(coupling_t, coupling_source, where=lower_mask)
            np.matmul(d_inv_t, coupling_t, out=coupling)  # Y_k
            upper = pair[:, m:]
            np.matmul(coupling, below[:, :m], out=upper)
            np.negative(upper, out=upper)
            np.matmul(upper, coupling.T, out=product)
            np.subtract(own, product, out=pair[:, :m])
        start = k * m
        out[:, start : start + m] = rows[:, : p - start]
        pair, below, rows, rows_below = below, pair, rows_below, rows
    return out


def _bundled_openblas(package: str) -> list:
    """Paths of the OpenBLAS libraries in ``package``'s wheel (its ``.libs``
    directory), found without importing the package; empty where it is not
    installed or bundles none."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return []
    libs = os.path.dirname(spec.origin) + ".libs"
    return sorted(glob.glob(os.path.join(libs, "*openblas*")))


# Thread-count functions of the OpenBLAS that numpy's wheel (64-bit
# integers) and scipy's wheel bundle, then those of a plain OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def openblas_pools() -> dict:
    """The thread-count getter and setter of the OpenBLAS in numpy's wheel
    (its ``.libs`` directory), and of the one in scipy's where scipy is
    imported, by package name; empty where none is found (another BLAS, or
    another wheel layout).  No command imports scipy, so a command loads
    and pins numpy's library alone; scipy's pool is pinned where its LAPACK
    is the fallback binding (:class:`_ScipyLapack`), or where a library
    caller has imported scipy in the same process."""
    pools = {}
    for package in ("numpy", "scipy"):
        if sys.modules.get(package) is None:
            continue
        for path in _bundled_openblas(package):
            lib = ctypes.CDLL(path)
            for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
                get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    pools[package] = (get, set_)
                    break
    return pools


# The LAPACK routines solve calls, by their exported names in the LAPACK
# numpy is linked to, each with the integer type of its arguments: numpy 2
# wheels (scipy-openblas64), numpy 1.22-1.26 wheels (openblas64_), macOS
# Accelerate's ILP64 and LP64 interfaces, then builds with 32-bit integers
# (a system or conda LAPACK, MKL).
_LAPACK_SYMBOLS = (
    ("scipy_{}_64_", ctypes.c_int64),
    ("{}_64_", ctypes.c_int64),
    ("{}$NEWLAPACK$ILP64", ctypes.c_int64),
    ("{}$NEWLAPACK", ctypes.c_int32),
    ("scipy_{}_", ctypes.c_int32),
    ("{}_", ctypes.c_int32),
)
_LAPACK_ROUTINES = ("dpbtrf", "dpbtrs", "dtrtri", "dtbtrs")
_F_ARRAY = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS,WRITEABLE")


class _CtypesLapack:
    """dpbtrf, dpbtrs, dtrtri and dtbtrs called through ``ctypes``.  Each works in
    place on column-major float64 arrays (``ndpointer`` checks the layout)
    and returns LAPACK's ``info``.  The trailing ``size_t`` arguments are
    the lengths of the character arguments, which gfortran passes hidden
    (a LAPACK that takes none ignores them)."""

    def __init__(self, routines, integer):
        self._pbtrf, self._pbtrs, self._trtri, self._tbtrs = routines
        self._int = integer
        ref, char, length = ctypes.POINTER(integer), ctypes.c_char_p, ctypes.c_size_t
        self._pbtrf.argtypes = [char, ref, ref, _F_ARRAY, ref, ref, length]
        self._pbtrs.argtypes = [char, ref, ref, ref, _F_ARRAY, ref, _F_ARRAY, ref, ref, length]
        self._trtri.argtypes = [char, char, ref, _F_ARRAY, ref, ref, length, length]
        self._tbtrs.argtypes = [char, char, char, ref, ref, ref, _F_ARRAY, ref, _F_ARRAY, ref, ref,
                                length, length, length]
        for routine in routines:
            routine.restype = None

    def pbtrf(self, ab: np.ndarray) -> int:
        """Cholesky factor of the band ``ab`` (lower storage) over it."""
        n, info = self._int, self._int(0)
        self._pbtrf(b"L", n(ab.shape[1]), n(ab.shape[0] - 1), ab, n(ab.shape[0]), info, 1)
        return _checked(info.value, "dpbtrf")

    def pbtrs(self, ab: np.ndarray, b: np.ndarray) -> int:
        """Solve with the factor ``ab`` for the columns of ``b``, over them."""
        n, info = self._int, self._int(0)
        nrhs = 1 if b.ndim == 1 else b.shape[1]
        self._pbtrs(b"L", n(ab.shape[1]), n(ab.shape[0] - 1), n(nrhs), ab, n(ab.shape[0]),
                    b, n(max(b.shape[0], 1)), info, 1)
        return _checked(info.value, "dpbtrs")

    def trtri(self, a: np.ndarray) -> int:
        """Inverse of the upper triangular ``a`` over it."""
        n, info = self._int, self._int(0)
        self._trtri(b"U", b"N", n(a.shape[0]), a, n(max(a.shape[0], 1)), info, 1, 1)
        return _checked(info.value, "dtrtri")

    def tbtrs(self, ab: np.ndarray, b: np.ndarray) -> int:
        """Solve ``L x = b`` with the lower band ``L`` in ``ab`` (a factor
        from :meth:`pbtrf`) for the columns of ``b``, over them."""
        n, info = self._int, self._int(0)
        nrhs = 1 if b.ndim == 1 else b.shape[1]
        self._tbtrs(b"L", b"N", b"N", n(ab.shape[1]), n(ab.shape[0] - 1), n(nrhs), ab,
                    n(ab.shape[0]), b, n(max(b.shape[0], 1)), info, 1, 1, 1)
        return _checked(info.value, "dtbtrs")


class _ScipyLapack:
    """The same routines from ``scipy.linalg.lapack``, with the same
    in-place contract, for a numpy whose BLAS exports none of the names."""

    def __init__(self):
        from scipy.linalg import lapack

        self._lapack = lapack

    def pbtrf(self, ab):
        ab[...], info = self._lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        return _checked(info, "dpbtrf")

    def pbtrs(self, ab, b):
        b[...], info = self._lapack.dpbtrs(ab, b, lower=1, overwrite_b=1)
        return _checked(info, "dpbtrs")

    def trtri(self, a):
        a[...], info = self._lapack.dtrtri(a, lower=0, overwrite_c=1)
        return _checked(info, "dtrtri")

    def tbtrs(self, ab, b):
        x, info = self._lapack.dtbtrs(ab, b.reshape(len(b), -1), uplo="L", overwrite_b=1)
        b[...] = x.reshape(b.shape)
        return _checked(info, "dtbtrs")


def _checked(info: int, routine: str) -> int:
    """LAPACK's ``info``: positive where the matrix fails (not positive
    definite, or singular); a negative value names an illegal argument."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    return info


class LapackUnavailableError(ImportError):
    """Neither numpy's BLAS nor scipy provides the LAPACK routines."""


def _lapack_libraries() -> list:
    """Where to look the LAPACK names up: the OpenBLAS in numpy's wheel,
    then numpy's linear-algebra extension, whose lookups also search the
    libraries it links (on Linux and macOS), whatever the install layout."""
    paths = _bundled_openblas("numpy")
    try:
        paths.append(importlib.import_module("numpy.linalg._umath_linalg").__file__)
    except ImportError:  # a private module, which a later numpy may move
        pass
    return paths


def _bind_lapack():
    """The routines from the LAPACK numpy is linked to, under the first of
    ``_LAPACK_SYMBOLS`` it exports all four by; else scipy's.  Raises
    :class:`LapackUnavailableError` where neither is found."""
    for path in _lapack_libraries():
        lib = ctypes.CDLL(path)
        for pattern, integer in _LAPACK_SYMBOLS:
            routines = [getattr(lib, pattern.format(name), None) for name in _LAPACK_ROUTINES]
            if all(routine is not None for routine in routines):
                return _CtypesLapack(routines, integer)
    try:
        return _ScipyLapack()
    except ImportError as err:
        raise LapackUnavailableError(
            f"numpy's BLAS exports none of the LAPACK routines {', '.join(_LAPACK_ROUTINES[:-1])} "
            f"and {_LAPACK_ROUTINES[-1]} "
            "under a known name, and scipy, which provides them otherwise, is not installed; "
            "install scipy (pip install scipy)"
        ) from err


@functools.cache
def _lapack():
    """The LAPACK binding, made at the first solve and kept."""
    return _bind_lapack()


def require_lapack() -> None:
    """Make the LAPACK binding now rather than at the first solve; raises
    :class:`LapackUnavailableError` where no LAPACK is found."""
    _lapack()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with each OpenBLAS pool of :func:`openblas_pools` at
    one thread, and restore their previous counts afterwards, also on an
    error.

    Each solve factors, inverts and multiplies in numpy's OpenBLAS pool.
    scipy's pool is pinned too where scipy is imported: for the fallback
    binding, whose LAPACK runs in it, and for a library caller that runs
    scipy in the same process.  With two threads each, the two pools spun
    while the other one worked, and on 2 cores the fit used 1.6-1.7 times
    the CPU time and took no less wall time.  Yields the counts inside the
    block by package name, or None (and changes nothing) where no OpenBLAS
    is found.
    """
    pools = openblas_pools()
    previous = {name: get() for name, (get, _) in pools.items()}
    try:
        for _, set_threads in pools.values():
            set_threads(1)
        yield {name: get() for name, (get, _) in pools.items()} or None
    finally:
        for name, (_, set_threads) in pools.items():
            set_threads(previous[name])


def _inverse_one_norm(inverse: BandedCovariance) -> float:
    """Estimate of ``||N^-1||_1`` from products ``inverse @ x``.

    Hager's estimator (Hager 1984) in Higham's form, the LAPACK ``xLACON``
    scheme (Higham 1988): at most five pairs of banded solves plus one
    with an alternating test vector.  ``N`` is symmetric, so the
    transposed solves are plain ones.  The result is a lower bound, and
    often the exact value.  It is infinite where a solve has a non-finite
    entry, which the comparisons below would drop.
    """
    p = inverse.shape[0]
    finite = []  # per solve: whether every entry is finite

    def solved(x):
        y = inverse @ x
        finite.append(np.isfinite(y).all())
        return y

    y = solved(np.full(p, 1.0 / p))
    if p == 1:
        return abs(float(y[0]))  # a non-finite value passes through
    estimate = float(np.abs(y).sum())
    signs = np.where(y >= 0, 1.0, -1.0)
    z = solved(signs)
    j = int(np.argmax(np.abs(z)))
    for _ in range(4):
        y = solved(np.eye(1, p, j).ravel())
        previous, estimate = estimate, float(np.abs(y).sum())
        new_signs = np.where(y >= 0, 1.0, -1.0)
        if np.array_equal(new_signs, signs) or estimate <= previous:
            estimate = max(estimate, previous)
            break
        signs = new_signs
        z = solved(signs)
        last, j = j, int(np.argmax(np.abs(z)))
        if z[last] == abs(z[j]):
            break
    alternating = (-1.0) ** np.arange(p) * (1.0 + np.arange(p) / (p - 1))
    estimate = max(estimate, 2.0 * float(np.abs(solved(alternating)).sum()) / (3.0 * p))
    return estimate if all(finite) else math.inf


def _estimated_condition(bands, weights, inverse: BandedCovariance) -> float:
    """The 1-norm condition number of the normal matrix at the smoothing
    ``weights``: ``||N||_1`` read from its band, summed again since the
    factor overwrote it, times Hager's estimate of ``||N^-1||_1`` from
    ``inverse``.  Each band row is the band sum of :func:`solve`,
    :func:`~ctrend.design.weighted_sum`, over that row of the bands, made
    where the norm reads it, so no band-sized array is made after the fit:
    one there raised the peak RSS of a process repeating `table` fits by
    about 0.3 MB."""

    def row_moduli(d):
        row = weighted_sum(bands[:, d], weights)
        return np.abs(row, out=row)

    return band_one_norm(row_moduli, bands.shape[1]) * _inverse_one_norm(inverse)


def _condition_bound(system: DesignSystem, weights, inverse: BandedCovariance) -> float:
    """An upper bound on the 1-norm condition number in O(p): the design's
    band norms bound ``||N||_1`` by the triangle inequality, and the
    variances bound ``||N^-1||_1`` (:meth:`BandedCovariance.inverse_norm_bound`).
    Hager's estimate is a lower bound on ``||N^-1||_1``, so the estimated
    condition number is at most this, up to rounding."""
    return float(weighted_sum(system.band_norms, weights)) * inverse.inverse_norm_bound()


def solve(system: DesignSystem, *weights: float) -> Solution:
    """Minimize the stacked weighted objective at the smoothing ``weights``,
    one per penalty of ``system`` (trend, then level), and attach inference
    outputs.

    The normal matrix is ``G0 + w1 G1 + w2 G2`` (:class:`DesignSystem`):
    its band is :func:`~ctrend.design.weighted_sum` of the bands the design
    computed once, the one band sum, which the condition estimate
    (:func:`_estimated_condition`) also makes row by row; it is factored
    (Cholesky) in place.  The estimate
    gets two steps of iterative refinement, with the normal matrix applied
    through the row blocks (:meth:`DesignSystem.normal_product`).  The
    inverse ``N^-1`` is a :class:`BandedCovariance`: the selected inverse
    gives the variances and the adjacent covariances the iteration loop
    reads, and banded solves give the rest on request.  The solution keeps
    it apart from ``sigma2``.  ``condition``
    is the 1-norm condition number, ``||N||_1`` read from the band times
    Hager's estimate of ``||N^-1||_1``.  A solve first checks an O(p)
    upper bound on it (:func:`_condition_bound`); where the bound proves it
    below ``ILL_CONDITION``, neither the warning nor the singular stop can
    apply, and the estimate is left to the first read of ``condition``.
    Otherwise it is estimated here, before the solve returns.

    Raises
    ------
    ValueError
        When a smoothing weight is negative.
    SingularSystemError
        When there are fewer stacked rows than parameters, the factorization
        fails or the estimated condition number exceeds
        ``SINGULAR_CONDITION``.  The message cites the identifiability
        condition.  With as many rows as parameters, ``sigma2`` is NaN.
    """
    check_weights(*weights)
    p = system.param_count
    n_total = system.n_total
    if n_total < p:
        raise SingularSystemError(
            f"{n_total} stacked rows cannot determine {p} parameters; " + IDENTIFIABILITY_HINT
        )

    try:
        # column-major, so LAPACK factors it in place: the band becomes the factor
        inverse = BandedCovariance(weighted_sum(system.bands, weights))
    except LinAlgError as err:
        raise SingularSystemError(f"{err}; {IDENTIFIABILITY_HINT}") from None

    condition, notes = None, []
    if not BOUND_MARGIN * _condition_bound(system, weights, inverse) <= ILL_CONDITION:
        condition = _estimated_condition(system.bands, weights, inverse)
        if not math.isfinite(condition) or condition > SINGULAR_CONDITION:
            raise SingularSystemError(
                f"normal-matrix condition number {condition:.3g} exceeds "
                f"{SINGULAR_CONDITION:.0e}; " + IDENTIFIABILITY_HINT
            )
        if condition > ILL_CONDITION:
            notes.append(f"ill-conditioned normal matrix (1-norm condition ~ {condition:.3g})")

    rhs = system.data_rhs
    z = inverse @ rhs
    for _ in range(2):  # iterative refinement sharpens near-consistent systems
        z = z + inverse @ (rhs - system.normal_product(z, *weights))

    resid = system.data_matrix @ z - system.target
    parts = residual_parts(system, z, resid)
    if n_total == p:
        # saturated system: unique interpolant, no residual information
        sigma2 = math.nan
        notes.append("saturated system: zero residual degrees of freedom, variance undefined")
    else:
        # n - p, n counting every stacked row (data and both curvature
        # blocks): also the F-test denominator's degrees of freedom
        sigma2 = float(weighted_sum(parts, weights)) / (n_total - p)

    # the fields in order: the domain, the weights, the estimate, N^-1,
    # sigma2, R^2, then the data misfit and the curvatures
    return Solution(
        system.domain, *weights, z, inverse, sigma2, _r_squared(resid, system.target), *parts,
        dof=n_total - p,
        condition=condition,
        warnings=notes,
        bands=system.bands,
    )


def _r_squared(resid: np.ndarray, x0: np.ndarray) -> float | None:
    """Goodness of fit of the data block, from its residual ``resid``,
    against the grand mean of the targets ``x0``.

    Undefined (None) with fewer than two data rows or zero target variance.
    """
    if x0.size < 2:
        return None
    tss = float(np.sum((x0 - x0.mean()) ** 2))
    if tss == 0.0:
        return None
    return 1.0 - float(np.dot(resid, resid)) / tss


def adjacent_correlations(
    solution: Solution, literal_level_denominator: bool = False
) -> CorrelationSummary:
    """Average Pearson correlation between adjacent estimates.

    Trend links pair horizontally and vertically adjacent included cells;
    level links pair consecutive boundary slots in the estimated segment.
    Links touching a component of zero variance ``sigma^2 N^-1_ii`` are
    skipped and counted.  sigma^2 cancels from a correlation, so the
    correlations are read from ``N^-1``, whose digits do not follow those of
    the estimate; an undefined (NaN) sigma^2 still leaves every correlation
    undefined.

    ``literal_level_denominator`` divides the boundary-level sum by the
    slot count instead of the link count (compatibility switch; the link
    count is the default since it matches the number of summed terms).
    """
    domain = solution.domain
    inverse = solution.inverse
    unit_var = inverse.diagonal()
    var = solution.sigma2 * unit_var

    def links(pairs):
        """Sum of the link correlations, their count, and the skipped links.

        ``cumsum`` adds left to right, as a loop would; ``np.sum`` adds
        pairwise and can change the last digit.
        """
        a, b = pairs[:, 0], pairs[:, 1]
        keep = ~((var[a] <= 0.0) | (var[b] <= 0.0))
        a, b = a[keep], b[keep]
        r = inverse[a, b] / np.sqrt(unit_var[a] * unit_var[b])
        if math.isnan(solution.sigma2):
            r[:] = math.nan
        total = float(np.cumsum(r)[-1]) if r.size else 0.0
        return total, int(r.size), int(keep.size - r.size)

    trend_links, level_links = domain.links()
    trend_sum, n_trend, skipped_trend = links(trend_links)
    level_sum, n_level, skipped_level = links(level_links)

    trend_mean = trend_sum / n_trend if n_trend else math.nan
    if literal_level_denominator:
        level_mean = level_sum / domain.slot_count if domain.slot_count else math.nan
    else:
        level_mean = level_sum / n_level if n_level else math.nan
    return CorrelationSummary(
        trend_smoothness=trend_mean,
        level_smoothness=level_mean,
        n_trend_links=n_trend,
        n_level_links=n_level,
        n_skipped_trend=skipped_trend,
        n_skipped_level=skipped_level,
    )
