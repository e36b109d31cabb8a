"""Compiled CSR relax/commit kernels behind ``relax_backend="native"``.

The pure-Python simulators bottom out at ~25-30 us of NumPy call overhead
per block commit (docs/performance.md): a whole-rank relax is six buffered
NumPy kernels over a few dozen values each, so the fixed per-call cost
dominates the arithmetic. This module removes that floor without adding a
dependency: it generates a small C source file, compiles it on first use
with the container's ``cc`` into a shared library named by the content
hash of (source, flags), and binds the entry points through :mod:`ctypes`.
No numba, no cffi — nothing beyond the stdlib and a C compiler.

Bit-identity contract
---------------------
Every kernel reproduces the exact floating-point operand order of the
NumPy path it replaces, so trajectories stay byte-for-byte equal to the
``repro.runtime.legacy`` oracle:

* ``repro_relax_rank`` mirrors the buffered relax closure: the row-subset
  SpMV accumulates ``data[k] * lb[indices[k]]`` into its row bin in
  storage order — exactly how ``np.bincount`` sums its weights — and the
  elementwise tail ``own + dinv * (b - mv)`` (plus the optional
  second-order Richardson momentum term) rounds each operation
  separately.
* ``repro_commit_rank`` mirrors the commit: ``dx = pend - own``, the
  ``x[rows]`` store, and the :class:`~repro.matrices.sparse.ColumnScatterPlan`
  residual update (per-entry products, bin accumulation in storage order,
  one full-span subtract).
* ``repro_relax_batch`` is the turbo engine's inner block relax: one call
  relaxes and commits a whole admission batch, member by member in cursor
  order — the order the batched NumPy phases are proven equivalent to.

The library is compiled with ``-ffp-contract=off`` so the compiler cannot
fuse the multiply-add chains into FMAs (which would round differently
from NumPy's separate kernels). ``-ffast-math`` is never used. The one
relaxation the kernels refuse is the sequential Gauss-Seidel sweep, whose
NumPy implementation accumulates through BLAS dot products with an
unspecified summation order no portable C loop can reproduce.

Environment knobs
-----------------
``REPRO_NATIVE_DIR``
    Build-cache directory (default ``~/.cache/repro_native``). The
    compiled library lands there as ``repro_native_<hash>.so`` next to a
    ``build.log``; a matching hash on a later run loads without
    recompiling.
``REPRO_NO_NATIVE``
    Any value other than ``""``/``"0"`` disables the subsystem entirely:
    :func:`native_kernels` returns ``None`` and every caller silently
    falls back to the NumPy block/event backends.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* One whole-rank scaled (Jacobi / damped Jacobi / Richardson) relax,
 * bit-identical to the simulator's buffered NumPy closure:
 *   lb[:m] = x[rows]                    (own-row gather)
 *   mv     = bincount(rowid, data * lb[indices], minlength=m)
 *   pend   = lb[:m] + dinv * (b - mv)
 * plus the optional second-order Richardson momentum tail
 *   pend  += beta * (lb[:m] - mom_prev);  mom_prev = lb[:m]
 * Requires -ffp-contract=off: every * and + must round separately. */
void repro_relax_rank(int64_t m, int64_t nnz,
                      const double *x, const int64_t *rows,
                      double *lb,
                      const double *data, const int64_t *indices,
                      const int64_t *rowid,
                      const double *b_loc, const double *dinv_loc,
                      double *pend, double *mv,
                      double beta, double *mom_prev)
{
    int64_t i, k;
    for (i = 0; i < m; i++)
        lb[i] = x[rows[i]];
    for (i = 0; i < m; i++)
        mv[i] = 0.0;
    for (k = 0; k < nnz; k++) {
        double g = data[k] * lb[indices[k]];
        mv[rowid[k]] += g;
    }
    if (mom_prev == 0) {
        for (i = 0; i < m; i++) {
            double t = b_loc[i] - mv[i];
            t = dinv_loc[i] * t;
            pend[i] = lb[i] + t;
        }
    } else {
        for (i = 0; i < m; i++) {
            double own = lb[i];
            double t = b_loc[i] - mv[i];
            t = dinv_loc[i] * t;
            double p = own + t;
            double d = own - mom_prev[i];
            d = beta * d;
            pend[i] = p + d;
            mom_prev[i] = own;
        }
    }
}

/* One block commit with incremental-residual maintenance, bit-identical
 * to:  dx = pend - own;  x[rows] = pend;  plan.apply(r_vec, dx)
 * where plan.apply is the ColumnScatterPlan: per-entry products
 * vals[k] * dx[rep_idx[k]] accumulated per local row in storage order,
 * then one full-span subtract from r_vec[base:base+span] (untouched rows
 * subtract 0.0 — an IEEE no-op, exactly like the NumPy bincount path).
 * binc is a caller-owned zeroed scratch of length span; it is re-zeroed
 * before returning. pn == 0 skips the residual update entirely (matching
 * plan.apply's empty-plan early return / residual_mode="full"). */
void repro_commit_rank(int64_t m, const int64_t *rows,
                       double *x, const double *own, double *dx,
                       int64_t pn, const int64_t *rep_idx,
                       const int64_t *local, const double *vals,
                       int64_t base, int64_t span, double *binc,
                       const double *pend, double *r_vec)
{
    int64_t i, k;
    for (i = 0; i < m; i++)
        dx[i] = pend[i] - own[i];
    for (i = 0; i < m; i++)
        x[rows[i]] = pend[i];
    if (pn > 0) {
        for (k = 0; k < pn; k++) {
            double s = vals[k] * dx[rep_idx[k]];
            binc[local[k]] += s;
        }
        for (i = 0; i < span; i++)
            r_vec[base + i] -= binc[i];
        memset(binc, 0, (size_t) span * sizeof(double));
    }
}

/* Batch relax + commit: the turbo timeline engine's inner block relax.
 * Processes batch members in admission (cursor) order; members are
 * distinct ranks relaxing disjoint x rows, so the sequential per-member
 * loop is bitwise the batched NumPy phases (per-row bin accumulation
 * order and the elementwise chain are member-local either way). Per-rank
 * arrays arrive as uint64 pointer tables indexed by rank id. pend_cat
 * receives the members' pending values back to back, and each member's
 * rows are committed to x before the next member relaxes (the turbo
 * order is final, and observation can only strike after the last
 * member).
 *
 * scatter != 0: also apply the incremental-residual scatter per member,
 *               staging dx in lb[:m] after the own values are consumed
 *               (the next use of lb[:m] is the next relax's own-row
 *               gather).
 * scatter == 0: commit only (residual_mode="full"). */
void repro_relax_batch(int64_t nb, const int64_t *members, int64_t scatter,
                       double *x, double *r_vec, double *pend_cat,
                       const int64_t *m_tab, const int64_t *nnz_tab,
                       const uint64_t *rows_tab, const uint64_t *lb_tab,
                       const uint64_t *data_tab, const uint64_t *idx_tab,
                       const uint64_t *rowid_tab,
                       const uint64_t *b_tab, const uint64_t *dinv_tab,
                       const int64_t *pn_tab, const uint64_t *rep_tab,
                       const uint64_t *loc_tab, const uint64_t *val_tab,
                       const int64_t *base_tab, const int64_t *span_tab,
                       const uint64_t *binc_tab)
{
    int64_t bi, i, k, off = 0;
    for (bi = 0; bi < nb; bi++) {
        int64_t r = members[bi];
        int64_t m = m_tab[r], nnz = nnz_tab[r];
        const int64_t *rows = (const int64_t *) rows_tab[r];
        double *lb = (double *) lb_tab[r];
        const double *data = (const double *) data_tab[r];
        const int64_t *indices = (const int64_t *) idx_tab[r];
        const int64_t *rowid = (const int64_t *) rowid_tab[r];
        const double *b_loc = (const double *) b_tab[r];
        const double *dinv_loc = (const double *) dinv_tab[r];
        double *pend = pend_cat + off;
        for (i = 0; i < m; i++)
            lb[i] = x[rows[i]];
        for (i = 0; i < m; i++)
            pend[i] = 0.0;
        for (k = 0; k < nnz; k++) {
            double g = data[k] * lb[indices[k]];
            pend[rowid[k]] += g;
        }
        for (i = 0; i < m; i++) {
            double t = b_loc[i] - pend[i];
            t = dinv_loc[i] * t;
            pend[i] = lb[i] + t;
        }
        if (scatter) {
            for (i = 0; i < m; i++) {
                double d = pend[i] - lb[i];
                x[rows[i]] = pend[i];
                lb[i] = d; /* stage dx where own just lived */
            }
            int64_t pn = pn_tab[r];
            if (pn > 0) {
                const int64_t *rep = (const int64_t *) rep_tab[r];
                const int64_t *loc = (const int64_t *) loc_tab[r];
                const double *vals = (const double *) val_tab[r];
                double *binc = (double *) binc_tab[r];
                int64_t base = base_tab[r], span = span_tab[r];
                for (k = 0; k < pn; k++) {
                    double s = vals[k] * lb[rep[k]];
                    binc[loc[k]] += s;
                }
                for (i = 0; i < span; i++)
                    r_vec[base + i] -= binc[i];
                memset(binc, 0, (size_t) span * sizeof(double));
            }
        } else {
            for (i = 0; i < m; i++)
                x[rows[i]] = pend[i];
        }
        off += m;
    }
}
"""

#: Compile flags. ``-ffp-contract=off`` is load-bearing: contraction into
#: FMAs would round the relax chain differently from NumPy's separate
#: multiply/add kernels and break the bit-identity contract.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_PFX = "repro_native_"

# Module-level probe cache: (attempted, NativeKernels-or-None).
_cache: list = [False, None]


class NativeBuildError(RuntimeError):
    """Compilation of the native kernel library failed."""


class NativeKernels:
    """A loaded native kernel library plus its build provenance."""

    __slots__ = ("lib", "path", "build_ms", "relax_rank", "commit_rank",
                 "relax_batch")

    def __init__(self, lib: ctypes.CDLL, path: Path, build_ms: float):
        self.lib = lib
        self.path = path
        #: Wall-clock milliseconds spent compiling *in this process*
        #: (0.0 when the content-hash cache already held the library).
        self.build_ms = build_ms
        i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        fn = lib.repro_relax_rank
        fn.restype = None
        fn.argtypes = [i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                       ptr, ptr, dbl, ptr]
        self.relax_rank = fn
        fn = lib.repro_commit_rank
        fn.restype = None
        fn.argtypes = [i64, ptr, ptr, ptr, ptr, i64, ptr, ptr, ptr, i64,
                       i64, ptr, ptr, ptr]
        self.commit_rank = fn
        fn = lib.repro_relax_batch
        fn.restype = None
        fn.argtypes = [i64, ptr, i64, ptr, ptr, ptr] + [ptr] * 16
        self.relax_batch = fn


def _disabled() -> bool:
    return os.environ.get("REPRO_NO_NATIVE", "") not in ("", "0")


def cache_dir() -> Path:
    """The build-cache directory (honors ``REPRO_NATIVE_DIR``)."""
    env = os.environ.get("REPRO_NATIVE_DIR", "")
    if env:
        return Path(env)
    try:
        home = Path.home()
    except (RuntimeError, OSError):  # no resolvable home: shared tempdir
        return Path(tempfile.gettempdir()) / "repro_native"
    return home / ".cache" / "repro_native"


def _compiler() -> str | None:
    cc = os.environ.get("CC") or "cc"
    return shutil.which(cc)


def source_hash() -> str:
    """Content hash naming the compiled library (source + flags)."""
    h = hashlib.sha256()
    h.update(_C_SOURCE.encode())
    h.update(" ".join(_CFLAGS).encode())
    return h.hexdigest()[:16]


def _build(cc: str, directory: Path) -> Path:
    """Compile into the cache dir; atomic rename makes races benign."""
    directory.mkdir(parents=True, exist_ok=True)
    out = directory / f"{_PFX}{source_hash()}.so"
    if out.exists():
        return out
    src = directory / f"{_PFX}{source_hash()}.c"
    src.write_text(_C_SOURCE)
    tmp = directory / f"{_PFX}{source_hash()}.{os.getpid()}.tmp.so"
    cmd = [cc, *_CFLAGS, str(src), "-o", str(tmp)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    log = directory / "build.log"
    log.write_text(
        f"$ {' '.join(cmd)}\nexit {proc.returncode}\n"
        f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}\n"
    )
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise NativeBuildError(
            f"cc failed (exit {proc.returncode}); see {log}"
        )
    os.replace(tmp, out)
    return out


def native_kernels() -> NativeKernels | None:
    """The process-wide kernel library, or ``None`` when unavailable.

    First call probes the toolchain and compiles (or cache-loads) the
    library; later calls return the memoized result. Every failure mode —
    ``REPRO_NO_NATIVE`` set, no compiler on PATH, compilation or load
    error — yields ``None`` so callers degrade to the NumPy backends.
    """
    if _cache[0]:
        return _cache[1]
    _cache[0] = True
    _cache[1] = None
    if _disabled():
        return None
    cc = _compiler()
    if cc is None:
        return None
    try:
        t0 = time.perf_counter()
        path = cache_dir() / f"{_PFX}{source_hash()}.so"
        build_ms = 0.0
        if not path.exists():
            path = _build(cc, cache_dir())
            build_ms = (time.perf_counter() - t0) * 1e3
        lib = ctypes.CDLL(str(path))
        _cache[1] = NativeKernels(lib, path, build_ms)
    except (NativeBuildError, OSError):
        _cache[1] = None
    return _cache[1]


def native_available() -> bool:
    """Cheap probe: can ``relax_backend="native"`` actually run here?"""
    return native_kernels() is not None


def build_info() -> dict:
    """Provenance for logs/CI artifacts (never raises)."""
    k = native_kernels()
    return {
        "available": k is not None,
        "disabled": _disabled(),
        "compiler": _compiler(),
        "cache_dir": str(cache_dir()),
        "source_hash": source_hash(),
        "library": str(k.path) if k is not None else None,
        "build_ms": k.build_ms if k is not None else None,
    }


def _reset_probe_cache() -> None:
    """Forget the memoized probe (tests flip env knobs between calls)."""
    _cache[0] = False
    _cache[1] = None
