"""In-memory span recorder for the benchmark's traced runs.

``Tracer.installed()`` replaces each layer function named in ``LAYERS``
wherever the package binds it (``rank_lu.solve``, ``two_sided.spmv``,
``singpencil.solve_singular_full``, ...), so every call the pipeline makes
through a module attribute opens a span.  The originals are put back when
the block exits; the package itself is never edited.

A span is ``[name, start, end, parent, solve_id, note]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``solve_id`` the benchmark
operation it belongs to, and ``note`` a small dict of counts read from the
call's arguments or result (fill, border sizes, Krylov steps, bytes).
"""

import os
import sys
import time
from contextlib import contextmanager


def _lu_nnz(F):
    return int(F.L.nnz + F.U.nnz)


def _note_factor(args, out):
    return {"nnz_in": int(args[0].nnz), "nnz_lu": _lu_nnz(out),
            "border_rows": int(out.border_rows), "border_cols": int(out.border_cols),
            "detected_rank": int(out.detected_rank)}


def _note_solve(args, out):
    # one complex value (16 B) plus one index (8 B) per stored factor entry
    return {"bytes": 24 * _lu_nnz(args[0])}


def _note_arnoldi(args, out):
    return {"steps": int(out.steps), "breakdown": out.breakdown}


def _note_read(args, out):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (module, attribute, note extractor or None)
LAYERS = {
    "two_sided.solve_singular_full": ("singpencil.two_sided", "solve_singular_full", None),
    "bordered.regularize": ("singpencil.bordered", "regularize", None),
    "rank_lu.factor": ("singpencil.rank_lu", "factor", _note_factor),
    "rank_lu.solve": ("singpencil.rank_lu", "solve", _note_solve),
    "rank_lu.solve_adjoint": ("singpencil.rank_lu", "solve_adjoint", _note_solve),
    "sparse.spmv": ("singpencil.sparse", "spmv", None),
    "sparse.spmv_adjoint": ("singpencil.sparse", "spmv_adjoint", None),
    "sparse.two_norm_estimate": ("singpencil.sparse", "two_norm_estimate", None),
    "arnoldi.arnoldi_run": ("singpencil.arnoldi", "arnoldi_run", _note_arnoldi),
    "arnoldi.implicit_restart_infinity": ("singpencil.arnoldi", "implicit_restart_infinity", None),
    "arnoldi.ritz_pairs": ("singpencil.arnoldi", "ritz_pairs", None),
    "arnoldi.purify": ("singpencil.arnoldi", "purify", None),
    "dense.small_generalized_eig": ("singpencil.dense", "small_generalized_eig", None),
    "dense.hessenberg_eig": ("singpencil.dense", "hessenberg_eig", None),
    "dense.qr": ("singpencil.dense", "qr", None),
    "mmio.read_matrix_market": ("singpencil.mmio", "read_matrix_market", _note_read),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.solve_id = -1

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.solve_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of each layer function in the package's
        modules; restore the originals on exit."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "singpencil" or k.startswith("singpencil."))]
        restore = []
        try:
            for name, (modname, attr, note) in LAYERS.items():
                fn = getattr(sys.modules.get(modname), attr, None)
                if fn is None:
                    continue
                wrapped = self._wrap(name, fn, note)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            restore.append((mod, key, fn))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for mod, key, fn in reversed(restore):
                setattr(mod, key, fn)

    @contextmanager
    def root(self, name, solve_id):
        """Root span of one benchmark operation."""
        self.solve_id = solve_id
        span = [name, time.perf_counter(), 0.0, -1, solve_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def to_json(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "solve_id": s[4], "note": s[5]} for s in self.spans]


def self_times(spans):
    """Each span's duration minus the part of its interval that its direct
    children cover (their union, clipped to the span)."""
    children = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def check_self_time_sum(spans, selfs, rel_tol=1e-9):
    """Largest relative gap, over root spans, between the root's duration
    and the summed self time of every span under it.  The two agree only
    when each child lies inside its parent and siblings do not overlap;
    raises when the gap exceeds ``rel_tol``."""
    root_of = []
    for i, s in enumerate(spans):
        root_of.append(i if s[3] < 0 else root_of[s[3]])
    total = {}
    for i, r in enumerate(root_of):
        total[r] = total.get(r, 0.0) + selfs[i]
    worst = 0.0
    for r, t in total.items():
        dur = spans[r][2] - spans[r][1]
        worst = max(worst, abs(t - dur) / max(dur, 1e-12))
    if worst > rel_tol:
        raise AssertionError(f"self times do not add up to their root span: gap {worst:.3e}")
    return worst
