"""Span tracing of the vanlat layers, done entirely from outside ``src/``.

A :class:`Tracer` replaces the public functions of each ``vanlat`` module
with timing wrappers while it is active.  Modules bind names such as
``from .basis import monodromy`` into their own namespaces, so a name is
rebound in every loaded ``vanlat`` module that holds the same object, not
only in the module that defines it.  Methods of ``IntMatrix`` are replaced
on the class.  Everything is restored when the tracer exits.

Each call records a span: name, parent span, start and end, in process
CPU time like every benchmark time.  Spans stay in memory;
:meth:`Tracer.write` writes them out as CSV.  A span's self time is its
duration minus the durations of its direct children; children of a span
never overlap because the program is single threaded.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

# Layer name -> wrapped public callables, as "module:attribute" or
# "module:Class.method".
LAYERS = {
    "intmat.mul": ["vanlat.intmat:IntMatrix.__mul__"],
    "intmat.construct": ["vanlat.intmat:IntMatrix.__init__"],
    "intmat.det": ["vanlat.intmat:IntMatrix.det"],
    "intmat.inverse": ["vanlat.intmat:IntMatrix.unimodular_inverse"],
    "basis.monodromy": ["vanlat.basis:monodromy"],
    "basis.move": ["vanlat.basis:braid_alpha", "vanlat.basis:braid_alpha_inverse",
                   "vanlat.basis:orientation_flip"],
    "basis.word": ["vanlat.basis:apply_braid_word"],
    "conjugation.generate": ["vanlat.conjugation:generate_consistent_instance"],
    "conjugation.sigma_tilde": ["vanlat.conjugation:derive_sigma_tilde"],
    "conjugation.build_sigma": ["vanlat.conjugation:build_sigma"],
    "signature.exact": ["vanlat.signature:exact_signature"],
    "index.level_sum": ["vanlat.index:level_index_sum"],
    "variation.var_inverse": ["vanlat.variation:var_inverse"],
    "variation.var": ["vanlat.variation:var"],
    "variation.checks": ["vanlat.variation:check_s_relation",
                         "vanlat.variation:check_monodromy_relation",
                         "vanlat.variation:var_inverse_as_operator_after_braid"],
    "lattice.validate": ["vanlat.lattice:validate_lattice"],
    "instfile.parse": ["vanlat.instfile:parse_instance_text"],
    "instfile.serialize": ["vanlat.instfile:serialize_instance"],
    "gen.random_lattice": ["vanlat.gen:random_lattice"],
    "gen.random_icis": ["vanlat.gen:random_icis_instance"],
}

# The CLI entry point, wrapped too so that each command is one span tree;
# a lattice counts as distinct per command.
ROOT = ("cli.main", "vanlat.cli:main")


def _lattice_key(args, kwargs):
    """Key of the lattice a ``monodromy`` call was given."""
    lat = args[0] if args else kwargs["lat"]
    return lat.parity, lat.gram.rows


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Context manager that records spans of every wrapped vanlat call.

    It may be entered again after it exits; spans accumulate.
    """

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.failed = []
        self.notes = {}
        self._stack = []
        self._restore = []
        self._t0 = None

    # -- spans ---------------------------------------------------------------

    def span(self, name, note=None):
        """Open a span; returns a callable that closes it."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.failed.append(False)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.process_time())

        def close(failed=False):
            self.ends[idx] = time.process_time()
            self._stack.pop()
            self.failed[idx] = failed
            if note is not None:
                self.notes[idx] = note
        return close

    def _wrapper(self, name, fn, note_of):
        def wrapped(*args, **kwargs):
            note = note_of(args, kwargs) if note_of else None
            close = self.span(name, note)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                close(failed=True)
                raise
            close()
            return out
        return functools.wraps(fn)(wrapped)

    # -- install / restore ---------------------------------------------------

    def __enter__(self):
        vanlat_modules = [m for n, m in list(sys.modules.items())
                          if m is not None and (n == "vanlat" or n.startswith("vanlat."))]
        targets = [(name, t) for name, ts in LAYERS.items() for t in ts] + [ROOT]
        for name, target in targets:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            note_of = _lattice_key if name == "basis.monodromy" else None
            wrapped = self._wrapper(name, original, note_of)
            sites = [owner] if isinstance(owner, type) else vanlat_modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._restore.append((site, key, original))
                        setattr(site, key, wrapped)
        if self._t0 is None:
            self._t0 = time.process_time()
        return self

    def __exit__(self, *exc):
        for site, key, original in reversed(self._restore):
            setattr(site, key, original)
        self._restore.clear()
        return False

    # -- analysis ------------------------------------------------------------

    def _durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def _has_ancestor(self, idx, names):
        p = self.parents[idx]
        while p >= 0:
            if self.names[p] in names:
                return True
            p = self.parents[p]
        return False

    def _root(self, idx):
        while self.parents[idx] >= 0:
            idx = self.parents[idx]
        return idx

    def layer_metrics(self):
        """Per-layer ``.calls``, self time ``.s`` and the exact waste ratios."""
        dur = self._durations()
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        calls = Counter(self.names)
        self_s = defaultdict(float)
        for i, name in enumerate(self.names):
            self_s[name] += dur[i] - child[i]
        out = {}
        for name in LAYERS:
            out[name + ".calls"] = (calls[name], "count")
            out[name + ".s"] = (self_s[name], "s")

        idx_of = defaultdict(list)
        for i, name in enumerate(self.names):
            idx_of[name].append(i)
        gen = idx_of["conjugation.generate"]
        gen_failed = sum(self.failed[i] for i in gen)
        out["conjugation.generate.failed"] = (gen_failed, "count")
        builds = sum(self._has_ancestor(i, {"conjugation.generate"})
                     for i in idx_of["conjugation.build_sigma"])
        made = len(gen) - gen_failed
        out["conjugation.generate.builds_per_instance"] = (
            builds / made if made else 0, "ratio")

        moves = calls["basis.move"]
        dets = sum(self._has_ancestor(i, {"basis.move", "basis.word"})
                   for i in idx_of["intmat.det"])
        out["intmat.det.per_move"] = (dets / moves if moves else 0, "ratio")

        mono = idx_of["basis.monodromy"]
        distinct = {(self._root(i), self.notes[i]) for i in mono}
        out["basis.monodromy.per_lattice"] = (
            len(mono) / len(distinct) if distinct else 0, "ratio")
        return out

    def write(self, path):
        """Write every span as CSV: id, parent, name, start, end, failed."""
        t0 = self._t0 or 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,failed\n")
            for i, name in enumerate(self.names):
                fh.write("%d,%d,%s,%.9f,%.9f,%d\n"
                         % (i, self.parents[i], name, self.starts[i] - t0,
                            self.ends[i] - t0, self.failed[i]))
