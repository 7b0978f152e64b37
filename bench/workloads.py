"""The three benchmark workloads, each driven through ``vanlat.cli.main``.

A workload builds its inputs from the benchmark seed in ``setup`` and
hands out operations.  An operation is a short list of CLI invocations
timed together, the number of work items they complete, and a check
against truth that the program under test does not compute.  Checks run
outside the timed window.
"""

import contextlib
import functools
import io
import random
from dataclasses import dataclass

import yaml

from vanlat import cli, conjugation
from vanlat.conjugation import MorseSpec, RealPoint, build_sigma
from vanlat.index import IcisInstance, LevelData
from vanlat.instfile import InstanceDocument, load_instance, serialize_instance
from vanlat.intmat import IntMatrix
from vanlat.lattice import SignVector, ThimbleLattice
from vanlat.oracle import index_1d


@dataclass
class Op:
    """CLI invocations timed as one unit of work, plus their check."""

    commands: list
    items: int
    check: object  # callable(list of (exit code, stdout)) -> problem or None


def run_command(argv):
    """Run one ``vanlat`` command in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


def _sub_seed(seed, i):
    return random.Random(seed * 1000003 + i).randrange(2 ** 31)


def write_input(path, doc):
    """Write an instance file and read it back, so a bad input fails set-up."""
    path.write_text(serialize_instance(doc), encoding="utf-8")
    load_instance(path)
    return str(path)


class Workload:
    """Defaults for the parts only some workloads have.

    Each workload sets ``op_wall_s``, the wall time one op takes on a
    2.1 GHz Xeon vCPU, which sizes a timed run.
    """

    def ops_for(self, seconds):
        """Number of ops in a timed run of about ``seconds``."""
        return max(1, round(seconds / self.op_wall_s))

    def probe(self):
        """Extra operations run after the timed loop, as callables."""
        return []

    def tolerates(self, exc):
        """Whether ``exc`` is a known defect, to be counted as a failed
        operation rather than a wrong output."""
        return False

    def max_entry_bits(self, state):
        """Largest entry bit length in the matrices the ops wrote."""
        return 0


# ---------------------------------------------------------------------------
# verify-r16
# ---------------------------------------------------------------------------

PROBE_SEED = 20240032
WARMUP_SEED = 20240001
# Start of the generator's attempt-budget error (ROADMAP item 4).
GENERATOR_BUDGET_ERROR = "consistent-instance search exhausted"


@dataclass
class VerifyWorkload(Workload):
    """Seeded identity suite at rank bound 16, plus a generator probe.

    One op is ``vanlat verify`` over ``count`` instances, a multiple of
    the seven families so every op covers each family equally.  The probe
    calls the generator at a rank bound it does not yet reach reliably,
    over a fixed seed list.  The generator's attempt-budget error, from
    the probe or from a verify op, counts as a failed operation; any
    other exception is a wrong output.
    """

    count: int = 35
    rank_bound: int = 16
    op_wall_s: float = 0.75
    probe_calls: int = 200
    probe_rank_bound: int = 32
    trace_ops: int = 8

    def setup(self, workdir, seed):
        # A warm-up verify pays lazy first-call costs before timing.  Its
        # seed is fixed, so set-up does the same work for every seed.
        code, out = run_command(["verify", "--seed", str(WARMUP_SEED),
                                 "--count", "14", "--rank-bound", "8"])
        if code != 0:
            raise RuntimeError("warm-up verify failed:\n" + out)
        return {"seed": seed}

    def op(self, state, i):
        seed = _sub_seed(state["seed"], i)
        want = "PASS (%d instances)" % self.count

        def check(results):
            code, out = results[0]
            last = out.strip().splitlines()[-1] if out.strip() else ""
            if code != 0 or last != want:
                return "verify seed %d: exit %s, last line %r" % (seed, code, last)
            return None
        return Op([["verify", "--seed", str(seed), "--count", str(self.count),
                     "--rank-bound", str(self.rank_bound)]], self.count, check)

    def probe(self):
        rng = random.Random(PROBE_SEED)
        seeds = [rng.randrange(2 ** 32) for _ in range(self.probe_calls)]
        return [functools.partial(self._generate, seed, 1 + k % 4)
                for k, seed in enumerate(seeds)]

    def _generate(self, seed, parity):
        # through the module, so the tracer sees the call
        conjugation.generate_consistent_instance(seed, self.probe_rank_bound, parity)

    def tolerates(self, exc):
        return isinstance(exc, RuntimeError) and str(exc).startswith(GENERATOR_BUDGET_ERROR)


# ---------------------------------------------------------------------------
# ak-r64
# ---------------------------------------------------------------------------

def ak_tower(k, sign):
    """Real morsification of ``x^(k+1)`` as a rank-``k`` level-0 instance.

    The k critical points alternate between maxima and minima along the
    line.  Maxima come first in the basis, then minima; the gram matrix
    is 2 on the diagonal and -1 between neighbours on the line; the
    conjugation is ``(-1)^m`` on the diagonal plus +1 at (max, min) for
    each line edge.  Returns the document and the number of maxima.
    """
    first_is_max = (k % 2 == 0) != (sign < 0)
    is_max = [(pos % 2 == 0) == first_is_max for pos in range(k)]
    order = ([p for p in range(k) if is_max[p]]
             + [p for p in range(k) if not is_max[p]])
    slot = {p: s for s, p in enumerate(order)}
    gram = [[2 if r == c else 0 for c in range(k)] for r in range(k)]
    upper = []
    for p in range(k - 1):
        a, b = slot[p], slot[p + 1]
        gram[a][b] = gram[b][a] = -1
        upper.append((a, b, 1) if is_max[p] else (b, a, 1))
    morse = MorseSpec(tuple(RealPoint(1 if is_max[p] else 0) for p in order))
    lat = ThimbleLattice(1, IntMatrix.from_rows(gram, width=k))
    level = LevelData(0, lat, build_sigma(morse, 1, upper))
    inst = IcisInstance(1, 0, SignVector((sign,)), (level,))
    return InstanceDocument(inst), sum(is_max)


@dataclass
class AkWorkload(Workload):
    """Validate, index and signature of the coupled A_k towers.

    One op runs ``validate``, ``compute --what index`` and ``compute
    --what signature`` on one tower.  The towers are fixed; the seed
    only picks which tower the op sequence starts from.
    """

    ks: tuple = (63, 64)
    op_wall_s: float = 5.0
    trace_ops = 4  # one op per tower

    def setup(self, workdir, seed):
        towers = []
        for k in self.ks:
            for sign in (1, -1):
                doc, n_max = ak_tower(k, sign)
                path = workdir / ("a%d_%s.vl" % (k, "pos" if sign > 0 else "neg"))
                towers.append((k, write_input(path, doc), n_max))
        return {"towers": towers, "offset": seed % len(towers)}

    def op(self, state, i):
        towers = state["towers"]
        k, path, n_max = towers[(state["offset"] + i) % len(towers)]
        n_min = k - n_max
        want_index = str(index_1d([0] * (k + 1) + [1]))
        want_sig = "(%d, %d, 0), sgn = %d" % (n_max, n_min, n_max - n_min)

        def check(results):
            (c1, o1), (c2, o2), (c3, o3) = results
            if c1 != 0 or o1.strip().splitlines()[-1:] != ["ok"]:
                return "A_%d validate: exit %s" % (k, c1)
            if c2 != 0 or o2.strip() != want_index:
                return "A_%d index: exit %s, got %r, oracle %s" % (k, c2, o2.strip(), want_index)
            if c3 != 0 or o3.strip() != want_sig:
                return "A_%d signature: exit %s, got %r, want %r" % (k, c3, o3.strip(), want_sig)
            return None
        return Op([["validate", path],
                   ["compute", path, "--what", "index"],
                   ["compute", path, "--what", "signature"]], 3, check)


# ---------------------------------------------------------------------------
# braid-r64
# ---------------------------------------------------------------------------

MAX_ENTRY = 5
_INVERSE_KIND = {"a": "A", "A": "a", "f": "f"}


@dataclass
class BraidWorkload(Workload):
    """A seeded braid word and its inverse on random rank-``nu`` lattices.

    One op writes the lattice transformed by a word to a file, then
    applies the inverse word to that file; the round trip must give back
    the original gram matrix exactly.  Ops alternate between an odd
    (parity 1, symmetric) and an even (parity 2, skew) lattice.
    """

    nu: int = 64
    moves: int = 24
    op_wall_s: float = 5.5
    trace_ops = 2  # one op per parity

    def setup(self, workdir, seed):
        rng = random.Random(seed)
        lattices = []
        for parity in (1, 2):
            eps = 1 if parity == 1 else -1
            diag = 2 if parity == 1 else 0
            gram = [[diag if r == c else 0 for c in range(self.nu)]
                    for r in range(self.nu)]
            for r in range(self.nu):
                for c in range(r + 1, self.nu):
                    v = rng.randint(-MAX_ENTRY, MAX_ENTRY)
                    gram[r][c], gram[c][r] = v, eps * v
            lat = ThimbleLattice(parity, IntMatrix.from_rows(gram, width=self.nu))
            inst = IcisInstance(parity, 0, SignVector((1,)), (LevelData(0, lat),))
            path = write_input(workdir / ("lattice_p%d.vl" % parity),
                               InstanceDocument(inst))
            lattices.append((path, gram, str(workdir / ("moved_p%d.vl" % parity))))
        return {"seed": seed, "lattices": lattices, "max_bits": 0}

    def _word(self, seed):
        rng = random.Random(seed)
        moves = []
        for _ in range(self.moves):
            kind = rng.choice("aAf")
            moves.append((kind, rng.randint(1, self.nu if kind == "f" else self.nu - 1)))
        inverse = [(_INVERSE_KIND[kind], j) for kind, j in reversed(moves)]
        return (" ".join("%s%d" % m for m in moves),
                " ".join("%s%d" % m for m in inverse))

    def op(self, state, i):
        path, gram, moved = state["lattices"][i % 2]
        word, inverse = self._word(_sub_seed(state["seed"], i))

        def check(results):
            (c1, _), (c2, o2) = results
            if c1 != 0 or c2 != 0:
                return "braid exits %s, %s" % (c1, c2)
            back = yaml.safe_load(o2)["levels"][0]["gram"]
            if back != gram:
                return "round trip of '%s' changed the gram matrix" % word
            with open(moved, encoding="utf-8") as fh:
                mid = yaml.safe_load(fh)["levels"][0]["gram"]
            bits = max((abs(x).bit_length() for row in mid for x in row), default=0)
            state["max_bits"] = max(state["max_bits"], bits)
            return None
        return Op([["braid", path, word, "--output", moved],
                   ["braid", moved, inverse]], 2 * self.moves, check)

    def max_entry_bits(self, state):
        return state["max_bits"]


FULL = {
    "verify-r16": VerifyWorkload,
    "ak-r64": AkWorkload,
    "braid-r64": BraidWorkload,
}

# Tiny sizes used by the smoke test.
TINY = {
    "verify-r16": lambda: VerifyWorkload(count=7, rank_bound=4, op_wall_s=0.05,
                                         probe_calls=8, probe_rank_bound=8,
                                         trace_ops=1),
    "ak-r64": lambda: AkWorkload(ks=(5, 6), op_wall_s=0.05),
    "braid-r64": lambda: BraidWorkload(nu=8, moves=6, op_wall_s=0.05),
}
