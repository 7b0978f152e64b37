"""Command-line interface.

Subcommands: validate, compute, braid, verify, gen.  Exit codes: 0 on
success, 1 when a validation, verification or cross-check fails or
memory runs out, 2 for usage, file and parse errors, refused requests
and a closed stdout.  All output is deterministic given the arguments
(and seed, where one applies).
"""

import argparse
import contextlib
import functools
import os
import sys

# only ``gen`` runs the generator, but bench/tracer.py finds the functions
# it wraps in sys.modules when a traced run starts, before any command has
# run, so the module is loaded with the CLI
from . import gen
from .basis import apply_braid_word, monodromy, parse_braid_word
from .index import (EvenParityError, IcisInstance, LevelData, gradient_index,
                    level_index_sum, cycle_index_sum)
from .instfile import (InstanceDocument, InstanceFormatError, load_instance,
                       serialize_instance)
from .variation import var_inverse

MONODROMY_ORDER_BOUND = 24

# The largest ``--rank-bound`` of ``gen`` and ``verify``: time and memory
# grow with the ranks drawn, the cube of the rank for a dense ``verify``
# instance's monodromy (FORMAT.md gives the measurements).
_RANK_BOUND_CEILING = 1000


class Refusal(Exception):
    """A request the CLI refuses: a file it cannot read or write, a level
    or move that does not exist, a malformed word or an undefined value.
    :func:`main` prints the message to stderr and exits with 2."""


def _load(path):
    try:
        return load_instance(path)
    except OSError:
        raise Refusal("cannot read %s" % path)


@contextlib.contextmanager
def _writing(path):
    """``path`` opened for writing text; an ``OSError`` from opening it or
    from any write in the block is reported as ``cannot write PATH``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError:
        raise Refusal("cannot write %s" % path)


def _level(inst, i):
    """Level ``i`` of ``inst``; a :class:`Refusal` when it has none."""
    if not 0 <= i <= inst.p:
        raise Refusal("no level %d in this instance (p = %d)" % (i, inst.p))
    return inst.levels[i]


def _monodromy_order(h):
    power, identity = h, h.identity(h.nrows)
    for k in range(1, MONODROMY_ORDER_BOUND + 1):
        if power == identity:
            return k
        power = power * h
    return None


def _non_negative(text):
    """argparse type for counts and bounds: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def cmd_validate(args):
    doc = _load(args.path)
    inst = doc.instance
    failures = 0
    for level in inst.levels:
        bad = level.lattice.violation
        if bad:
            print("level %d: FAIL lattice: %s" % (level.i, bad))
            failures += 1
            continue
        print("level %d: lattice ok (rank %d, parity %d)"
              % (level.i, level.lattice.nu, level.lattice.parity))
        if level.conj is None:
            print("level %d: no conjugation data" % level.i)
            continue
        bad = level.analysis.inconsistency
        if bad:
            print("level %d: FAIL conjugation: %s" % (level.i, bad))
            failures += 1
        else:
            print("level %d: conjugation ok (companion involution, "
                  "block lower triangular)" % level.i)
    for k, word in enumerate(doc.braid_words):
        top = inst.levels[0].lattice.nu
        bad = word.first_out_of_range(top)
        if bad:
            print("braid word %d: FAIL move %s out of range for rank %d"
                  % (k, bad, top))
            failures += 1
        else:
            print("braid word %d: ok (%s)" % (k, word))
    if failures:
        print("FAIL (%d %s)" % (failures, "problem" if failures == 1 else "problems"))
        return 1
    print("ok")
    return 0


def cmd_compute(args):
    doc = _load(args.path)
    inst = doc.instance
    levels = inst.levels
    if args.level is not None:
        levels = (_level(inst, args.level),)
    # a level the route reads that lacks its data is refused before any
    # value is computed; the cycle route refuses an even parity first
    if args.what in ("signature", "index", "level-sums", "cycle-sums"):
        data = "cycle" if args.what == "cycle-sums" else "conjugation"
        for lv in inst.levels if args.what == "index" else levels:
            if data == "cycle" and lv.lattice.parity % 2 == 0:
                break
            if (lv.cycles if data == "cycle" else lv.conj) is None:
                raise Refusal("refused: level %d carries no %s data" % (lv.i, data))

    def emit(rendered):
        if len(levels) == 1:
            print(rendered[0][1])
        else:
            for i, text in rendered:
                print("level %d: %s" % (i, text))

    if args.what == "var-inverse":
        emit([(lv.i, str(var_inverse(lv.lattice))) for lv in levels])
    elif args.what == "monodromy":
        hs = [monodromy(lv.lattice) for lv in levels]
        emit([(lv.i, str(h)) for lv, h in zip(levels, hs)])
        if len(levels) == 1:
            order = _monodromy_order(hs[0])
            if order is not None:
                print("verified: monodromy^%d = identity" % order)
            else:
                print("note: no finite order detected (bound %d)"
                      % MONODROMY_ORDER_BOUND)
    elif args.what == "signature":
        def render(lv):
            sig = lv.analysis.signature
            return "%s, sgn = %d" % (sig, sig.sgn)
        emit([(lv.i, render(lv)) for lv in levels])
    elif args.what == "level-sums":
        emit([(lv.i, str(level_index_sum(lv, inst.sign_for_level(lv.i))))
              for lv in levels])
    elif args.what == "cycle-sums":
        try:
            rendered = [(lv.i, str(cycle_index_sum(lv, inst.sign_for_level(lv.i))))
                        for lv in levels]
        except EvenParityError as e:
            raise Refusal("refused: %s\n(see README: the even-parity cone "
                          "example shows why no such formula can exist)" % e)
        emit(rendered)
    else:  # index
        print(gradient_index(inst))
    return 0


def cmd_braid(args):
    doc = _load(args.path)
    inst = doc.instance
    try:
        word = parse_braid_word(args.word)
    except ValueError as e:
        raise Refusal("malformed braid word: %s" % e)
    target = args.level
    level = _level(inst, target)
    lat = level.lattice
    bad = word.first_out_of_range(lat.nu)
    if bad:
        raise Refusal("move %s out of range for rank %d" % (bad, lat.nu))
    new_lat, change = apply_braid_word(lat, word)
    dropped = level.conj is not None or level.cycles is not None
    if dropped:
        print("note: dropping basis-bound conjugation/cycle data of level %d"
              % target, file=sys.stderr)
    new_level = LevelData(level.i, new_lat, None, None)
    new_levels = tuple(new_level if lv.i == target else lv
                       for lv in inst.levels)
    new_inst = IcisInstance(inst.n, inst.p, inst.signs, new_levels)
    prov = ["braid word '%s' applied to level %d" % (word, target)]
    if dropped:
        prov.append("conjugation/cycle data of level %d dropped" % target)
    out_doc = InstanceDocument(new_inst, doc.braid_words, doc.expected,
                               tuple(prov))
    # the whole text is made first: an entry past the digit limit of
    # str() raises its ValueError here, so a failed run writes nothing
    text = serialize_instance(out_doc)
    if args.output:
        with _writing(args.output) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print("basis change: %s" % change.matrix,
          file=sys.stdout if args.output else sys.stderr)
    return 0


def cmd_verify(args):
    from .suite import run_verification

    print("seed %d, count %d, rank bound %d"
          % (args.seed, args.count, args.rank_bound))
    result = run_verification(args.seed, args.count, args.rank_bound)
    for line in result.lines:
        print(line)
    if not result.ok:
        out = args.output or "counterexample.vl"
        with _writing(out) as fh:
            fh.write(result.counterexample)
        print("counterexample written to %s" % out)
        return 1
    return 0


def cmd_gen(args):
    inst = gen.random_icis_instance(args.seed, args.n, args.levels,
                                    args.rank_bound, with_cycles=True)
    doc = InstanceDocument(inst, (), {},
                           ("generated with seed %d" % args.seed,))
    if not args.output:
        serialize_instance(doc, out=sys.stdout)
        return 0
    with _writing(args.output) as fh:
        serialize_instance(doc, out=fh)
    print("wrote %s" % args.output)
    return 0


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="vanlat",
        description="Exact computations with lattices of thimbles: "
                    "distinguished bases, braid moves, variation operators, "
                    "conjugation data, and gradient index formulas.")
    sub = parser.add_subparsers(dest="command", required=True)
    rank_bound_help = ("largest rank drawn, at most %d: time and memory grow "
                       "with the rank" % _RANK_BOUND_CEILING)

    p_val = sub.add_parser("validate", help="check an instance file")
    p_val.add_argument("path")
    p_val.set_defaults(func=cmd_validate)

    p_comp = sub.add_parser("compute", help="print exact values")
    p_comp.add_argument("path")
    p_comp.add_argument("--what", required=True,
                        choices=["var-inverse", "monodromy", "signature",
                                 "index", "level-sums", "cycle-sums"])
    p_comp.add_argument("--level", type=int, default=None,
                        help="restrict to a single level")
    p_comp.set_defaults(func=cmd_compute)

    p_braid = sub.add_parser("braid", help="apply a braid word")
    p_braid.add_argument("path")
    p_braid.add_argument("word", help="tokens like 'a1 A2 f3'")
    p_braid.add_argument("--level", type=int, default=0)
    p_braid.add_argument("--output", default=None)
    p_braid.set_defaults(func=cmd_braid)

    p_ver = sub.add_parser("verify", help="run the seeded identity suite")
    p_ver.add_argument("--seed", type=int, default=20240001)
    p_ver.add_argument("--count", type=_non_negative, default=500)
    p_ver.add_argument("--rank-bound", type=_non_negative, default=8,
                       help=rank_bound_help)
    p_ver.add_argument("--output", default=None,
                       help="where to write a counterexample, if any")
    p_ver.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a consistent instance file")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--n", type=_non_negative, default=1)
    p_gen.add_argument("--levels", type=_non_negative, default=0, metavar="P",
                       help="codimension p (instance has p+1 levels)")
    p_gen.add_argument("--rank-bound", type=_non_negative, default=4,
                       help=rank_bound_help)
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "rank_bound", 0) > _RANK_BOUND_CEILING:  # before any draw
            raise Refusal("refused: --rank-bound %d is above the ceiling %d"
                          % (args.rank_bound, _RANK_BOUND_CEILING))
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here at the latest
        return code
    except BrokenPipeError:
        # whatever is still buffered goes to devnull, so that the
        # interpreter's last flush of stdout cannot raise again; where
        # stderr shares the closed pipe, its line goes there too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print("cannot write stdout", file=sys.stderr)
        except BrokenPipeError:
            os.dup2(devnull, sys.stderr.fileno())
        return 2
    except InstanceFormatError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    except Refusal as e:
        print(e, file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as e:  # bad input, or a failed cross-check
        print("error: %s" % e, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
