"""Command-line interface.

Subcommands: validate, compute, braid, verify, gen.  Exit codes: 0 on
success, 1 when a validation or verification fails, 2 for usage, file
and parse errors and refused requests.  All output is deterministic given
the arguments (and seed, where one applies).
"""

import argparse
import contextlib
import functools
import sys
from itertools import chain

from .basis import apply_braid_word, monodromy, parse_braid_word
from .index import (EvenParityError, IcisInstance, LevelData, gradient_index,
                    level_index_sum, cycle_index_sum)
from .instfile import (InstanceDocument, InstanceFormatError, load_instance,
                       serialize_instance)
from .gen import random_icis_instance
from .suite import run_verification
from .variation import var_inverse

MONODROMY_ORDER_BOUND = 24


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


def _emit(doc, path):
    """Stream the canonical text of ``doc`` to the file ``path``, or to
    stdout without one."""
    if not path:
        serialize_instance(doc, out=sys.stdout)
        return
    with _writing(path) as fh:
        serialize_instance(doc, out=fh)


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
        emit([(lv.i, str(level_index_sum(lv, inst.n, inst.sign_for_level(lv.i))))
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
    # a long word can grow entries past the digit limit of str(); its
    # ValueError must come before the first line is streamed, so that a
    # failed run writes nothing, and the largest entry tells
    str(max(map(abs, chain.from_iterable(
        row.values() if type(row) is dict else row
        for row in new_lat.gram.stored_rows)), default=0))
    _emit(out_doc, args.output)
    print("basis change: %s" % change.matrix,
          file=sys.stdout if args.output else sys.stderr)
    return 0


def cmd_verify(args):
    print("seed %d, count %d, rank bound %d"
          % (args.seed, args.count, args.rank_bound))
    result = run_verification(args.seed, args.count, args.rank_bound)
    for line in result.lines:
        print(line)
    if not result.ok:
        if result.counterexample:
            out = args.output or "counterexample.vl"
            with _writing(out) as fh:
                fh.write(result.counterexample)
            print("counterexample written to %s" % out)
        return 1
    return 0


def cmd_gen(args):
    inst = random_icis_instance(args.seed, args.n, args.levels,
                                args.rank_bound, with_cycles=True,
                                real_only_level0=True)
    doc = InstanceDocument(inst, (), {},
                           ("generated with seed %d" % args.seed,))
    _emit(doc, args.output)
    if args.output:
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
    p_ver.add_argument("--rank-bound", type=_non_negative, default=8)
    p_ver.add_argument("--output", default=None,
                       help="where to write a counterexample, if any")
    p_ver.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a consistent instance file")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--n", type=_non_negative, default=1)
    p_gen.add_argument("--levels", type=_non_negative, default=0, metavar="P",
                       help="codimension p (instance has p+1 levels)")
    p_gen.add_argument("--rank-bound", type=_non_negative, default=4)
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InstanceFormatError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    except Refusal as e:
        print(e, file=sys.stderr)
        return 2
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
