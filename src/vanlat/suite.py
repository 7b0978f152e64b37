"""Seeded verification runs behind ``vanlat verify``.

Seven structural identities are exercised round-robin over a budget of
random instances.  Every instance draws from the one ``random.Random(seed)``
of :func:`run_verification`, so instance ``k`` depends on every draw
before it: the instances are evaluated in order, and the report is
deterministic for a given (seed, count, rank bound).
"""

import random
from dataclasses import dataclass

from .conjugation import (GeneratedLevelError, generate_level,
                          signature_by_blocks)
from .gen import (flip_last_sign, level_with_cycles, random_braid_word,
                  random_icis_instance, random_lattice)
from .index import (IcisInstance, LevelData, sign_independence_check, gradient_index,
                    telescoped_index, level_index_sum, cycle_index_sum)
from .instfile import InstanceDocument, serialize_instance
from .lattice import SignVector
from .variation import (check_monodromy_relation, check_s_relation,
                        var_inverse_as_operator_after_braid)

CHECK_NAMES = (
    "s-relation",
    "monodromy-relation",
    "braid-invariance",
    "symmetric-nondegenerate",
    "block-form",
    "cycle-route-agreement",
    "telescoping",
)


@dataclass
class VerificationResult:
    ok: bool
    lines: list
    counterexample: str | None = None


def _single_level_doc(lat, conj):
    level = LevelData(0, lat, conj)
    inst = IcisInstance(lat.parity, 0, SignVector((1,)), (level,))
    return serialize_instance(InstanceDocument(inst))


def _check_instance(rng, name, rank_bound):
    """One random instance of family ``name``: ``(problem, witness)``, the
    problem ``None`` on a pass and the witness the instance file of a
    failure."""
    problem = witness = None
    if name in ("s-relation", "monodromy-relation"):
        parity = rng.choice((1, 2, 3, 4, 5))
        nu = rng.randint(0, rank_bound)
        lat = random_lattice(rng, nu, parity)
        check = (check_s_relation if name == "s-relation"
                 else check_monodromy_relation)
        problem = check(lat)
        if problem:
            witness = _single_level_doc(lat, None)
    elif name == "braid-invariance":
        parity = rng.choice((1, 2, 3, 4))
        nu = rng.randint(0, rank_bound)
        lat = random_lattice(rng, nu, parity)
        word = random_braid_word(rng, nu)
        problem = var_inverse_as_operator_after_braid(lat, word)
        if problem:
            witness = _single_level_doc(lat, None)
    elif name in ("symmetric-nondegenerate", "block-form"):
        # the generator has checked the level's consistency and block form
        parity = rng.choice((1, 2, 3, 4))
        analysis = generate_level(rng.randrange(2 ** 32), rank_bound, parity)
        lat, conj = analysis.lattice, analysis.conj
        if name == "symmetric-nondegenerate":
            try:
                analysis.signature  # raises on an asymmetric or degenerate form
                if analysis.form.det() not in (1, -1):
                    problem = "form not symmetric and unimodular"
            except (ValueError, AssertionError) as e:
                problem = str(e)
        elif analysis.signature.sgn != signature_by_blocks(lat, conj):
            problem = "signature disagrees with block closed form"
        if problem:
            witness = _single_level_doc(lat, conj)
    elif name == "cycle-route-agreement":
        parity = rng.choice((1, 3, 5))
        analysis = generate_level(rng.randrange(2 ** 32), rank_bound, parity)
        level = level_with_cycles(0, analysis, pad=rng.choice((0, 0, 1)))
        s = rng.choice((1, -1))
        t2 = level_index_sum(level, parity, s)
        try:
            t3 = cycle_index_sum(level, s)
            if t2 != t3:
                problem = "cycle route gives %d, thimble route %d" % (t3, t2)
        except ValueError as e:
            problem = str(e)
        if problem:
            witness = _single_level_doc(analysis.lattice, analysis.conj)
    else:  # telescoping, plus the matched sign-flip comparison
        n = rng.choice((1, 2, 3))
        p = rng.choice((0, 1, 2))
        inst = random_icis_instance(rng.randrange(2 ** 32), n, p,
                                    max(rank_bound, 0), real_only_level0=True)
        if telescoped_index(inst) != gradient_index(inst):
            problem = "telescoped recursion disagrees with closed formula"
        else:
            problem = sign_independence_check([inst, flip_last_sign(inst)])
        if problem:
            witness = serialize_instance(InstanceDocument(inst))
    return problem, witness


def run_verification(seed: int, count: int, rank_bound: int) -> VerificationResult:
    """Run ``count`` instances round-robin over the families; stop at the
    first failure, with its line and counterexample.  A generated level
    that fails its own check fails the family that drew it, with that
    level as the counterexample."""
    rng = random.Random(seed)
    passed = {name: 0 for name in CHECK_NAMES}
    lines = []
    for k in range(count):
        name = CHECK_NAMES[k % len(CHECK_NAMES)]
        try:
            problem, witness = _check_instance(rng, name, rank_bound)
        except GeneratedLevelError as e:
            problem, witness = str(e), _single_level_doc(e.lattice, e.conj)
        if problem:
            lines.append("FAIL %s (instance %d): %s" % (name, k, problem))
            return VerificationResult(False, lines, witness)
        passed[name] += 1
    for name in CHECK_NAMES:
        lines.append("%s: %d/%d ok" % (name, passed[name], passed[name]))
    lines.append("PASS (%d instances)" % count)
    return VerificationResult(True, lines)
