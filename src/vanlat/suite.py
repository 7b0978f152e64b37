"""Seeded verification runs behind ``vanlat verify``.

Seven structural identities are exercised round-robin over a budget of
random instances.  Instance ``k`` of a run is instance ``j = k // 7`` of
family ``f = CHECK_NAMES[k % 7]``, and it draws from its own
``random.Random(f"{seed} {f} {j}")``, so no instance depends on another
and :func:`check_instance` checks any one of them alone.  CPython seeds
from a str through its SHA-512 digest, so the draws are the same on
every supported CPython and under any ``PYTHONHASHSEED``, and the report
is deterministic for a given (seed, count, rank bound).
"""

import random
from dataclasses import dataclass

from .conjugation import GeneratedLevelError, signature_by_blocks
from .gen import (flip_last_sign, generate_level, level_with_cycles,
                  random_braid_word, random_icis_instance, random_lattice)
from .index import (IcisInstance, LevelData, sign_independence_check, gradient_index,
                    telescoped_index, level_index_sum, cycle_index_sum)
from .instfile import InstanceDocument, serialize_instance
from .lattice import SignVector, diagonal_sign
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


def check_instance(seed: int, family: str, j: int, rank_bound: int):
    """Instance ``j`` of ``family`` in the run seeded ``seed``: ``(problem,
    witness)``, the problem ``None`` on a pass and the witness the
    instance file of a failure: the whole instance a family checked, else
    its one level, with the braid word it drew.  A generated level that
    fails its own check fails the family that drew it, with that level as
    the witness, and a cross-check that raises ``AssertionError`` fails
    the instance it checks."""
    rng = random.Random(f"{seed} {family} {j}")
    problem = conj = inst = None
    words = ()
    try:
        if family in ("s-relation", "monodromy-relation"):
            parity = rng.choice((1, 2, 3, 4, 5))
            lat = random_lattice(rng, rng.randint(0, rank_bound), parity)
            check = (check_s_relation if family == "s-relation"
                     else check_monodromy_relation)
            problem = check(lat)
        elif family == "braid-invariance":
            parity = rng.choice((1, 2, 3, 4))
            nu = rng.randint(0, rank_bound)
            lat = random_lattice(rng, nu, parity)
            word = random_braid_word(rng, nu)
            words = (word,)
            problem = var_inverse_as_operator_after_braid(lat, word)
        elif family in ("symmetric-nondegenerate", "block-form"):
            # the generator has checked the level's consistency and block form
            parity = rng.choice((1, 2, 3, 4))
            analysis = generate_level(rng.randrange(2 ** 32), rank_bound, parity)
            lat, conj = analysis.lattice, analysis.conj
            if family == "symmetric-nondegenerate":
                analysis.signature  # raises on an asymmetric or degenerate form
                if analysis.form.det() not in (1, -1):
                    problem = "form not symmetric and unimodular"
            elif analysis.signature.sgn != signature_by_blocks(lat, conj):
                problem = "signature disagrees with block closed form"
            elif analysis.signature.sgn != (diagonal_sign(parity)
                                            * sum(conj.sigma.diagonal())):
                problem = "signature disagrees with d * tr(sigma)"
        elif family == "cycle-route-agreement":
            parity = rng.choice((1, 3, 5))
            analysis = generate_level(rng.randrange(2 ** 32), rank_bound, parity)
            lat, conj = analysis.lattice, analysis.conj
            level = level_with_cycles(0, analysis, pad=rng.choice((0, 0, 1)))
            s = rng.choice((1, -1))
            inst = IcisInstance(parity, 0, SignVector((s,)), (level,))
            t2 = level_index_sum(level, s)
            try:
                t3 = cycle_index_sum(level, s)
                if t2 != t3:
                    problem = "cycle route gives %d, thimble route %d" % (t3, t2)
            except ValueError as e:
                problem = str(e)
        else:  # telescoping, plus the matched sign-flip comparison
            n = rng.choice((1, 2, 3))
            p = rng.choice((0, 1, 2))
            inst = random_icis_instance(rng.randrange(2 ** 32), n, p, rank_bound)
            if telescoped_index(inst) != gradient_index(inst):
                problem = "telescoped recursion disagrees with closed formula"
            else:
                problem = sign_independence_check([inst, flip_last_sign(inst)])
    except GeneratedLevelError as e:
        problem, lat, conj = str(e), e.lattice, e.conj
    except AssertionError as e:
        problem = str(e)
    if not problem:
        return None, None
    if inst is None:
        inst = IcisInstance(lat.parity, 0, SignVector((1,)), (LevelData(0, lat, conj),))
    return problem, serialize_instance(InstanceDocument(inst, words))


def run_verification(seed: int, count: int, rank_bound: int) -> VerificationResult:
    """Run ``count`` instances round-robin over the families, each by
    :func:`check_instance`; stop at the first failure, with its line and
    counterexample."""
    passed = {name: 0 for name in CHECK_NAMES}
    lines = []
    for k in range(count):
        name = CHECK_NAMES[k % len(CHECK_NAMES)]
        problem, witness = check_instance(seed, name, k // len(CHECK_NAMES),
                                          rank_bound)
        if problem:
            lines.append("FAIL %s (instance %d): %s" % (name, k, problem))
            return VerificationResult(False, lines, witness)
        passed[name] += 1
    for name in CHECK_NAMES:
        lines.append("%s: %d/%d ok" % (name, passed[name], passed[name]))
    lines.append("PASS (%d instances)" % count)
    return VerificationResult(True, lines)
