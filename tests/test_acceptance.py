"""Acceptance suite: one test per criterion, one printed line per verdict.

Every check is exact (integer or rational); runtime budgets are asserted
where the criterion states one.
"""

import random
import sys
import time
from fractions import Fraction
from itertools import product

from splfr.audit import AuditConfig, audit_privacy, audit_security
from splfr.engine import (
    Library,
    Mode,
    Randomness,
    decode,
    deliver,
    measure,
    place,
    update_round,
)
from splfr.field import FieldContext
from splfr.pda import (
    STAR,
    man_pda,
    symbol_count_bound,
    validate,
)
from splfr.tradeoff import (
    smooth_bound_ratio_max,
    simple_converse_ratio_max,
    coded_uncoded_ratio_max,
    coded_uncoded_threshold,
    man_points,
    pda_lower_bound,
    ratio_checks,
    scheme_curve,
)

from oracle import (
    min_subpacketization,
    privacy_key,
    restrict_corners,
    split,
    subpacketization_compare,
)

GF2 = FieldContext.prime(2)

TOY_GRID = (
    (STAR, 1, 2),
    (1, STAR, 3),
    (2, 3, STAR),
)


def verdict(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
        sys.stdout.flush()
    assert ok, line


def test_01_toy_walkthrough_replication(capsys):
    start = time.monotonic()
    arr = validate(TOY_GRID)
    n, b = 4, 3
    rng = random.Random(7)
    library = Library.random(GF2, n, b, rng)
    randomness = Randomness.generate(arr, n, b, GF2, rng)
    state = place(arr, library, randomness, Mode.SPLFR)

    ok = arr.parameters == (3, 3, 1, 3)
    meas = measure(state)
    ok = ok and (meas.m_exact, meas.r_asymptotic) == (2, 1)

    # structural cache check: user k holds the uncoded packets of its
    # starred row and, per remaining row, the sum of the matching security
    # key and its own privacy key
    packets = [split(f, 3) for f in library.files]
    for k in range(3):
        cache = state.caches[k]
        ok = ok and set(cache.uncoded) == {k}
        ok = ok and cache.uncoded.get(k) == tuple(packets[nn][k] for nn in range(n))
        ok = ok and set(cache.coded) == set(range(3)) - {k}
        for i, block in cache.coded.items():
            entry = arr.entries[i][k]
            t_block = privacy_key(library, arr, randomness.privacy_vectors[k], i)
            ok = ok and block == GF2.vec_add(
                randomness.security_keys[entry - 1], t_block
            )

    tuples = 0
    vectors = list(product(range(2), repeat=n))
    for demands in product(vectors, repeat=3):
        payload = deliver(state, demands)
        tuples += 1
        for k in range(3):
            got = decode(state.user_view(k), payload, demands[k])
            if got != library.combine(demands[k]):
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and tuples == 4096 and elapsed < 1.0
    verdict(capsys, 1, "toy walkthrough", ok,
            f"(M,R)=(2,1), {tuples} demand tuples decoded, {elapsed:.2f}s")


def test_02_exhaustive_correctness(capsys):
    start = time.monotonic()
    draws = 0
    failures = 0
    for n, k, q in product((2, 3), (2, 3), (2, 3)):
        ctx = FieldContext.prime(q)
        for t in range(k + 1):
            arr = man_pda(k, t)
            b = arr.f
            for trial in range(36):
                seed = hash((n, k, q, t, trial)) & 0xFFFFFFFF
                rng = random.Random(seed)
                library = Library.random(ctx, n, b, rng)
                randomness = Randomness.generate(arr, n, b, ctx, rng)
                state = place(arr, library, randomness, Mode.SPLFR)
                demands = tuple(ctx.random_vector(n, rng) for _ in range(k))
                payload = deliver(state, demands)
                draws += 1
                for user in range(k):
                    got = decode(state.user_view(user), payload, demands[user])
                    if got != library.combine(demands[user]):
                        failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and draws >= 1000 and elapsed < 30.0
    verdict(capsys, 2, "exhaustive correctness", ok,
            f"{draws} draws, {failures} failures, {elapsed:.1f}s")


def test_03_security_audit(capsys):
    start = time.monotonic()
    arr = man_pda(2, 1)
    cfg = AuditConfig(pda=arr, n=2, b=2, ctx=GF2, mode=Mode.SPLFR)
    secure = audit_security(cfg)
    leaky = audit_security(AuditConfig(pda=arr, n=2, b=2, ctx=GF2, mode=Mode.LFR))
    elapsed = time.monotonic() - start
    ok = (
        secure.verdict
        and secure.atoms == 8192
        and secure.violations == 0
        and not leaky.verdict
        and leaky.counterexample is not None
        and elapsed < 5.0
    )
    verdict(capsys, 3, "security audit", ok,
            f"keyed: 0 violations over {secure.atoms} atoms; "
            f"unkeyed counterexample found, {elapsed:.2f}s")


def test_04_privacy_audit(capsys):
    start = time.monotonic()
    arr = man_pda(2, 1)
    cfg = AuditConfig(pda=arr, n=2, b=2, ctx=GF2, mode=Mode.SPLFR)
    subset_ok = all(
        audit_privacy(cfg, subset).verdict for subset in ([1], [2], [1, 2])
    )
    leaky = audit_privacy(
        AuditConfig(pda=arr, n=2, b=2, ctx=GF2, mode=Mode.SLFR), [1]
    )
    elapsed = time.monotonic() - start
    ok = subset_ok and not leaky.verdict and elapsed < 30.0
    verdict(capsys, 4, "privacy audit", ok,
            f"all subsets independent; unmasked demands leak "
            f"({leaky.violations} violations), {elapsed:.1f}s")


def test_05_converse_meets_corners(capsys):
    checked = 0
    ok = True
    for k in range(1, 21):
        for n in {2, k, 2 * k}:
            if n < 2:
                continue
            pts = man_points(n, k)
            for t in range(k + 1):
                if pda_lower_bound(n, k, pts[t].m) != pts[t].r:
                    ok = False
                checked += 1
    verdict(capsys, 5, "converse meets corners", ok, f"{checked} exact equalities")


def test_06_counting_bound_tightness(capsys):
    checked = 0
    ok = True
    for k in range(1, 13):
        for t in range(k + 1):
            arr = man_pda(k, t)
            bound, tight = symbol_count_bound(arr)
            if not (tight and arr.s == bound):
                ok = False
            if arr.f != min_subpacketization(k, t + 1):
                ok = False
            checked += 1
    verdict(capsys, 6, "counting bound tightness", ok,
            f"{checked} arrays tight with minimum row count")


def test_07_ratio_suite(capsys):
    start = time.monotonic()
    ok = True
    # (a) load times (M-1)/(N-M) stays at most 1
    for n, k in ((30, 10), (20, 20), (10, 30)):
        if simple_converse_ratio_max(n, k, per_unit=1000) > 1:
            ok = False
    # (b) coded over uncoded-optimum ratio, threshold by N - K
    for n in range(2, 21):
        for k in range(2, n + 1):
            if (n, k) == (2, 2):
                continue
            if coded_uncoded_ratio_max(n, k) > coded_uncoded_threshold(n, k):
                ok = False
    # (c) fewer files than users: ratio to the smooth bound stays under 8
    worst = Fraction(0)
    for n in range(3, 21):
        for k in range(n + 1, 41):
            worst = max(worst, smooth_bound_ratio_max(n, k, per_unit=25))
    if not worst < 8:
        ok = False
    # (d) two users, two files: the ratio to the cut-set bound peaks at 2
    report = ratio_checks(2, 2, per_unit=1000)
    if report["checks"]["ratio2"]["max"] != 2:
        ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    verdict(capsys, 7, "ratio suite", ok,
            f"worst under-8 ratio {float(worst):.4f}, {elapsed:.1f}s")


def test_08_curve_coincidences(capsys):
    n, k = 30, 10
    base = restrict_corners(scheme_curve("splfr", n, k), 1, n)
    same_high_n = all(
        restrict_corners(scheme_curve(scheme, n, k), 1, n) == base
        for scheme in ("seckey", "privkey-plfr", "privkey-pfr")
    )

    n, k = 10, 30
    threshold = 1 + Fraction((k - n + 1) * (n - 1), k)
    ok_threshold = threshold == Fraction(73, 10)
    lo = restrict_corners(scheme_curve("splfr", n, k), threshold, n)
    same_low_n = restrict_corners(
        scheme_curve("privkey-plfr", n, k), threshold, n
    ) == lo and len(lo) > 0
    ok = same_high_n and ok_threshold and same_low_n
    verdict(capsys, 8, "curve coincidences", ok,
            f"corner sets agree; low-file agreement from M={threshold}")


def test_09_subpacketization_identities(capsys):
    checked = 0
    ok = True
    for k in range(3, 13):
        for t in range(2, k):
            if k % t != 0:
                continue
            out = subpacketization_compare(k, t)
            if not (out["identity_ok"] and out["stirling_ok"]):
                ok = False
            checked += 1
    verdict(capsys, 9, "subpacketization identities", ok,
            f"{checked} (K, t) pairs, load identity and row-count inequality")


def test_10_multi_round_update(capsys):
    ctx = FieldContext.prime(3)
    arr = man_pda(3, 1)
    rng = random.Random(97)
    library = Library.random(ctx, 3, 6, rng)
    initial = Randomness.generate(arr, 3, 6, ctx, rng)
    state = place(arr, library, initial, Mode.SPLFR)

    accumulated = initial
    ok = True
    for _ in range(3):
        demands = tuple(ctx.random_vector(3, rng) for _ in range(3))
        payload = deliver(state, demands)
        for k in range(3):
            got = decode(state.user_view(k), payload, demands[k])
            if got != library.combine(demands[k]):
                ok = False
        fresh = tuple(ctx.random_vector(2, rng) for _ in range(arr.s))
        coeffs = tuple(ctx.random_element(rng) for _ in range(3))
        state = update_round(state, demands, fresh, coeffs)
        accumulated = Randomness(
            security_keys=tuple(
                ctx.vec_add(v, u)
                for v, u in zip(accumulated.security_keys, fresh)
            ),
            privacy_vectors=tuple(
                ctx.vec_add(p, ctx.vec_scale(c, d))
                for p, c, d in zip(
                    accumulated.privacy_vectors, coeffs, demands
                )
            ),
        )
        scratch = place(arr, library, accumulated, Mode.SPLFR)
        if state.caches != scratch.caches or state.randomness != scratch.randomness:
            ok = False
    verdict(capsys, 10, "multi-round update", ok,
            "3 rounds equal from-scratch placement with accumulated keys")
