"""Tests for placement delivery arrays."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splfr.pda import (
    STAR,
    CollisionSameRowOrColumn,
    MissingStarPair,
    MissingSymbol,
    ParseError,
    PdaError,
    UnequalStarCount,
    man_pda,
    memory_load,
    parse_pda,
    regularity,
    render_pda,
    symbol_count_bound,
    validate,
)

from oracle import canonical_relabel, column_plans, lsub_parameters, min_subpacketization

TOY = (
    (STAR, 1, 2),
    (1, STAR, 3),
    (2, 3, STAR),
)

TOY_TEXT = """\
PDA K=3 F=3
* 1 2
1 * 3
2 3 *
"""


class TestValidate:
    def test_toy_grid(self):
        arr = validate(TOY)
        assert arr.parameters == (3, 3, 1, 3)

    def test_all_star_row(self):
        arr = validate([[STAR, STAR, STAR, STAR]])
        assert arr.parameters == (4, 1, 1, 0)

    def test_same_row_collision(self):
        with pytest.raises(CollisionSameRowOrColumn):
            validate([[1, 1], [STAR, STAR]])

    def test_same_column_collision(self):
        with pytest.raises(CollisionSameRowOrColumn):
            validate([[1, STAR], [1, 2], [STAR, 3]])

    def test_missing_star_pair(self):
        with pytest.raises(MissingStarPair):
            validate([[1, 2], [2, 1]])

    def test_missing_symbol(self):
        with pytest.raises(MissingSymbol):
            validate([[STAR, 2], [2, STAR]])

    def test_unequal_star_count(self):
        with pytest.raises(UnequalStarCount):
            validate([[STAR, 1], [1, STAR], [STAR, 2]])

    def test_empty_grid(self):
        with pytest.raises(PdaError):
            validate([])

    def test_ragged_grid(self):
        with pytest.raises(PdaError):
            validate([[STAR, 1], [1]])

    @pytest.mark.parametrize("symbol", [0, -1, 1.5, "a", True], ids=repr)
    def test_symbol_that_is_not_a_positive_int(self, symbol):
        with pytest.raises(PdaError):
            validate([[STAR, symbol], [symbol, STAR]])


class TestRegularity:
    def test_toy_is_2_regular(self):
        assert regularity(validate(TOY)) == 2

    def test_all_star_has_no_regularity(self):
        assert regularity(validate([[STAR, STAR]])) is None

    def test_man_4_2_is_3_regular(self):
        assert regularity(man_pda(4, 2)) == 3

    def test_irregular(self):
        arr = validate([[STAR, 1, 2], [1, STAR, STAR]])
        assert regularity(arr) is None


class TestManPda:
    def test_matches_toy_up_to_relabeling(self):
        assert canonical_relabel(man_pda(3, 1)) == canonical_relabel(validate(TOY))

    def test_t_equals_k_is_all_stars(self):
        arr = man_pda(5, 5)
        assert arr.parameters == (5, 1, 1, 0)
        assert all(e is STAR for row in arr.entries for e in row)

    def test_parameters_4_2(self):
        assert man_pda(4, 2).parameters == (4, 6, 3, 4)

    def test_t_zero(self):
        arr = man_pda(3, 0)
        assert arr.parameters == (3, 1, 0, 3)

    def test_t_out_of_range(self):
        with pytest.raises(PdaError):
            man_pda(3, 4)

    @pytest.mark.parametrize("k, t", [(-2, 0), (0, 0), (0, 1), (-1, -1)])
    def test_no_users_is_refused_before_t(self, k, t):
        with pytest.raises(PdaError, match=rf"^need K >= 1, got K={k}$"):
            man_pda(k, t)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_parameters_and_regularity_all_t(self, k):
        for t in range(k + 1):
            arr = man_pda(k, t)  # construction validates on the way out
            assert arr.parameters == (
                k,
                math.comb(k, t),
                math.comb(k - 1, t - 1) if t >= 1 else 0,
                math.comb(k, t + 1),
            )
            if t < k:
                assert regularity(arr) == t + 1


class TestSymbolPositions:
    def test_toy(self):
        arr = validate(TOY)
        assert arr.symbol_positions(1) == [(0, 1), (1, 0)]
        assert arr.symbol_positions(3) == [(1, 2), (2, 1)]

    def test_absent_symbol(self):
        arr = validate(TOY)
        assert arr.symbol_positions(0) == []
        assert arr.symbol_positions(4) == []

    def test_result_is_a_fresh_list(self):
        arr = validate(TOY)
        arr.symbol_positions(1).clear()
        assert arr.symbol_positions(1) == [(0, 1), (1, 0)]


class TestPlans:
    def test_toy(self):
        # column 0: row 0 starred, rows 1 and 2 of symbols 1 and 2, each
        # shared with one other user (1, then 2) at row 0, its one star row
        plan = validate(TOY).plans[0]
        assert plan.symbols == (0, 1) and plan.sharers == (1, 2)
        assert plan.cross == (((0, 0), (1, 0)),)
        assert plan.rows == ((0, 0), (1, 0), (1, 1))

    def test_a_symbol_that_occurs_once_has_no_cross_term(self):
        arr = parse_pda("PDA K=3 F=3\n* 1 2\n1 * 3\n4 5 *\n")
        plan = arr.plans[0]  # rows 1 and 2 hold symbols 1 and 4; 4 occurs once
        assert plan.sharers == (1,) and plan.cross == (((0, 0), None),)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_one_pass_is_the_column_by_column_build(self, k):
        # the plans from one pass over the index are those built column by
        # column, each row in order and each symbol looked up in the index
        for t in range(k + 1):
            arr = man_pda(k, t)
            assert arr.plans == column_plans(arr), t

    @pytest.mark.parametrize(
        "grid",
        [
            TOY,
            [[STAR, STAR, STAR, STAR]],
            [[STAR, STAR]],
            [[STAR, 1, 2], [1, STAR, STAR]],
            [[STAR, 1, 2], [1, STAR, 3], [4, 5, STAR]],
        ],
        ids=["toy", "all-star-row", "all-star-pair", "irregular", "loose"],
    )
    def test_one_pass_builds_each_array_here_as_column_by_column(self, grid):
        arr = validate(grid)
        assert arr.plans == column_plans(arr)

    def test_built_once_and_left_out_of_equality(self):
        arr, again = man_pda(4, 2), man_pda(4, 2)
        assert arr.plans is arr.plans and len(arr.plans) == arr.k
        assert arr == again and hash(arr) == hash(again) and repr(arr) == repr(again)
        assert "plans" not in repr(arr)


class TestMemoryLoad:
    def test_toy(self):
        assert memory_load(validate(TOY), 4) == (2, 1)

    def test_all_star(self):
        arr = validate([[STAR, STAR]])
        assert memory_load(arr, 7) == (7, 0)

    def test_man_formula(self):
        for k, t, n in [(4, 2, 5), (5, 3, 2), (6, 1, 10)]:
            m, r = memory_load(man_pda(k, t), n)
            assert m == 1 + Fraction(t * (n - 1), k)
            assert r == Fraction(k - t, t + 1)

    def test_needs_two_files(self):
        with pytest.raises(PdaError):
            memory_load(validate(TOY), 1)


class TestSymbolCountBound:
    def test_toy_tight(self):
        assert symbol_count_bound(validate(TOY)) == (3, True)

    def test_all_star(self):
        assert symbol_count_bound(validate([[STAR, STAR]])) == (0, True)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_man_always_tight(self, k):
        for t in range(k + 1):
            arr = man_pda(k, t)
            bound, tight = symbol_count_bound(arr)
            assert tight
            assert arr.s == bound

    def test_loose_case(self):
        # one star per column but rows unevenly loaded: S exceeds the bound
        arr = validate(
            [
                [STAR, 1, 2],
                [1, STAR, 3],
                [4, 5, STAR],
            ]
        )
        bound, tight = symbol_count_bound(arr)
        assert arr.s > bound
        assert not tight


class TestMinSubpacketization:
    def test_examples(self):
        assert min_subpacketization(3, 2) == 3
        assert min_subpacketization(4, 3) == 6
        assert min_subpacketization(5, 5) == 5  # g = K

    def test_degenerate_endpoints(self):
        assert min_subpacketization(4, 1) == 1
        assert min_subpacketization(4, 5) == 1

    def test_domain(self):
        with pytest.raises(PdaError):
            min_subpacketization(4, 6)
        with pytest.raises(PdaError):
            min_subpacketization(4, 0)


class TestLsubParameters:
    def test_k4_t2(self):
        mcoeff, r, f = lsub_parameters(4, 2)
        assert (mcoeff, r, f) == (Fraction(1, 2), 1, 2)

    def test_k6_t2(self):
        assert lsub_parameters(6, 2) == (Fraction(1, 3), 2, 3)

    def test_k6_t4(self):
        assert lsub_parameters(6, 4) == (Fraction(2, 3), Fraction(1, 2), 6)

    def test_divisibility_required(self):
        with pytest.raises(PdaError):
            lsub_parameters(7, 3)

    def test_range_required(self):
        with pytest.raises(PdaError):
            lsub_parameters(4, 1)


class TestTextFormat:
    def test_parse_toy(self):
        assert parse_pda(TOY_TEXT).parameters == (3, 3, 1, 3)

    def test_round_trip(self):
        for k, t in [(3, 1), (4, 2), (5, 0), (5, 5)]:
            arr = man_pda(k, t)
            assert parse_pda(render_pda(arr)) == arr

    def test_short_row(self):
        with pytest.raises(ParseError):
            parse_pda("PDA K=3 F=1\n* 1\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_pda("K=3 F=1\n* 1 2\n")

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_pda("PDA K=2 F=1\n* 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty input"),
            (" \n\t\n", "empty input"),
            ("PDA K=x F=1\n* 1\n", "bad header"),
            ("PDA K=2 F=1.0\n* 1\n", "bad header"),
            ("PDA F=1 F=1\n* 1\n", "bad header"),  # no K
            ("PDA K=2 G=1\n* 1\n", "bad header"),  # no F
            ("PDA K=3 F=2\n* 1 2\n", "expected 2 rows, got 1"),
            ("PDA K=3 F=1\n* 1 2\n1 * 3\n", "expected 1 rows, got 2"),
            # str.isdigit() takes ², ٣ and ３, and int() all but ²; render_pda
            # writes ASCII digits only
            ("PDA K=2 F=1\n* \u00b2\n", "bad token"),
            ("PDA K=2 F=1\n* \u0663\n", "bad token"),
            ("PDA K=2 F=1\n* \uff13\n", "bad token"),
            ("PDA K=\u0662 F=1\n* 1\n", "bad header"),
            ("PDA K=2 F=\uff11\n* 1\n", "bad header"),
            ("PDA K=+2 F=1\n* 1\n", "bad header"),
        ],
    )
    def test_malformed_file(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_pda(text)


entry_strategy = st.one_of(st.none(), st.integers(1, 3))
grid_strategy = st.integers(1, 4).flatmap(
    lambda k: st.lists(
        st.lists(entry_strategy, min_size=k, max_size=k), min_size=1, max_size=4
    )
)


@settings(max_examples=300)
@given(grid_strategy)
def test_fuzz_validate_consistency(grid):
    """Any grid either fails validation or satisfies the counting bound."""
    try:
        arr = validate(grid)
    except PdaError:
        return
    bound, tight = symbol_count_bound(arr)
    assert arr.s >= bound
    if tight:
        assert arr.s == bound
    g = regularity(arr)
    if g is not None and g >= 2:
        stars_per_row = {sum(1 for e in row if e is STAR) for row in arr.entries}
        if stars_per_row == {g - 1}:
            assert arr.f >= min_subpacketization(arr.k, g)


@settings(max_examples=200)
@given(grid_strategy)
def test_fuzz_symbol_positions_match_grid_scan(grid):
    try:
        arr = validate(grid)
    except PdaError:
        return
    for s in range(arr.s + 2):
        scan = [
            (i, j) for i, row in enumerate(arr.entries) for j, e in enumerate(row) if e == s
        ]
        assert arr.symbol_positions(s) == scan


@settings(max_examples=200)
@given(grid_strategy)
def test_fuzz_plans_match_the_column_by_column_build(grid):
    try:
        arr = validate(grid)
    except PdaError:
        return
    assert arr.plans == column_plans(arr)
