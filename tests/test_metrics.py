import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from speechq import metrics


def pearson_oracle(x, y):
    """Definitional Pearson correlation, no shortcuts shared with the implementation."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = (sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)) ** 0.5
    return num / den


def ranks_by_permutation_oracle(values):
    """Average rank via exhaustive comparison counts (O(n^2), ties averaged)."""
    values = list(values)
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(less + (equal + 1) / 2.0)
    return np.array(ranks)


class TestMse:
    def test_identical(self):
        assert metrics.mse_metric([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        x = np.arange(5, dtype=float)
        assert metrics.mse_metric(x + 0.1, x) == pytest.approx(0.01)

    def test_matches_definition_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a, b = rng.standard_normal(5), rng.standard_normal(5)
            oracle = sum((x - y) ** 2 for x, y in zip(a, b)) / 5
            assert metrics.mse_metric(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics.mse_metric([1.0], [1.0, 2.0])


class TestLcc:
    def test_positive_affine_invariance(self):
        truth = np.array([0.3, 1.8, 2.2, 4.1])
        assert metrics.lcc(2 * truth + 1, truth) == pytest.approx(1.0)

    def test_negation(self):
        truth = np.array([0.3, 1.8, 2.2, 4.1])
        assert metrics.lcc(-truth, truth) == pytest.approx(-1.0)

    def test_partial_swap_example(self):
        assert metrics.lcc([1, 3, 2, 4], [1, 2, 3, 4]) == pytest.approx(0.8)

    def test_matches_definitional_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.standard_normal(5), rng.standard_normal(5)
            assert metrics.lcc(a, b) == pytest.approx(pearson_oracle(a, b), abs=1e-12)

    def test_constant_vector_undefined(self):
        assert metrics.lcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
        assert metrics.srcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
        assert metrics.lcc([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) is None
        assert metrics.srcc([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) is None

    def test_single_pair_undefined(self):
        assert metrics.lcc([2.0], [2.5]) is None
        assert metrics.srcc([2.0], [2.5]) is None


class TestSrcc:
    def test_monotone_nonlinear_map_is_perfect(self):
        truth = np.array([0.5, 1.0, 2.5, 3.3, 4.0])
        assert metrics.srcc(np.exp(truth), truth) == pytest.approx(1.0)

    def test_reversed_order(self):
        truth = np.array([1.0, 2.0, 3.0, 4.0])
        assert metrics.srcc(truth[::-1].copy(), truth) == pytest.approx(-1.0)

    def test_partial_swap_example(self):
        assert metrics.srcc([1, 3, 2, 4], [1, 2, 3, 4]) == pytest.approx(0.8)

    def test_rank_invariance_under_random_monotone_maps(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            base = metrics.srcc(a, b)
            scale = rng.uniform(0.5, 3.0)
            transformed = np.exp(scale * a) + rng.uniform(0, 2)
            assert metrics.srcc(transformed, b) == pytest.approx(base, abs=1e-12)

    def test_tie_ranks_match_permutation_oracle_exhaustively(self):
        # All multisets over {0, 1, 2} up to n = 6.
        for n in range(2, 7):
            for values in itertools.product((0.0, 1.0, 2.0), repeat=n):
                got = metrics.rankdata(values)
                want = ranks_by_permutation_oracle(values)
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_tied_spearman_against_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = rng.integers(0, 3, size=6).astype(float)
            b = rng.integers(0, 4, size=6).astype(float)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue
            oracle = pearson_oracle(ranks_by_permutation_oracle(a), ranks_by_permutation_oracle(b))
            assert metrics.srcc(a, b) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("fn", [metrics.mse_metric, metrics.lcc, metrics.srcc, metrics.evaluate_scores])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("side", ["pred", "truth"])
def test_non_finite_scores_rejected(fn, bad, side):
    good, odd = [1.0, 2.0, 3.0], [bad, 2.0, 3.0]
    with pytest.raises(ValueError, match="finite"):
        fn(*((odd, good) if side == "pred" else (good, odd)))


@pytest.mark.parametrize("fn", [metrics.mse_metric, metrics.lcc, metrics.srcc, metrics.evaluate_scores])
def test_empty_or_unequal_vectors_rejected(fn):
    with pytest.raises(ValueError):
        fn([], [])
    with pytest.raises(ValueError):
        fn([1.0, 2.0], [1.0, 2.0, 3.0])


class TestFloatRange:
    """Finite scores far from the score range neither overflow nor underflow."""

    def test_huge_scores_correlate(self):
        assert metrics.lcc([1e200, -1e200, 0.0], [1.0, 2.0, 3.0]) == pytest.approx(-0.5, abs=1e-15)

    def test_huge_scores_against_constant_truth_are_undefined(self):
        assert metrics.lcc([1e200, -1e200, 0.0], [1.0, 1.0, 1.0]) is None

    def test_tiny_scores_correlate(self):
        assert metrics.lcc([1e-200, -1e-200, 0.0], [1.0, 2.0, 3.0]) == pytest.approx(-0.5, abs=1e-15)

    def test_scores_near_the_float_maximum_correlate(self):
        assert metrics.lcc([1.7e308, 1.7e308, 0.0], [1.0, 2.0, 3.0]) == pytest.approx(-(3**0.5) / 2, abs=1e-15)

    def test_mse_is_infinite_only_past_the_float_range(self):
        # The exact mean of the squares, rounded once: 1.125e308 to within an ulp.
        assert metrics.mse_metric([1.5e154, 0.0], [0.0, 0.0]) == float(Fraction(1.5e154) ** 2 / 2)
        with np.errstate(over="ignore"):
            assert metrics.mse_metric([1e308, -1e308], [-1e308, 1e308]) == np.inf


def unscaled_lcc(pred, truth):
    """lcc's formula without the power-of-two scaling."""
    a, b = pred - pred.mean(), truth - truth.mean()
    denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
    return None if denom == 0.0 else float(np.sum(a * b) / denom)


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 16).flatmap(lambda n: st.lists(st.floats(-0.5, 4.5), min_size=2 * n, max_size=2 * n)))
def test_scaling_keeps_the_bits_of_scores_in_range(values):
    pred, truth = np.array(values[::2]), np.array(values[1::2])
    # Below 2**-255 a square, or the product of two sums of squares, may leave the normal
    # float range, where the unscaled formulas lose bits that the scaled ones keep.
    spreads = (pred - truth, pred - pred.mean(), truth - truth.mean())
    assume(all(np.all((x == 0) | (np.abs(x) >= 2.0**-255)) for x in spreads))
    assert metrics.mse_metric(pred, truth) == float(np.mean((pred - truth) ** 2))
    want = unscaled_lcc(pred, truth)
    got = metrics.lcc(pred, truth)
    assert got is want is None or np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.integers(0, 4), max_size=12))
def test_rankdata_matches_scipy_average_ranks(values):
    from scipy import stats

    values = np.array(values, dtype=np.float64)
    np.testing.assert_array_equal(metrics.rankdata(values), stats.rankdata(values, method="average"))


class TestScipyOracle:
    """scipy.stats as a second, independent oracle, ties included."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(11)
        for n in (2, 3, 7, 50):
            yield rng.standard_normal(n), rng.standard_normal(n)
        for _ in range(40):  # few distinct values, so most vectors hold ties
            a = rng.integers(0, 3, size=8).astype(float)
            b = rng.integers(0, 4, size=8).astype(float)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue
            yield a, b

    def test_rankdata_matches_scipy(self):
        from scipy import stats

        for n in range(1, 7):
            for values in itertools.product((0.0, 1.0, 2.0), repeat=n):
                np.testing.assert_array_equal(metrics.rankdata(values), stats.rankdata(values))
        values = np.random.default_rng(12).integers(0, 20, size=200).astype(float)
        np.testing.assert_array_equal(metrics.rankdata(values), stats.rankdata(values))

    def test_lcc_matches_pearsonr(self):
        from scipy import stats

        for a, b in self.pairs():
            assert metrics.lcc(a, b) == pytest.approx(stats.pearsonr(a, b).statistic, abs=1e-12)

    def test_srcc_matches_spearmanr(self):
        from scipy import stats

        for a, b in self.pairs():
            assert metrics.srcc(a, b) == pytest.approx(stats.spearmanr(a, b).statistic, abs=1e-12)


class TestEvalReport:
    def test_single_entry_correlations_undefined(self):
        report = metrics.evaluate_scores([2.0], [2.5])
        assert report.mse == pytest.approx(0.25)
        assert report.lcc is None and report.srcc is None
        assert report.n == 1

    def test_constant_predictions_flagged_undefined(self):
        report = metrics.evaluate_scores([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert report.lcc is None and report.srcc is None

    def test_record_format(self):
        report = metrics.evaluate_scores([1.0, 2.0, 3.0], [1.0, 2.0, 3.5])
        record = report.to_record(decoder="expect")
        assert record.startswith("decoder=expect ")
        for key in ("mse=", "lcc=", "srcc=", "n=3"):
            assert key in record

    def test_record_reports_undefined(self):
        record = metrics.evaluate_scores([2.0], [2.5]).to_record()
        assert "lcc=undefined" in record and "srcc=undefined" in record
