import math

import numpy as np
import pytest

from speechq import labels as lb


class TestQuantize:
    def test_interval_arithmetic(self):
        cfg = lb.QuantizerConfig(100)
        assert lb.quantize(2.49, cfg) == 60  # interval (2.45, 2.50]

    def test_top_boundary_inclusive(self):
        cfg = lb.QuantizerConfig(100)
        assert lb.quantize(4.5, cfg) == 100

    def test_lower_boundary_clamps_to_class_one(self):
        cfg = lb.QuantizerConfig(100)
        assert lb.quantize(-0.5, cfg) == 1

    def test_exact_interval_edges(self):
        cfg = lb.QuantizerConfig(100)
        assert lb.quantize(2.50, cfg) == 60  # right edge belongs to the class
        assert lb.quantize(2.50 + 1e-6, cfg) == 61

    def test_out_of_range(self):
        cfg = lb.QuantizerConfig(100)
        for bad in (-0.51, 4.51, 7.0):
            with pytest.raises(ValueError, match="outside"):
                lb.quantize(bad, cfg)


class TestOneHot:
    def test_center_class(self):
        cfg = lb.QuantizerConfig(5)
        np.testing.assert_array_equal(lb.one_hot(3, cfg), [0, 0, 1, 0, 0])

    def test_first_class(self):
        cfg = lb.QuantizerConfig(5)
        np.testing.assert_array_equal(lb.one_hot(1, cfg), [1, 0, 0, 0, 0])

    def test_sums_to_one_for_all_classes(self):
        cfg = lb.QuantizerConfig(7)
        for nu in range(1, 8):
            assert lb.one_hot(nu, cfg).sum() == 1.0

    def test_requires_unpadded_config(self):
        with pytest.raises(ValueError, match="pad"):
            lb.one_hot(1, lb.QuantizerConfig(5, pad=2))


class TestSoftLabel:
    def test_centered_kernel(self):
        cfg = lb.QuantizerConfig(10, pad=2)
        p = lb.soft_label(5, cfg)
        assert p.shape == (14,)
        center = 4 + 2  # 0-based padded position of class 5
        np.testing.assert_allclose(p[center - 2 : center + 3], [0.1, 0.2, 0.4, 0.2, 0.1])
        assert np.all(p[: center - 2] == 0) and np.all(p[center + 3 :] == 0)

    def test_boundary_mass_lands_on_pad_classes(self):
        cfg = lb.QuantizerConfig(10, pad=2)
        p = lb.soft_label(1, cfg)
        np.testing.assert_allclose(p[:5], [0.1, 0.2, 0.4, 0.2, 0.1])
        assert math.fsum(p) == 1.0
        top = lb.soft_label(10, cfg)
        np.testing.assert_allclose(top[-5:], [0.1, 0.2, 0.4, 0.2, 0.1])

    def test_every_class_sums_to_one(self):
        cfg = lb.QuantizerConfig(10, pad=2)
        for nu in range(1, 11):
            assert math.fsum(lb.soft_label(nu, cfg)) == 1.0

    def test_needs_pad_two(self):
        with pytest.raises(ValueError, match="pad"):
            lb.soft_label(3, lb.QuantizerConfig(10, pad=0))


class TestTargets:
    """The padding alone picks the target kind: one-hot rows at pad 0, soft rows above."""

    SCORES = [-0.5, 0.7, 2.0, 4.5]

    def test_unpadded_quantizer_gives_one_hot_rows(self):
        cfg = lb.QuantizerConfig(10)
        want = np.stack([lb.one_hot(lb.quantize(s, cfg), cfg) for s in self.SCORES])
        np.testing.assert_array_equal(lb.targets(self.SCORES, cfg), want)

    def test_padded_quantizer_gives_soft_rows(self):
        cfg = lb.QuantizerConfig(10, pad=2)
        want = np.stack([lb.soft_label(lb.quantize(s, cfg), cfg) for s in self.SCORES])
        np.testing.assert_array_equal(lb.targets(self.SCORES, cfg), want)

    def test_pad_one_is_rejected(self):
        with pytest.raises(ValueError, match="soft labels need pad >= 2"):
            lb.targets([2.0], lb.QuantizerConfig(10, pad=1))


class TestDecodeMax:
    def test_midpoint_of_unpadded_class(self):
        # -0.5 + (50 - 1) * 0.05 + 0.05 / 2
        cfg = lb.QuantizerConfig(100)
        assert lb.decode_max(lb.one_hot(50, cfg), cfg) == pytest.approx(1.975, abs=1e-12)

    def test_one_hot_first_class_n5(self):
        cfg = lb.QuantizerConfig(5)
        assert lb.decode_max(lb.one_hot(1, cfg), cfg) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_ties_break_low(self):
        cfg = lb.QuantizerConfig(4)
        uniform = np.full(4, 0.25)
        assert lb.decode_max(uniform, cfg) == pytest.approx(0.125, abs=1e-12)

    def test_padded_argmax_clamps_into_range(self):
        cfg = lb.QuantizerConfig(10, pad=2)
        p = np.zeros(14)
        p[0] = 1.0  # lowest pad class, midpoint extrapolates below -0.5
        assert lb.decode_max(p, cfg) == -0.5


class TestDecodeExpect:
    def test_uniform_is_center_of_range(self):
        for n in (4, 100, 500):
            cfg = lb.QuantizerConfig(n)
            uniform = np.full(n, 1.0 / n)
            assert lb.decode_expect(uniform, cfg) == pytest.approx(2.0, abs=1e-9)

    def test_one_hot_matches_decode_max(self):
        cfg = lb.QuantizerConfig(17)
        for nu in (1, 5, 17):
            p = lb.one_hot(nu, cfg)
            assert lb.decode_expect(p, cfg) == pytest.approx(lb.decode_max(p, cfg), abs=1e-12)

    def test_two_class_example(self):
        cfg = lb.QuantizerConfig(2)
        assert lb.decode_expect(np.array([0.25, 0.75]), cfg) == pytest.approx(2.625, abs=1e-12)

    def test_rejects_invalid_distribution(self):
        cfg = lb.QuantizerConfig(4)
        with pytest.raises(ValueError, match="sums"):
            lb.decode_expect(np.array([0.5, 0.1, 0.1, 0.1]), cfg)


class TestProperties:
    def test_quantize_decode_consistency(self):
        # decode_max(one_hot(quantize(s))) stays within half a step of s
        cfg = lb.QuantizerConfig(100)
        rng = np.random.default_rng(12)
        scores = rng.uniform(-0.5, 4.5, size=10_000)
        half = cfg.step / 2
        for s in scores:
            decoded = lb.decode_max(lb.one_hot(lb.quantize(s, cfg), cfg), cfg)
            assert abs(decoded - s) <= half + 1e-12

    def test_soft_label_expectation_matches_midpoint_in_interior(self):
        cfg = lb.QuantizerConfig(10, pad=2)
        mids = cfg.midpoints()
        for nu in range(3, 9):  # kernel fully inside the unpadded classes
            expected = lb.decode_expect(lb.soft_label(nu, cfg), cfg)
            assert expected == pytest.approx(mids[nu - 1 + cfg.pad], abs=1e-12)

    def test_soft_label_boundary_bias_is_bounded(self):
        cfg = lb.QuantizerConfig(10, pad=2)
        mids = cfg.midpoints()
        for nu in (1, 2, 9, 10):
            expected = lb.decode_expect(lb.soft_label(nu, cfg), cfg)
            assert abs(expected - mids[nu - 1 + cfg.pad]) <= 2 * cfg.step

    def test_decoders_invariant_to_logit_shift(self):
        rng = np.random.default_rng(13)
        cfg = lb.QuantizerConfig(30)
        logits = rng.standard_normal(30)
        for shift in (0.0, 7.3, -250.0):
            shifted = logits + shift
            p = np.exp(shifted - shifted.max())
            p /= p.sum()
            if shift == 0.0:
                base_e = lb.decode_expect(p, cfg)
                base_m = lb.decode_max(p, cfg)
            else:
                assert lb.decode_expect(p, cfg) == pytest.approx(base_e, abs=1e-9)
                assert lb.decode_max(p, cfg) == pytest.approx(base_m, abs=1e-9)

    def test_expectation_monotone_under_upward_mass_shift(self):
        cfg = lb.QuantizerConfig(12)
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = rng.dirichlet(np.ones(12))
            lo, hi = sorted(rng.choice(12, size=2, replace=False))
            eps = min(p[lo], 0.2) * rng.uniform(0.1, 1.0)
            q = p.copy()
            q[lo] -= eps
            q[hi] += eps
            assert lb.decode_expect(q, cfg) >= lb.decode_expect(p, cfg) - 1e-12
