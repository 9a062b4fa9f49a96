import math

import numpy as np
import pytest

from speechq import diffcore as dc
from speechq import losses
from speechq.labels import QuantizerConfig, targets


def class_target(nu: int, cfg):
    """The one-hot target row of class nu: ``targets`` at the class's midpoint."""
    return targets([cfg.midpoints()[nu - 1]], cfg)[0]


def emd2_prefix_sum_oracle(p_hat, p):
    """Brute-force: accumulate both CDFs position by position."""
    acc_hat = acc = 0.0
    total = 0.0
    for a, b in zip(p_hat, p):
        acc_hat += a
        acc += b
        total += (acc_hat - acc) ** 2
    return total


class TestEmd2:
    def test_identical_distributions(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(11))
            assert float(losses.emd2(p, p).values) == pytest.approx(0.0, abs=1e-15)

    def test_one_hot_classes_one_and_three(self):
        cfg = QuantizerConfig(5)
        v = losses.emd2(class_target(1, cfg), class_target(3, cfg))
        assert float(v.values) == pytest.approx(2.0, abs=1e-15)

    def test_all_one_hot_pairs_equal_class_distance(self):
        # Oracle: prefix-sum accumulation, checked exhaustively for N <= 20.
        for n in range(2, 21):
            cfg = QuantizerConfig(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    pi, pj = class_target(i, cfg), class_target(j, cfg)
                    got = float(losses.emd2(pi, pj).values)
                    assert got == emd2_prefix_sum_oracle(pi, pj)
                    assert got == abs(i - j)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(9))
            q = rng.dirichlet(np.ones(9))
            assert float(losses.emd2(p, q).values) == pytest.approx(
                float(losses.emd2(q, p).values), abs=1e-15
            )

    def test_strictly_increasing_with_class_distance_while_cross_entropy_constant(self):
        # One-hot predictions nearer the target class score strictly lower,
        # whereas cross-entropy cannot tell them apart.
        for n in range(3, 21):
            cfg = QuantizerConfig(n)
            target = class_target((n + 1) // 2, cfg)
            values = []
            for i in range(1, n + 1):
                pred = class_target(i, cfg)
                values.append((abs(i - (n + 1) // 2), float(losses.emd2(pred, target).values)))
                eps = 1e-12
                xent = -np.sum(target * np.log(pred + eps))
                if i != (n + 1) // 2:
                    assert xent == pytest.approx(-math.log(eps), rel=1e-6)
            values.sort()
            for (d1, v1), (d2, v2) in zip(values, values[1:]):
                if d1 < d2:
                    assert v1 < v2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            losses.emd2(np.ones(4) / 4, np.ones(5) / 5)

    def test_batched_mean(self):
        cfg = QuantizerConfig(6)
        batch_hat = np.stack([class_target(1, cfg), class_target(2, cfg)])
        batch = np.stack([class_target(4, cfg), class_target(2, cfg)])
        assert float(losses.emd2(batch_hat, batch).values) == pytest.approx(1.5)


class TestTdMse:
    def test_identical(self):
        x = np.array([0.3, -0.2, 0.5])
        assert float(losses.td_mse(x, x).values) == 0.0

    def test_constant_offset_is_free(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100)
        assert float(losses.td_mse(x + 0.7, x).values) == pytest.approx(0.0, abs=1e-22)

    def test_direct_value(self):
        v = losses.td_mse(np.array([0.0, 0.0]), np.array([1.0, -1.0]))
        assert float(v.values) == pytest.approx(2.0, abs=1e-15)

    def test_dc_shift_invariance_both_arguments(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(64)
        y = rng.standard_normal(64)
        base = float(losses.td_mse(x, y).values)
        assert float(losses.td_mse(x + 5.0, y).values) == pytest.approx(base, rel=1e-12)
        assert float(losses.td_mse(x, y - 3.3).values) == pytest.approx(base, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            losses.td_mse(np.zeros(4), np.zeros(5))

    def test_mean_reduction_divides_by_length(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        y = np.zeros(4)
        assert float(losses.td_mse(x, y, reduction="mean").values) == pytest.approx(
            float(losses.td_mse(x, y).values) / 4
        )


class TestJointLoss:
    def test_perfect_everything_is_zero(self):
        cfg = QuantizerConfig(8)
        x = np.array([0.1, 0.2, -0.1])
        p = class_target(3, cfg)
        assert float(losses.joint_loss(x, x, p, p)[0].values) == 0.0

    def test_zero_weight_equals_emd_alone(self):
        cfg = QuantizerConfig(8)
        rng = np.random.default_rng(4)
        x_hat, x = rng.standard_normal(32), rng.standard_normal(32)
        p_hat = rng.dirichlet(np.ones(8))
        p = class_target(5, cfg)
        joint = float(losses.joint_loss(x_hat, x, p_hat, p, recon_weight=0.0)[0].values)
        assert joint == float(losses.emd2(p_hat, p).values)

    def test_weighted_sum(self):
        # recon_weight 1: joint = td_mse + emd2 exactly
        cfg = QuantizerConfig(4)
        x_hat = np.array([0.0, 0.0])
        x = np.array([1.0, -1.0])
        p_hat = np.array([0.5, 0.5, 0.0, 0.0])
        p = class_target(1, cfg)
        td = float(losses.td_mse(x_hat, x).values)
        em = float(losses.emd2(p_hat, p).values)
        assert float(losses.joint_loss(x_hat, x, p_hat, p, 1.0)[0].values) == td + em


class TestLossGradients:
    def test_emd2_gradient(self):
        rng = np.random.default_rng(5)
        logits = dc.parameter(rng.standard_normal(9))
        target = dc.constant(np.random.default_rng(6).dirichlet(np.ones(9)))
        err = dc.gradient_check(lambda z: losses.emd2(dc.softmax(z, axis=-1), target), [logits])
        assert err < 1e-4

    def test_td_mse_gradient(self):
        rng = np.random.default_rng(7)
        x_hat = dc.parameter(rng.standard_normal(24))
        x = dc.constant(rng.standard_normal(24))
        assert dc.gradient_check(lambda a: losses.td_mse(a, x), [x_hat]) < 1e-4

    def test_joint_gradient(self):
        rng = np.random.default_rng(8)
        x_hat = dc.parameter(rng.standard_normal(16))
        x = dc.constant(rng.standard_normal(16))
        logits = dc.parameter(rng.standard_normal(6))
        target = dc.constant(np.random.default_rng(9).dirichlet(np.ones(6)))

        def fn(a, z):
            return losses.joint_loss(a, x, dc.softmax(z, axis=-1), target, recon_weight=0.5)[0]

        assert dc.gradient_check(fn, [x_hat, logits]) < 1e-4
