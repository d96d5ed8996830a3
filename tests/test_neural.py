import math

import numpy as np
import pytest

from gopo.neural import (
    AdamState,
    Mlp,
    adam_step,
    clip_grad_norm,
    load_checkpoint,
    save_checkpoint,
    stable_softmax,
)
from oracles import central_difference_grad, max_rel_error, scaled_diff

RNG = np.random.default_rng(20240817)


class TestForward:
    def test_zero_weights_softmax_is_uniform(self):
        net = Mlp([3, 6, 4], head="softmax", seed=0)
        net.set_params(np.zeros(net.n_params))
        out = net.forward(np.array([1.0, -2.0, 0.5]))
        assert out == pytest.approx([0.25] * 4, abs=1e-12)

    def test_zero_weights_linear_is_zero(self):
        net = Mlp([3, 6, 2], head="linear", seed=0)
        net.set_params(np.zeros(net.n_params))
        out = net.forward(np.array([1.0, -2.0, 0.5]))
        assert out == pytest.approx([0.0, 0.0], abs=0)

    def test_golden_softmax_vector(self):
        # recorded once from this implementation at the pinned seed
        net = Mlp([3, 5, 4], head="softmax", seed=1234)
        out = net.forward(np.array([0.3, -1.2, 0.75]))
        golden = [
            0.35526491586288395,
            0.09658628821287939,
            0.12678039336980226,
            0.42136840255443453,
        ]
        assert out == pytest.approx(golden, abs=1e-12)

    def test_golden_linear_vector(self):
        net = Mlp([3, 5, 2], head="linear", seed=1234)
        out = net.forward(np.array([0.3, -1.2, 0.75]))
        assert out == pytest.approx([2.584739272601977, 0.23407206788726778], abs=1e-12)

    def test_softmax_sums_to_one_and_positive(self):
        net = Mlp([4, 8, 5], head="softmax", seed=3)
        for _ in range(20):
            p = net.forward(RNG.normal(0, 2, 4))
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(p > 0)

    def test_dimension_mismatch_rejected(self):
        net = Mlp([3, 4, 2], seed=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros(5))

    def test_softmax_stable_for_huge_logits(self):
        for scale in (1.0, 100.0, 1e3):
            p = stable_softmax(np.array([scale, -scale, 0.0]))
            assert np.all(np.isfinite(p)) and np.all(p > 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_extreme_weights_no_nan(self):
        net = Mlp([3, 8, 4], head="softmax", seed=5)
        net.set_params(RNG.normal(0, 300.0, net.n_params))
        p = net.forward(np.array([1.0, 1.0, 1.0]))
        assert np.all(np.isfinite(p)) and np.all(p > 0)


class TestBackward:
    def test_zero_upstream_gives_zero_grad(self):
        net = Mlp([3, 6, 4], head="softmax", seed=1)
        g = net.backward(np.array([0.2, 0.4, -0.5]), np.zeros(4))
        assert np.all(g == 0.0)

    @pytest.mark.parametrize("head,out_dim", [("softmax", 5), ("linear", 3)])
    def test_matches_finite_differences(self, head, out_dim):
        for trial in range(5):
            net = Mlp([4, 7, out_dim], head=head, seed=100 + trial)
            x = RNG.normal(0, 1, 4)
            upstream = RNG.normal(0, 1, out_dim)
            analytic = net.backward(x, upstream)

            def scalar_loss(params, net=net, x=x, upstream=upstream):
                old = net.get_params()
                net.set_params(params)
                val = float(net.forward(x) @ upstream)
                net.set_params(old)
                return val

            fd = central_difference_grad(scalar_loss, net.get_params())
            assert max_rel_error(analytic, fd) < 1e-4

    def test_additivity_over_duplicated_inputs(self):
        net = Mlp([3, 5, 2], head="linear", seed=7)
        x = np.array([0.1, -0.7, 1.3])
        u = np.array([0.4, -0.2])
        single = net.backward(x, u)
        double = net.backward(x, u) + net.backward(x, u)
        assert double == pytest.approx(2 * single)

    def test_upstream_shape_checked(self):
        net = Mlp([3, 5, 2], head="linear", seed=7)
        with pytest.raises(ValueError):
            net.backward(np.zeros(3), np.zeros(4))


class TestBatch:
    # BLAS rounds a batched product differently from per-row products, so
    # batch and rows agree to rounding, not bitwise
    TOL = 1e-12

    @pytest.mark.parametrize("head", ["softmax", "linear"])
    def test_forward_matches_per_row_forwards(self, head):
        for trial in range(5):
            net = Mlp([6, 9, 7, 4], head=head, seed=40 + trial)
            x = RNG.normal(0, 1, (11, 6))
            batch = net.forward(x)
            rows = np.stack([net.forward(r) for r in x])
            assert batch.shape == (11, 4)
            assert scaled_diff(batch, rows) <= self.TOL

    @pytest.mark.parametrize("head", ["softmax", "linear"])
    def test_backward_is_sum_of_per_row_backwards(self, head):
        for trial in range(5):
            net = Mlp([6, 9, 7, 4], head=head, seed=50 + trial)
            x = RNG.normal(0, 1, (11, 6))
            upstream = RNG.normal(0, 1, (11, 4))
            batch = net.backward(x, upstream)
            summed = sum(net.backward(r, u) for r, u in zip(x, upstream))
            assert batch.shape == (net.n_params,)
            assert scaled_diff(batch, summed) <= self.TOL

    @pytest.mark.parametrize("head", ["softmax", "linear"])
    def test_one_row_batch_is_bitwise_the_vector(self, head):
        net = Mlp([5, 8, 3], head=head, seed=60)
        x = RNG.normal(0, 1, 5)
        u = RNG.normal(0, 1, 3)
        assert np.array_equal(net.forward(x[None, :])[0], net.forward(x))
        assert np.array_equal(net.backward(x[None, :], u[None, :]), net.backward(x, u))

    def test_batch_backward_matches_finite_differences(self):
        net = Mlp([4, 7, 5], head="softmax", seed=70)
        x = RNG.normal(0, 1, (6, 4))
        upstream = RNG.normal(0, 1, (6, 5))

        def scalar_loss(params):
            old = net.get_params()
            net.set_params(params)
            val = float(np.sum(net.forward(x) * upstream))
            net.set_params(old)
            return val

        fd = central_difference_grad(scalar_loss, net.get_params())
        assert max_rel_error(net.backward(x, upstream), fd) < 1e-4

    def test_softmax_is_row_wise(self):
        logits = RNG.normal(0, 3, (5, 6))
        batch = stable_softmax(logits)
        for row, lg in zip(batch, logits):
            assert np.array_equal(row, stable_softmax(lg))
        assert batch.sum(axis=1) == pytest.approx(np.ones(5), abs=1e-12)

    def test_shapes_checked(self):
        net = Mlp([3, 5, 2], head="softmax", seed=7)
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            net.forward(np.zeros((4, 5)))
        with pytest.raises(ValueError):
            net.backward(np.zeros((2, 2, 3)), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            net.backward(np.zeros((4, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            net.backward(np.zeros((4, 3)), np.zeros(2))


class TestParameterVector:
    def test_flatten_unflatten_round_trip(self):
        net = Mlp([4, 6, 3], head="softmax", seed=2)
        flat = net.get_params()
        net2 = Mlp([4, 6, 3], head="softmax", seed=99)
        net2.set_params(flat)
        assert np.array_equal(net2.get_params(), flat)
        x = np.array([0.5, 0.5, -0.5, 1.0])
        assert np.array_equal(net.forward(x), net2.forward(x))

    def test_layout_size_checked(self):
        net = Mlp([4, 6, 3], seed=2)
        with pytest.raises(ValueError):
            net.set_params(np.zeros(net.n_params + 1))


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = RNG.normal(0, 1, 10)
        state = AdamState.zeros(10)
        new_p, new_state = adam_step(p, np.zeros(10), state, lr=0.1)
        assert new_p == pytest.approx(p)
        assert new_state.step == 1

    def test_first_step_magnitude_is_lr(self):
        p = np.zeros(6)
        g = np.array([3.0, -0.5, 1e-3, 10.0, -2.0, 0.25])
        new_p, _ = adam_step(p, g, AdamState.zeros(6), lr=0.01)
        # m_hat/sqrt(v_hat) = sign(g) on the first step, up to eps
        assert np.abs(new_p) == pytest.approx(np.full(6, 0.01), rel=1e-4)
        assert np.all(np.sign(new_p) == -np.sign(g))

    def test_deterministic_trajectories(self):
        def run():
            p = np.ones(4)
            s = AdamState.zeros(4)
            for i in range(25):
                g = np.array([1.0, -1.0, 0.5, 2.0]) * (i + 1)
                p, s = adam_step(p, g, s, lr=0.05)
            return p

        assert np.array_equal(run(), run())

    def test_inputs_not_mutated(self):
        p = np.ones(3)
        g = np.ones(3)
        s = AdamState.zeros(3)
        adam_step(p, g, s, lr=0.1)
        assert np.all(p == 1.0) and np.all(s.m == 0.0) and s.step == 0

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros(3), np.zeros(4), AdamState.zeros(3), lr=0.1)


class TestClip:
    def test_noop_below_norm(self):
        g = np.array([1.0, 2.0])
        assert np.array_equal(clip_grad_norm(g, 5.0), g)

    def test_rescales_above_norm(self):
        g = np.array([3.0, 4.0])
        clipped = clip_grad_norm(g, 1.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        net = Mlp([5, 9, 4], head="softmax", seed=11)
        adam = AdamState(m=RNG.normal(0, 1, net.n_params), v=np.abs(RNG.normal(0, 1, net.n_params)), step=42)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, adam)
        net2, adam2 = load_checkpoint(path)
        assert net2.layer_sizes == net.layer_sizes
        assert net2.head == net.head
        assert np.array_equal(net2.get_params(), net.get_params())
        assert np.array_equal(adam2.m, adam.m)
        assert np.array_equal(adam2.v, adam.v)
        assert adam2.step == 42

    def test_round_trip_without_optimizer(self, tmp_path):
        net = Mlp([3, 4, 2], head="linear", seed=0)
        save_checkpoint(tmp_path / "n.ckpt", net)
        net2, adam2 = load_checkpoint(tmp_path / "n.ckpt")
        assert adam2 is None
        assert np.array_equal(net2.get_params(), net.get_params())

    def test_forward_identical_after_reload(self, tmp_path):
        net = Mlp([4, 8, 3], head="softmax", seed=5)
        save_checkpoint(tmp_path / "n.ckpt", net)
        net2, _ = load_checkpoint(tmp_path / "n.ckpt")
        x = RNG.normal(0, 1, 4)
        assert np.array_equal(net.forward(x), net2.forward(x))
