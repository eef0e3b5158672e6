"""Gradient correctness of every differentiable op via central differences."""

import numpy as np
import pytest

import flowmat.autodiff as ad
from flowmat.autodiff import Adam, Tensor, finite_diff_grad_check

RNG = np.random.default_rng(42)
TOL = 1e-4


def check(f, x, tol=TOL):
    err = finite_diff_grad_check(f, Tensor(x))
    assert err < tol, f"max rel grad error {err:.3g} >= {tol}"


class TestElementwiseGrads:
    def test_add_sub_mul_div(self):
        b = RNG.standard_normal((3, 4))
        check(lambda x: ad.tsum(ad.mul(ad.add(x, Tensor(b)),
                                       ad.sub(x, Tensor(b)))),
              RNG.standard_normal((3, 4)))
        check(lambda x: ad.tsum(ad.div(x, Tensor(np.abs(b) + 1.0))),
              RNG.standard_normal((3, 4)))

    def test_scalar_broadcast(self):
        check(lambda x: ad.tsum(ad.mul(x, 3.0)), RNG.standard_normal((2, 5)))

    def test_sqrt_square(self):
        check(lambda x: ad.tsum(ad.sqrt(ad.add(ad.square(x), Tensor(0.5)))),
              RNG.standard_normal((4, 4)))

    def test_gelu(self):
        check(lambda x: ad.tsum(ad.gelu(x)), RNG.standard_normal((3, 7)))

    def test_operators_match_functions(self):
        a = Tensor(RNG.standard_normal((2, 3)))
        b = Tensor(RNG.standard_normal((2, 3)))
        np.testing.assert_array_equal((a + b).data, ad.add(a, b).data)
        np.testing.assert_array_equal((a - b).data, ad.sub(a, b).data)
        np.testing.assert_array_equal((a * b).data, ad.mul(a, b).data)
        np.testing.assert_array_equal((-a).data, -a.data)


class TestMatmulGrads:
    def test_plain(self):
        b = RNG.standard_normal((4, 5))
        check(lambda x: ad.tsum(ad.matmul(x, Tensor(b))),
              RNG.standard_normal((3, 4)))

    def test_batched_broadcast(self):
        # leading batch axis on the left operand only
        b = RNG.standard_normal((4, 5))
        check(lambda x: ad.tsum(ad.square(ad.matmul(x, Tensor(b)))),
              RNG.standard_normal((6, 3, 4)))

    def test_right_operand(self):
        a = RNG.standard_normal((2, 3, 4))
        check(lambda x: ad.tsum(ad.matmul(Tensor(a), x)),
              RNG.standard_normal((4, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


class TestReductionsAndShapes:
    def test_tsum_axis_keepdims(self):
        check(lambda x: ad.tsum(ad.square(ad.tsum(x, axis=-1, keepdims=True))),
              RNG.standard_normal((3, 5)))

    def test_tmean_rowsum(self):
        check(lambda x: ad.tmean(ad.square(x)), RNG.standard_normal((4, 3)))
        check(lambda x: ad.tsum(ad.square(ad.rowsum(x))),
              RNG.standard_normal((4, 3)))

    def test_reshape_transpose(self):
        check(lambda x: ad.tsum(ad.square(ad.reshape(x, (6, 2)))),
              RNG.standard_normal((3, 4)))
        check(lambda x: ad.tsum(ad.square(ad.transpose(x))),
              RNG.standard_normal((2, 3, 4)))
        w = RNG.standard_normal((2, 3, 4, 5))
        check(lambda x: ad.tsum(ad.mul(ad.transpose(x, axes=(-3, -2)),
                                       Tensor(w))),
              RNG.standard_normal((2, 4, 3, 5)))

    def test_concat_narrow(self):
        b = RNG.standard_normal((3, 2))
        check(lambda x: ad.tsum(ad.square(ad.concat([x, Tensor(b)], axis=-1))),
              RNG.standard_normal((3, 4)))
        check(lambda x: ad.tsum(ad.square(ad.narrow(x, -1, 1, 3))),
              RNG.standard_normal((4, 5)))

    def test_gather_rows_repeated_indices(self):
        # a row selected twice must receive both gradient contributions
        x = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        out = ad.tsum(ad.gather_rows(x, [1, 1, 3]))
        out.backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_allclose(x.grad, expected)


class TestNormalizers:
    def test_softmax_rows(self):
        w = RNG.standard_normal((5, 5))
        check(lambda x: ad.tsum(ad.square(
            ad.softmax_rows(ad.matmul(x, Tensor(w))))),
              RNG.standard_normal((3, 5)))

    def test_softmax_rows_sum_to_one(self):
        s = ad.softmax_rows(Tensor(RNG.standard_normal((6, 9)) * 30.0))
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_layer_norm(self):
        g = RNG.standard_normal(6) + 1.0
        b = RNG.standard_normal(6)
        check(lambda x: ad.tsum(ad.square(
            ad.layer_norm(x, Tensor(g), Tensor(b)))),
              RNG.standard_normal((4, 6)))

    def test_layer_norm_gain_bias_grads(self):
        x = RNG.standard_normal((4, 6))
        check(lambda g: ad.tsum(ad.square(
            ad.layer_norm(Tensor(x), g, Tensor(np.zeros(6))))),
              np.ones(6))
        check(lambda b: ad.tsum(ad.square(
            ad.layer_norm(Tensor(x), Tensor(np.ones(6)), b))),
              np.zeros(6))


class TestSelectionOps:
    def test_select_active_identity_when_all_kept(self):
        z = Tensor(RNG.standard_normal((5, 3)))
        q = Tensor(RNG.standard_normal(5))
        out, kept = ad.select_active(z, q, 5)
        np.testing.assert_array_equal(kept, np.arange(5))
        np.testing.assert_array_equal(out.data, z.data)

    def test_select_active_ties_prefer_lower_index(self):
        q = Tensor(np.array([1.0, 2.0, 2.0, 0.5]))
        _, kept = ad.select_active(Tensor(np.zeros((4, 2))), q, 2)
        np.testing.assert_array_equal(kept, [1, 2])

    def test_select_active_gradients(self):
        q = np.array([3.0, -1.0, 2.0, 0.0])
        check(lambda x: ad.tsum(ad.square(
            ad.select_active(x, Tensor(q), 2)[0])),
              RNG.standard_normal((4, 3)))

    def test_select_active_query_straight_through(self):
        z = Tensor(RNG.standard_normal((4, 3)))
        q = Tensor(np.array([3.0, -1.0, 2.0, 0.0]), requires_grad=True)
        out, kept = ad.select_active(z, q, 2)
        ad.tsum(out).backward()
        # every element of a kept row gets gradient 1, and the query slot
        # receives the per-row sum, i.e. the row width
        expected = np.zeros(4)
        expected[kept] = z.data.shape[-1]
        np.testing.assert_allclose(q.grad, expected)

    def test_select_active_validation(self):
        z = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            ad.select_active(z, Tensor(np.zeros(3)), 2)
        with pytest.raises(ValueError):
            ad.select_active(z, Tensor(np.zeros(4)), 0)

    def test_insert_rows_placement(self):
        part = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        fill = Tensor(np.full(3, -1.0))
        out = ad.insert_rows(part, [1, 3], 5, fill)
        np.testing.assert_array_equal(out.data[1], [0, 1, 2])
        np.testing.assert_array_equal(out.data[3], [3, 4, 5])
        for row in (0, 2, 4):
            np.testing.assert_array_equal(out.data[row], [-1, -1, -1])

    def test_insert_rows_gradients(self):
        fill = np.full(3, 0.5)
        check(lambda x: ad.tsum(ad.square(
            ad.insert_rows(x, [0, 2], 4, Tensor(fill)))),
              RNG.standard_normal((2, 3)))
        part = RNG.standard_normal((2, 3))
        check(lambda f: ad.tsum(ad.square(
            ad.insert_rows(Tensor(part), [0, 2], 4, f))),
              np.full(3, 0.5))

    def test_insert_rows_rejects_collisions(self):
        with pytest.raises(ValueError):
            ad.insert_rows(Tensor(np.zeros((2, 3))), [1, 1], 4,
                           Tensor(np.zeros(3)))

    def test_straight_through_identity_gradient(self):
        x = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
        out = ad.tsum(ad.straight_through(x, np.round))
        out.backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_straight_through_shape_guard(self):
        with pytest.raises(ValueError):
            ad.straight_through(Tensor(np.zeros((2, 2))),
                                lambda a: a.reshape(-1))


class TestBackwardMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            ad.square(x).backward()

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        out = ad.tsum(ad.add(ad.mul(x, x), ad.mul(x, 3.0)))
        out.backward()
        np.testing.assert_allclose(x.grad, [7.0])  # 2x + 3

    def test_detach_blocks_gradients(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        out = ad.tsum(ad.mul(x.detach(), x))
        out.backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_checked_mode_rejects_nonfinite(self):
        ad.set_checked(True)
        try:
            with pytest.raises(ValueError):
                Tensor(np.array([1.0, np.nan]))
        finally:
            ad.set_checked(False)

    def test_grad_check_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad_check(lambda x: ad.tsum(x),
                                   Tensor(np.ones(2)), h=1e-2)


class TestAdam:
    def test_quadratic_convergence(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            loss = ad.tsum(ad.square(x))
            loss.backward()
            opt.step()
        assert np.all(np.abs(x.data) < 1e-3)

    @staticmethod
    def steps(start, grads, lr=0.01):
        x = Tensor(np.array(start), requires_grad=True)
        opt = Adam([x], lr=lr)
        for g in grads:
            x.grad = None if g is None else np.array(g)
            opt.step()
        return x.data

    def test_functional_step_is_deterministic(self):
        grads = [[0.1, -0.2], [0.3, 0.05], [-0.2, 0.4]]
        np.testing.assert_array_equal(self.steps([1.0, 2.0], grads),
                                      self.steps([1.0, 2.0], grads))

    def test_first_step_size_is_lr(self):
        # bias correction makes the first update exactly lr * sign(grad)
        out = self.steps(np.zeros(3), [[1.0, -2.0, 0.5]])
        np.testing.assert_allclose(np.abs(out), 0.01, rtol=1e-6)

    def test_matches_reference_update(self):
        # Kingma & Ba (2015), Algorithm 1; a missing gradient counts as zero
        grads = [np.array([0.1, -0.2]), None, np.array([-0.3, 0.05])]
        x, m, v = np.array([1.0, 2.0]), np.zeros(2), np.zeros(2)
        for t, g in enumerate(grads, start=1):
            g = np.zeros(2) if g is None else g
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            mhat, vhat = m / (1.0 - 0.9**t), v / (1.0 - 0.999**t)
            x = x - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_array_equal(self.steps([1.0, 2.0], grads), x)
