"""Gradient correctness of every differentiable op via central differences."""

import importlib.machinery
import math

import numpy as np
import pytest
import scipy.special

import flowmat.autodiff as ad
from flowmat.autodiff import Adam, Tensor, finite_diff_grad_check
from flowmat.model import build_mask_bias

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

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    @pytest.mark.parametrize("a_shape,b_shape", [
        ((3, 4), (3, 4)),
        ((2, 3, 4), (4,)),   # b's gradient sums away the leading axes
        ((3, 1), (3, 4)),    # a's gradient sums its size-1 axis
    ], ids=["same-shape", "leading-axes", "size-1-axis"])
    def test_each_operand(self, op, a_shape, b_shape):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(a_shape)
        b = rng.uniform(0.5, 1.5, b_shape)  # away from zero for div
        fn = getattr(ad, op)
        check(lambda x: ad.tsum(ad.square(fn(x, Tensor(b)))), a)
        check(lambda y: ad.tsum(ad.square(fn(Tensor(a), y))), b)

    def test_sqrt_square(self):
        check(lambda x: ad.tsum(ad.sqrt(ad.add(ad.square(x), Tensor(0.5)))),
              RNG.standard_normal((4, 4)))

    def test_gelu(self):
        check(lambda x: ad.tsum(ad.gelu(x)), RNG.standard_normal((3, 7)))


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
        # all rows kept: the fill is unused and the rows pass through
        full = Tensor(RNG.standard_normal((2, 5, 3)))
        out = ad.insert_rows(full, range(5), 5, fill)
        np.testing.assert_array_equal(out.data, full.data)

    def test_insert_rows_gradients(self):
        fill = np.full(3, 0.5)
        check(lambda x: ad.tsum(ad.square(
            ad.insert_rows(x, [0, 2], 4, Tensor(fill)))),
              RNG.standard_normal((2, 3)))
        part = RNG.standard_normal((2, 3))
        check(lambda f: ad.tsum(ad.square(
            ad.insert_rows(Tensor(part), [0, 2], 4, f))),
              np.full(3, 0.5))

    # with n = 4 a -1 would wrap to row 3: beside 3 a silent collision,
    # beside 0 a row that is both kept and filled
    @pytest.mark.parametrize("kept", [[1, 1], [3, -1], [0, -1], [0, 4]],
                             ids=["repeat", "negative-wraps-to-kept",
                                  "negative-wraps-to-free", "past-end"])
    def test_insert_rows_rejects_collisions(self, kept):
        with pytest.raises(ValueError):
            ad.insert_rows(Tensor(np.zeros((2, 3))), kept, 4,
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

    def test_grad_check_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad_check(lambda x: ad.tsum(x),
                                   Tensor(np.ones(2)), h=1e-2)

    def test_second_backward_adds_one_more_leaf_gradient(self):
        x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        out = ad.tsum(ad.mul(ad.gelu(ad.mul(x, 3.0)), 2.0))
        out.backward()
        first = x.grad.copy()
        out.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * first)

    @staticmethod
    def graph(out):
        """Every tensor reachable from ``out`` through its parents."""
        seen, stack = {}, [out]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack.extend(node._parents)
        return list(seen.values())

    def test_gradients_kept_on_leaves_only(self):
        # w's data is a transposed view, so the C-ordered gradient reaching
        # it is copied into its layout; x's gradient arrives through a
        # transpose as a transposed view and is copied into x's C layout
        x = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(RNG.standard_normal((3, 2)).T, requires_grad=True)
        b = Tensor(RNG.standard_normal((2, 1)), requires_grad=True)
        h = ad.gelu(ad.add(ad.matmul(w, ad.transpose(x)), b))
        out = ad.tsum(ad.mul(h, h))
        nodes = self.graph(out)
        out.backward()
        interior = [node for node in nodes if node._backward is not None]
        assert len(interior) == 6
        assert all(node.grad is None for node in interior)
        assert w.data.flags.f_contiguous and not w.data.flags.c_contiguous
        for leaf in (x, w, b):
            assert leaf.grad.shape == leaf.data.shape
            assert leaf.grad.strides == leaf.data.strides


def _frozen_cases():
    rng = np.random.default_rng(11)
    n = rng.standard_normal
    return {
        "add": (ad.add, [n((2, 3, 4)), n(4)]),
        "sub": (ad.sub, [n((2, 3, 4)), n(4)]),
        "mul": (ad.mul, [n((2, 3, 4)), n(4)]),
        "div": (ad.div, [n((2, 3, 4)), rng.uniform(0.5, 1.5, 4)]),
        "matmul": (ad.matmul, [n((2, 3, 4)), n((4, 5))]),
        "layer_norm": (ad.layer_norm, [n((2, 3, 6)), n(6) + 1.0, n(6)]),
        # the query's gradient is straight-through, not its derivative, so
        # only the rows are checked against finite differences
        "select_active": (lambda z, q: ad.select_active(z, q, 2)[0],
                          [n((2, 4, 3)), np.array([3.0, -1.0, 2.0, 0.0])]),
        "insert_rows": (lambda z, f: ad.insert_rows(z, [0, 2], 4, f),
                        [n((2, 2, 3)), n(3)]),
        "concat": (lambda a, b: ad.concat([a, b], axis=-2),
                   [n((2, 3, 4)), n((2, 1, 4))]),
        "attention": (lambda x, wq, wk, wv: ad.attention(
            x, wq, wk, wv, build_mask_bias([0, 2], 3, "hard"), 2),
                      [n((2, 3, 4))] + [n((4, 4)) for _ in range(3)]),
        "mlp": (ad.mlp, [n((2, 3, 4)), n((4, 6)), n(6), n((6, 4)), n(4)]),
    }


FROZEN = _frozen_cases()


class TestNodeConstructor:
    """``Tensor._result`` runs an operand's VJP only when the operand needs a
    gradient, and accumulates every VJP of an operand used twice."""

    @pytest.mark.parametrize("name,traced", [
        (name, i) for name, (_, arrays) in FROZEN.items()
        for i in range(len(arrays)) if (name, i) != ("select_active", 1)])
    def test_frozen_operand_keeps_no_gradient(self, name, traced):
        fn, arrays = FROZEN[name]
        frozen = [Tensor(a) for a in arrays]

        def f(x):
            operands = list(frozen)
            operands[traced] = x
            return ad.tsum(ad.square(fn(*operands)))

        check(f, arrays[traced])
        assert all(t.grad is None for i, t in enumerate(frozen)
                   if i != traced)

    def test_select_active_frozen_rows_keep_no_gradient(self):
        z = Tensor(RNG.standard_normal((2, 4, 3)))
        q = Tensor(np.array([3.0, -1.0, 2.0, 0.0]), requires_grad=True)
        out, kept = ad.select_active(z, q, 2)
        ad.tsum(out).backward()
        assert z.grad is None
        expected = np.zeros(4)
        expected[kept] = 2 * 3  # per-row sum over 2 samples of width 3
        np.testing.assert_array_equal(q.grad, expected)

    @pytest.mark.parametrize("fn,scale", [
        (lambda x: ad.square(ad.add(x, x)), 8.0),     # sum 4x^2
        (lambda x: ad.mul(x, x), 2.0),                 # sum x^2
        (lambda x: ad.square(ad.concat([x, x], axis=0)), 4.0),  # 2 sum x^2
    ], ids=["add", "mul", "concat"])
    def test_operand_shared_by_one_node(self, fn, scale):
        x0 = RNG.standard_normal((3, 2))
        x = Tensor(x0.copy(), requires_grad=True)
        ad.tsum(fn(x)).backward()
        np.testing.assert_allclose(x.grad, scale * x0, rtol=1e-14)
        check(lambda t: ad.tsum(fn(t)), x0)

    @pytest.mark.parametrize("axis", [1, -1, (0, 2), (-3, -1)])
    def test_tsum_over_axes_without_keepdims(self, axis):
        w = Tensor(RNG.standard_normal(np.zeros((2, 3, 4)).sum(axis).shape))
        check(lambda x: ad.tsum(ad.mul(ad.square(ad.tsum(x, axis=axis)), w)),
              RNG.standard_normal((2, 3, 4)))

    @pytest.mark.parametrize("axis", [0, 1, -2])
    def test_concat_traced_second_along_leading_axis(self, axis):
        def shape(size):
            dims = [2, 3, 4]
            dims[axis] = size
            return dims

        first = Tensor(RNG.standard_normal(shape(1)))
        w = Tensor(RNG.standard_normal(shape(3)))
        check(lambda x: ad.tsum(ad.mul(ad.square(
            ad.concat([first, x], axis=axis)), w)),
              RNG.standard_normal(shape(2)))
        assert first.grad is None


def composed_attention(x, wq, wk, wv, bias, n_heads):
    """The graph of primitive ops that ``ad.attention`` replaces."""
    dh = x.data.shape[-1] // n_heads
    split = x.data.shape[:-1] + (n_heads, dh)

    def heads(w):
        return ad.transpose(ad.reshape(ad.matmul(x, w), split), axes=(-3, -2))

    q, k, v = heads(wq), heads(wk), heads(wv)
    logits = ad.matmul(q, ad.transpose(k))
    if bias is not None:
        logits = ad.add(logits, Tensor(bias))
    att = ad.softmax_rows(ad.mul(logits, 1.0 / math.sqrt(dh)))
    out = ad.transpose(ad.matmul(att, v), axes=(-3, -2))
    return ad.reshape(out, x.data.shape)


def composed_mlp(h, w1, b1, w2, b2):
    """The graph of primitive ops that ``ad.mlp`` replaces."""
    h = ad.gelu(ad.add(ad.matmul(h, w1), b1))
    return ad.add(ad.matmul(h, w2), b2)


def attention_arrays(shape, rng):
    d = shape[-1]
    return [rng.standard_normal(shape)] + [
        0.2 * rng.standard_normal((d, d)) for _ in range(3)]


def mlp_arrays(shape, e, rng):
    d = shape[-1]
    return [rng.standard_normal(shape), 0.2 * rng.standard_normal((d, e * d)),
            0.1 * rng.standard_normal(e * d),
            0.2 * rng.standard_normal((e * d, d)), 0.1 * rng.standard_normal(d)]


class TestFusedOps:
    """``attention`` and ``mlp`` give the bits of the primitive graphs they
    replace: the forward value and every operand's gradient."""

    @staticmethod
    def bits(op, arrays, first=lambda t: t):
        """Forward value and leaf gradients of ``op`` as bytes; ``first``
        maps the first leaf to the op's first operand."""
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(first(leaves[0]), *leaves[1:])
        weights = np.random.default_rng(9).standard_normal(out.data.shape)
        ad.tsum(ad.mul(out, Tensor(weights))).backward()
        return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]

    def assert_same_bits(self, fused, composed, arrays, first=lambda t: t):
        got = self.bits(fused, arrays, first)
        want = self.bits(composed, arrays, first)
        names = ["forward"] + [f"grad {i}" for i in range(len(arrays))]
        assert [n for n, a, b in zip(names, got, want) if a != b] == []

    @pytest.mark.parametrize("shape,masked", [
        ((16, 8, 64), True), ((16, 8, 64), False), ((16, 32, 64), False),
        ((8, 64), True)], ids=["16x8-mask", "16x8", "16x32", "batch-1"])
    def test_attention_bits(self, shape, masked):
        n = shape[-2]
        bias = build_mask_bias([0, 3, 5], n, "hard") if masked else None
        self.assert_same_bits(
            lambda *t: ad.attention(*t, bias, 4),
            lambda *t: composed_attention(*t, bias, 4),
            attention_arrays(shape, np.random.default_rng(1)))

    @pytest.mark.parametrize("shape", [(16, 8, 64), (16, 32, 64), (8, 64)],
                             ids=["16x8", "16x32", "batch-1"])
    def test_mlp_bits(self, shape):
        self.assert_same_bits(ad.mlp, composed_mlp,
                              mlp_arrays(shape, 2, np.random.default_rng(2)))

    def test_mlp_bits_on_mixer_token_input(self):
        # the Mixer's token mixing runs the MLP on a transposed, strided view
        arrays = mlp_arrays((16, 32, 8), 2, np.random.default_rng(3))
        arrays[0] = np.swapaxes(arrays[0], -1, -2).copy()  # [16, 8, 32]
        self.assert_same_bits(ad.mlp, composed_mlp, arrays, ad.transpose)

    def test_forward_bits_without_tape(self):
        rng = np.random.default_rng(4)
        bias = build_mask_bias([1, 2], 8, "hard")
        cases = [
            (lambda *t: ad.attention(*t, bias, 4),
             lambda *t: composed_attention(*t, bias, 4),
             attention_arrays((16, 8, 64), rng)),
            (ad.mlp, composed_mlp, mlp_arrays((16, 8, 64), 2, rng))]
        for fused, composed, arrays in cases:
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            with ad.no_tape():
                got, want = fused(*leaves), composed(*leaves)
            assert got.data.tobytes() == want.data.tobytes()
            assert got._backward is None and got._parents == ()

    @pytest.mark.parametrize("bias_shape", [(6,), (1, 6), (6, 1), (7, 7)])
    def test_attention_rejects_bias_not_n_by_n(self, bias_shape):
        x, wq, wk, wv = attention_arrays((2, 6, 8), np.random.default_rng(5))
        with pytest.raises(ValueError, match="bias"):
            ad.attention(Tensor(x), wq, wk, wv, np.zeros(bias_shape), 2)


class TestNoTape:
    @staticmethod
    def assert_untaped(t):
        assert t._parents == ()
        assert t._backward is None
        assert t.requires_grad is False

    def test_results_inside_keep_no_graph(self):
        w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        with ad.no_tape():
            y = ad.matmul(w, w)
            with ad.no_tape():
                inner = ad.add(y, w)
            after_inner = ad.gelu(ad.mul(w, 2.0))
            out = ad.tsum(ad.softmax_rows(ad.add(after_inner, inner)))
        for t in (y, inner, after_inner, out):
            self.assert_untaped(t)
        np.testing.assert_array_equal(y.data, w.data @ w.data)
        assert w.requires_grad  # leaves keep their flag

    def test_recording_resumes_after_block(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        with ad.no_tape():
            ad.mul(w, w)
        out = ad.tsum(ad.mul(w, w))
        assert out.requires_grad and out._parents
        out.backward()
        np.testing.assert_array_equal(w.grad, [2.0, -4.0])

    def test_recording_resumes_after_block_raises(self):
        w = Tensor(np.array([3.0]), requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with ad.no_tape():
                self.assert_untaped(ad.mul(w, w))
                raise RuntimeError("inside")
        out = ad.tsum(ad.mul(w, w))
        out.backward()
        np.testing.assert_array_equal(w.grad, [6.0])


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


class TestErfLoader:
    def test_same_bits_as_scipy_special(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        probe = np.concatenate(
            [RNG.standard_normal(10_000) * scale
             for scale in (0.01, 1.0, 3.0, 10.0)]
            + [np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny,
                         1e-310, -1e-310, 6.0, -6.0, 27.0, -27.0])])
        np.testing.assert_array_equal(
            ad.erf(probe).view(np.uint64),
            scipy.special.erf(probe).view(np.uint64))

    def test_falls_back_to_scipy_special(self, monkeypatch):
        find_spec = importlib.machinery.PathFinder.find_spec
        asked = []

        def no_ufuncs(name, path=None, target=None):
            asked.append(name)
            if name == "scipy.special._special_ufuncs":
                return None
            return find_spec(name, path, target)

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            staticmethod(no_ufuncs))
        assert ad._load_erf() is scipy.special.erf
        assert "scipy.special._special_ufuncs" in asked
