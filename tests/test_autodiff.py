import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from activations import relu, sigmoid, tanh
from gradcheck import gradient_check
from umtn import autodiff as ad
from umtn.autodiff import ParameterStore, Tensor, adam_step, backward, no_grad
from umtn.errors import NumericalError


def leaf(values):
    return Tensor(np.asarray(values, dtype=float), requires_grad=True)


class TestPrimitiveForward:
    def test_add_subtract_multiply(self):
        a, b = leaf([1.0, 2.0]), leaf([10.0, 20.0])
        assert_allclose(ad.add(a, b).values, [11.0, 22.0])
        assert_allclose(ad.subtract(a, b).values, [-9.0, -18.0])
        assert_allclose(ad.multiply(a, b).values, [10.0, 40.0])

    def test_matmul(self):
        a = leaf([[1.0, 2.0], [3.0, 4.0]])
        b = leaf([[1.0], [1.0]])
        assert_allclose(ad.matmul(a, b).values, [[3.0], [7.0]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(leaf(np.ones((2, 3))), leaf(np.ones((2, 3))))

    def test_activations_at_zero(self):
        z = leaf([0.0])
        assert relu(z).values[0] == 0.0
        assert sigmoid(z).values[0] == 0.5
        assert tanh(z).values[0] == 0.0

    def test_relu_clamps(self):
        assert_allclose(relu(leaf([-2.0, 3.0])).values, [0.0, 3.0])

    def test_concat_joins_last_axis(self):
        a, b = leaf([[1.0, 2.0]]), leaf([[3.0]])
        assert_allclose(ad.concat([a, b]).values, [[1.0, 2.0, 3.0]])

    def test_sum(self):
        assert ad.sum(leaf([[1.0, 2.0], [3.0, 4.0]])).item() == 10.0

    def test_permute_reorders_axes(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        out = ad.permute(leaf(x), (0, 2, 1))
        assert np.array_equal(out.values, x.transpose(0, 2, 1))
        assert out.values.flags.c_contiguous

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            ad.permute(leaf(np.zeros((2, 3))), (0, 0))


class TestBackwardGradients:
    def test_square_at_three(self):
        x = leaf([3.0])
        backward(ad.sum(ad.multiply(x, x)))
        assert_allclose(x.grad, [6.0])

    def test_sum_gradient_is_ones(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        backward(ad.sum(x))
        assert_allclose(x.grad, np.ones((2, 3)))

    def test_reuse_accumulates(self):
        x = leaf([2.0])
        backward(ad.sum(ad.add(x, x)))
        assert_allclose(x.grad, [2.0])

    def test_diamond_graph(self):
        x = leaf([1.5])
        y = ad.multiply(x, x)
        backward(ad.sum(ad.add(y, y)))
        assert_allclose(x.grad, [6.0])  # d/dx 2x^2

    def test_linear_combination(self):
        x = leaf([1.0, -1.0])
        loss = ad.sum(ad.add(ad.multiply(x, 2.0), ad.multiply(x, 3.0)))
        backward(loss)
        assert_allclose(x.grad, [5.0, 5.0])

    def test_broadcast_add_row_sums(self):
        a = leaf(np.zeros((2, 3)))
        row = leaf(np.zeros(3))
        backward(ad.sum(ad.add(a, row)))
        assert_allclose(a.grad, np.ones((2, 3)))
        assert_allclose(row.grad, [2.0, 2.0, 2.0])

    def test_matmul_gradients(self):
        a = leaf([[1.0, 2.0]])
        b = leaf([[3.0], [4.0]])
        backward(ad.sum(ad.matmul(a, b)))
        assert_allclose(a.grad, [[3.0, 4.0]])
        assert_allclose(b.grad, [[1.0], [2.0]])

    def test_relu_gates_gradient(self):
        x = leaf([-1.0, 2.0])
        backward(ad.sum(relu(x)))
        assert_allclose(x.grad, [0.0, 1.0])

    def test_sigmoid_gradient_quarter_at_zero(self):
        x = leaf([0.0])
        backward(ad.sum(sigmoid(x)))
        assert_allclose(x.grad, [0.25])

    def test_matmul_constant_operand_gets_no_product(self):
        """The parameter's gradient is bit-identical to the dense formula."""
        rng = np.random.default_rng(40)
        w = leaf(rng.normal(size=(3, 4)))
        phi = Tensor(rng.normal(size=(5, 3)))
        weight = rng.normal(size=(5, 4))
        for out, dense in (
            (ad.matmul(phi, w), phi.values.T @ weight),
            (ad.matmul(ad.reshape(w, (4, 3)), phi.values.T), weight.reshape(4, 5) @ phi.values),
        ):
            w.grad = None
            backward(ad.sum(ad.multiply(out, Tensor(weight.reshape(out.shape)))))
            assert np.array_equal(w.grad, dense.reshape(w.shape))
            assert phi.grad is None

    def test_permute_gradient_is_inverse_permutation(self):
        x = leaf(np.zeros((2, 3, 4)))
        weight = np.arange(24.0).reshape(3, 4, 2)
        backward(ad.sum(ad.multiply(ad.permute(x, (1, 2, 0)), Tensor(weight))))
        assert np.array_equal(x.grad, weight.transpose(2, 0, 1))

    def test_concat_splits_gradient(self):
        a, b = leaf([[1.0, 2.0]]), leaf([[3.0]])
        joined = ad.concat([a, b])
        backward(ad.sum(ad.multiply(joined, Tensor(np.array([[1.0, 10.0, 100.0]])))))
        assert_allclose(a.grad, [[1.0, 10.0]])
        assert_allclose(b.grad, [[100.0]])

    def test_reshape_restores_shape(self):
        x = leaf(np.ones((2, 3)))
        backward(ad.sum(ad.reshape(x, (3, 2))))
        assert x.grad.shape == (2, 3)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            backward(leaf([1.0, 2.0]))

    def test_constant_inputs_get_no_gradient(self):
        x = Tensor(np.array([1.0]))
        y = leaf([2.0])
        backward(ad.sum(ad.multiply(x, y)))
        assert x.grad is None
        assert_allclose(y.grad, [1.0])

    def test_backward_consumes_the_graph(self):
        x = leaf([1.0, 2.0])
        hidden = tanh(ad.multiply(x, 3.0))
        loss = ad.sum(hidden)
        backward(loss)
        assert x.grad is not None  # leaves keep their gradient
        for node in (hidden, loss):
            assert node.grad is None and node._parents is None and node._backward_fn is None
        with pytest.raises(RuntimeError, match="consumed"):
            backward(loss)

    def test_store_backfills_unused_parameters(self):
        store = ParameterStore()
        used = store.register("used", [1.0])
        store.register("unused", [5.0, 6.0])
        backward(ad.sum(ad.multiply(used, used)), store)
        assert_allclose(store["unused"].grad, [0.0, 0.0])


class TestNoGrad:
    def test_values_bitwise_identical(self):
        x = leaf(np.linspace(-1, 1, 7))
        recorded = tanh(ad.multiply(x, 3.0)).values
        with no_grad():
            plain = tanh(ad.multiply(x, 3.0)).values
        assert np.array_equal(recorded, plain)

    def test_no_graph_recorded(self):
        x = leaf([1.0])
        with no_grad():
            y = ad.sum(ad.multiply(x, x))
        backward(y)
        assert x.grad is None

    def test_nesting_restores_recording(self):
        x = leaf([2.0])
        with no_grad():
            pass
        backward(ad.sum(ad.multiply(x, x)))
        assert_allclose(x.grad, [4.0])


def composite_gru(x, h, wz, uz, bz, wr, ur, br, wh, uh, bh):
    """The GRU update spelled out in elementwise primitives."""
    z = sigmoid(ad.add(ad.add(ad.matmul(x, wz), ad.matmul(h, uz)), bz))
    r = sigmoid(ad.add(ad.add(ad.matmul(x, wr), ad.matmul(h, ur)), br))
    cand = tanh(ad.add(ad.add(ad.matmul(x, wh), ad.matmul(ad.multiply(r, h), uh)), bh))
    return ad.add(ad.multiply(ad.subtract(1.0, z), h), ad.multiply(z, cand))


class TestGruCell:
    NAMES = ("x", "h", "wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")

    def store(self, rows=5, width=3, hidden=4, seed=41):
        rng = np.random.default_rng(seed)
        shapes = {"x": (rows, width), "h": (rows, hidden)}
        for gate in "zrh":
            shapes.update({f"w{gate}": (width, hidden), f"u{gate}": (hidden, hidden), f"b{gate}": (hidden,)})
        store = ParameterStore()
        for name in self.NAMES:
            store.register(name, rng.normal(scale=0.8, size=shapes[name]))
        return store

    @staticmethod
    def fused(s, h=None):
        return ad.gru_cell(
            s["x"],
            s["h"] if h is None else h,
            ad.concat([s["wz"], s["wr"], s["wh"]]),
            ad.concat([s["uz"], s["ur"]]),
            s["uh"],
            ad.concat([s["bz"], s["br"], s["bh"]]),
        )

    def test_matches_composite_formula(self):
        store = self.store()
        composite = composite_gru(*(store[name] for name in self.NAMES))
        assert_allclose(self.fused(store).values, composite.values, rtol=0, atol=1e-12)

    def test_gradients_match_composite_formula(self):
        store = self.store()
        weight = Tensor(np.random.default_rng(42).normal(size=(5, 4)))
        grads = []
        for build in (self.fused, lambda s: composite_gru(*(s[name] for name in self.NAMES))):
            store.zero_grads()
            backward(ad.sum(ad.multiply(build(store), weight)), store)
            grads.append({name: store[name].grad.copy() for name in self.NAMES})
        for name in self.NAMES:
            assert_allclose(grads[0][name], grads[1][name], rtol=0, atol=1e-12, err_msg=name)

    def test_constant_state_gets_no_gradient(self):
        store = self.store()
        h = Tensor(np.zeros((5, 4)))
        backward(ad.sum(self.fused(store, h=h)))
        assert h.grad is None and store["x"].grad is not None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="gru_cell"):
            ad.gru_cell(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((3, 12)), np.zeros((4, 8)),
                        np.zeros((4, 4)), np.zeros(11))

    def test_saturated_gates_stay_off_the_underflow_path(self):
        """Gate pre-activations of +-50, +-745, +-1e5 and a NaN.  exp(-v)
        underflows for v above 745, on numpy's slow path; the node clamps v at
        40, where sigmoid is 1 already, so nothing underflows and the new
        state equals the plain formula bit for bit, NaN included."""
        hid, rows = 8, 3
        rng = np.random.default_rng(43)
        z_pre = [50.0, -50.0, 745.0, -745.0, 1e5, -1e5, np.nan, 0.0]
        r_pre = [50.0, -50.0, 745.0, -745.0, 1e5, -1e5, 0.0, 3.0]
        # x is a column of ones and b is zero, so x w + b is the row of w exactly.
        w = np.concatenate([z_pre, r_pre, rng.normal(size=hid)])[None, :]
        x, h, u_h = np.ones((rows, 1)), rng.normal(size=(rows, hid)), rng.normal(size=(hid, hid))
        store = ParameterStore()
        for name, values in (("x", x), ("h", h), ("w", w), ("u_zr", np.zeros((hid, 2 * hid))), ("u_h", u_h),
                             ("b", np.zeros(3 * hid))):
            store.register(name, values)
        with np.errstate(under="raise"):
            out = ad.gru_cell(*store.tensors())
            backward(ad.sum(out), store)
        with np.errstate(over="ignore", under="ignore"):
            z, r = (1.0 / (1.0 + np.exp(-np.array(pre))) for pre in (z_pre, r_pre))
        cand = np.tanh((r * h) @ u_h + w[0, 2 * hid :])
        assert np.array_equal(out.values, h + z * (cand - h), equal_nan=True)
        assert np.isnan(out.values[:, 6]).all() and np.isfinite(np.delete(out.values, 6, axis=1)).all()
        fused = {name: t.grad for name, t in store.items()}
        store.zero_grads()
        wz, wr, wh = np.split(w, 3, axis=1)
        u = np.zeros((hid, hid))
        backward(ad.sum(composite_gru(store["x"], store["h"], wz, u, 0.0, wr, u, 0.0, wh, store["u_h"], 0.0)))
        for name in ("x", "h", "u_h"):
            assert_allclose(fused[name], store[name].grad, rtol=1e-12, atol=1e-300, err_msg=name)


def unfused_mlp(x, layers):
    """The dense stack of `ad.mlp` spelled out in matmul, add and relu nodes."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = ad.add(ad.matmul(h, w), b)
        if i < len(layers) - 1:
            h = relu(h)
    return h


def mlp_gradients(build, arrays, trainable, weight):
    """Output values and operand gradients of `build(x, layers)` under a weighted sum."""
    tensors = [Tensor(a, requires_grad=t) for a, t in zip(arrays, trainable)]
    x, rest = tensors[0], tensors[1:]
    out = build(x, list(zip(rest[::2], rest[1::2])))
    backward(ad.sum(ad.multiply(out, Tensor(weight))))
    return out.values, [t.grad for t in tensors]


class TestMlp:
    @staticmethod
    def operands(rows, widths, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(rows, widths[0]))]
        for w_in, w_out in zip(widths[:-1], widths[1:]):
            arrays += [rng.normal(size=(w_in, w_out)), rng.normal(size=w_out)]
        return arrays, rng.normal(size=(rows, widths[-1]))

    def test_forward_is_bitwise_the_unfused_chain(self):
        arrays, _ = self.operands(7, (5, 6, 4, 3), seed=50)
        layers = list(zip(arrays[1::2], arrays[2::2]))
        assert np.array_equal(ad.mlp(arrays[0], layers).values, unfused_mlp(Tensor(arrays[0]), layers).values)

    def test_gradients_match_the_unfused_chain(self):
        arrays, weight = self.operands(7, (5, 6, 4, 3), seed=51)
        trainable = [True] * len(arrays)
        _, fused = mlp_gradients(ad.mlp, arrays, trainable, weight)
        _, chain = mlp_gradients(unfused_mlp, arrays, trainable, weight)
        for got, expected in zip(fused, chain):
            assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_relu_between_layers_only(self):
        eye = np.eye(2)
        out = ad.mlp([[-1.0, 2.0]], [(eye, np.zeros(2)), (-eye, np.zeros(2))])
        assert_allclose(out.values, [[0.0, -2.0]])  # hidden ReLU clamps, the last layer stays linear

    def test_constant_operands_get_no_gradient(self):
        arrays, weight = self.operands(4, (3, 5, 2), seed=52)
        _, grads = mlp_gradients(ad.mlp, arrays, [False, False, False, True, True], weight)
        assert grads[:3] == [None, None, None]
        assert grads[3] is not None and grads[4] is not None

    @pytest.mark.parametrize(
        "x, layers",
        [
            (np.zeros((2, 3)), []),
            (np.zeros(3), [(np.zeros((3, 2)), np.zeros(2))]),
            (np.zeros((2, 3)), [(np.zeros((4, 2)), np.zeros(2))]),
            (np.zeros((2, 3)), [(np.zeros((3, 2)), np.zeros(3))]),
        ],
    )
    def test_shape_mismatch_rejected(self, x, layers):
        with pytest.raises(ValueError, match="mlp"):
            ad.mlp(x, layers)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        rows=st.integers(1, 6),
        widths=st.lists(st.integers(1, 5), min_size=2, max_size=5),
        data=st.data(),
        seed=st.integers(0, 2**31),
    )
    def test_agrees_with_the_unfused_chain(self, rows, widths, data, seed):
        """Any depth, widths and mix of constant and trainable operands."""
        arrays, weight = self.operands(rows, widths, seed)
        trainable = data.draw(st.lists(st.booleans(), min_size=len(arrays), max_size=len(arrays)))
        fused_out, fused = mlp_gradients(ad.mlp, arrays, trainable, weight)
        chain_out, chain = mlp_gradients(unfused_mlp, arrays, trainable, weight)
        assert np.array_equal(fused_out, chain_out)
        for got, expected, t in zip(fused, chain, trainable):
            if t:
                assert_allclose(got, expected, rtol=1e-12, atol=0)
            else:
                assert got is None and expected is None


def relative_gap(got, expected):
    return np.abs(got - expected).max() / np.abs(expected).max()


class TestRowBlocks:
    """37 rows in blocks of 10 (10, 10, 10 and a ragged 7) against one block."""

    ROWS, BLOCK = 37, 10

    @staticmethod
    def blocked(monkeypatch, widest, rows_per_block):
        monkeypatch.setattr(ad, "ROW_BLOCK_VALUES", widest * rows_per_block)

    def gru_store(self):
        return TestGruCell().store(rows=self.ROWS, width=3, hidden=4, seed=60)

    def gru_run(self, monkeypatch, rows_per_block, record=True):
        """Output and operand gradients of the fused GRU under a weighted sum."""
        self.blocked(monkeypatch, 3 * 4, rows_per_block)
        store = self.gru_store()
        weight = Tensor(np.random.default_rng(61).normal(size=(self.ROWS, 4)))
        if not record:
            with no_grad():
                return TestGruCell.fused(store).values, None
        out = TestGruCell.fused(store)
        backward(ad.sum(ad.multiply(out, weight)), store)
        return out.values, {name: store[name].grad for name in TestGruCell.NAMES}

    def test_block_rows(self, monkeypatch):
        self.blocked(monkeypatch, 12, self.BLOCK)
        assert ad._block_rows(self.ROWS, 12) == self.BLOCK
        assert ad._block_rows(self.ROWS, 10**6) == 1
        assert ad._block_rows(3, 12) == 3

    @pytest.mark.parametrize("record", [True, False])
    def test_gru_forward_is_bitwise_one_block(self, monkeypatch, record):
        blocked, _ = self.gru_run(monkeypatch, self.BLOCK, record)
        whole, _ = self.gru_run(monkeypatch, self.ROWS, record)
        assert np.array_equal(blocked, whole)
        v = {name: t.values for name, t in self.gru_store().items()}
        z = 1.0 / (1.0 + np.exp(-(v["x"] @ v["wz"] + v["h"] @ v["uz"] + v["bz"])))
        r = 1.0 / (1.0 + np.exp(-(v["x"] @ v["wr"] + v["h"] @ v["ur"] + v["br"])))
        cand = np.tanh(v["x"] @ v["wh"] + (r * v["h"]) @ v["uh"] + v["bh"])
        assert_allclose(blocked, (1.0 - z) * v["h"] + z * cand, rtol=0, atol=1e-12)

    def test_gru_gradients_match_one_block_and_the_composite(self, monkeypatch):
        _, blocked = self.gru_run(monkeypatch, self.BLOCK)
        _, whole = self.gru_run(monkeypatch, self.ROWS)
        store = self.gru_store()
        weight = Tensor(np.random.default_rng(61).normal(size=(self.ROWS, 4)))
        composite = composite_gru(*(store[name] for name in TestGruCell.NAMES))
        backward(ad.sum(ad.multiply(composite, weight)), store)
        for name in TestGruCell.NAMES:
            assert relative_gap(blocked[name], whole[name]) < 1e-12, name
            assert relative_gap(blocked[name], store[name].grad) < 1e-12, name

    def test_gru_gradient_check_across_blocks(self, monkeypatch):
        self.blocked(monkeypatch, 12, self.BLOCK)
        weight = Tensor(np.random.default_rng(62).normal(size=(self.ROWS, 4)))
        report = gradient_check(lambda s: ad.sum(ad.multiply(TestGruCell.fused(s), weight)), self.gru_store(), tol=1e-5)
        assert report.passed, f"worst {report.worst_param}[{report.worst_index}]: {report.max_rel_error:.2e}"

    WIDTHS = (5, 6, 4, 3)

    def mlp_run(self, monkeypatch, rows_per_block, trainable):
        self.blocked(monkeypatch, max(self.WIDTHS), rows_per_block)
        arrays, weight = TestMlp.operands(self.ROWS, self.WIDTHS, seed=63)
        return mlp_gradients(ad.mlp, arrays, trainable, weight)

    def test_mlp_forward_is_bitwise_one_block(self, monkeypatch):
        arrays, _ = TestMlp.operands(self.ROWS, self.WIDTHS, seed=63)
        layers = list(zip(arrays[1::2], arrays[2::2]))
        outputs = []
        for rows_per_block in (self.BLOCK, self.ROWS):
            self.blocked(monkeypatch, max(self.WIDTHS), rows_per_block)
            outputs.append(ad.mlp(arrays[0], layers).values)
            outputs.append(ad.mlp(Tensor(arrays[0], requires_grad=True), layers).values)
        assert all(np.array_equal(out, outputs[0]) for out in outputs)

    def test_mlp_gradients_match_one_block_and_the_unfused_chain(self, monkeypatch):
        trainable = [True] * (1 + 2 * (len(self.WIDTHS) - 1))
        _, blocked = self.mlp_run(monkeypatch, self.BLOCK, trainable)
        _, whole = self.mlp_run(monkeypatch, self.ROWS, trainable)
        arrays, weight = TestMlp.operands(self.ROWS, self.WIDTHS, seed=63)
        _, chain = mlp_gradients(unfused_mlp, arrays, trainable, weight)
        for got, one_block, expected in zip(blocked, whole, chain):
            assert relative_gap(got, one_block) < 1e-12
            assert relative_gap(got, expected) < 1e-12

    def test_mlp_gradient_check_across_blocks(self, monkeypatch):
        self.blocked(monkeypatch, max(self.WIDTHS), self.BLOCK)
        arrays, weight = TestMlp.operands(self.ROWS, self.WIDTHS, seed=64)
        store = ParameterStore()
        for i, values in enumerate(arrays):
            store.register(f"p{i}", values)

        def loss(s):
            layers = [(s[f"p{i}"], s[f"p{i + 1}"]) for i in range(1, len(arrays), 2)]
            return ad.sum(ad.multiply(ad.mlp(s["p0"], layers), Tensor(weight)))

        report = gradient_check(loss, store, tol=1e-5)
        assert report.passed, f"worst {report.worst_param}[{report.worst_index}]: {report.max_rel_error:.2e}"

    def test_mlp_recompute_over_a_ragged_block_is_exact(self, monkeypatch):
        """Small-integer operands make every sum exact whatever its order, so
        the gradients through hidden layers recomputed block by block (the
        last block 7 rows in work arrays of 10) equal one block's, and the
        unfused chain's, bit for bit."""
        rng = np.random.default_rng(69)
        arrays, weight = TestMlp.operands(self.ROWS, self.WIDTHS, seed=69)
        arrays = [rng.integers(-3, 4, size=a.shape).astype(float) for a in arrays]
        weight = rng.integers(-3, 4, size=weight.shape).astype(float)
        trainable = [True] * len(arrays)
        runs = []
        for rows_per_block in (self.BLOCK, self.ROWS):
            self.blocked(monkeypatch, max(self.WIDTHS), rows_per_block)
            runs.append(mlp_gradients(ad.mlp, arrays, trainable, weight))
        runs.append(mlp_gradients(unfused_mlp, arrays, trainable, weight))
        for out, grads in runs[1:]:
            assert np.array_equal(out, runs[0][0])
            assert all(np.array_equal(got, expected) for got, expected in zip(runs[0][1], grads))

    @staticmethod
    def spatial_net(rng, record):
        """The spatial net's shape: 180 x 180 site pairs through 5-64-32-8."""
        widths = (5, 64, 32, 8)
        layers = [(Tensor(glorot, requires_grad=record), Tensor(np.zeros(cols), requires_grad=record))
                  for glorot, cols in ((rng.normal(size=(a, b)) / np.sqrt(a), b) for a, b in zip(widths, widths[1:]))]
        return rng.normal(size=(180 * 180, widths[0])), layers

    @pytest.mark.parametrize("record", [True, False])
    def test_mlp_peaks_at_its_output_and_one_block(self, record):
        """Recorded or not, the forward holds its output plus one block of
        hidden-layer work arrays, under a bound of two."""
        x, layers = self.spatial_net(np.random.default_rng(67), record)
        block_rows = ad._block_rows(len(x), 64)
        work = 8 * block_rows * (64 + 32)
        ad.mlp(x[:8], layers)  # first-call allocations
        tracemalloc.start()
        try:
            out = ad.mlp(x, layers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad == record and block_rows < len(x)
        assert peak <= out.values.nbytes + 2 * work

    def test_recorded_mlp_keeps_its_output_only(self):
        """A recorded node recomputes its hidden layers in backward instead of
        keeping them (24.9 MB here, beside a 2.1 MB output)."""
        x, layers = self.spatial_net(np.random.default_rng(68), record=True)
        tracemalloc.start()
        try:
            out = ad.mlp(x, layers)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= 1.05 * out.values.nbytes

    @staticmethod
    def gru_weights(rng, width, hid):
        shapes = ((width, 3 * hid), (hid, 2 * hid), (hid, hid), (3 * hid,))
        return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]

    def test_graph_free_gru_holds_its_output_and_one_block(self):
        """4096 rows at 64 hidden units: the unblocked node held 9 arrays of
        rows x 64 (19 MB); now the output plus the xw, zr, r * h and candidate
        work arrays of one block, under a bound of two."""
        rows, width, hid = 4096, 17, 64
        rng = np.random.default_rng(65)
        x, h = rng.normal(size=(rows, width)), rng.normal(size=(rows, hid))
        weights = self.gru_weights(rng, width, hid)
        block_rows = ad._block_rows(rows, 3 * hid)
        work = 8 * block_rows * (3 + 2 + 1 + 1) * hid
        with no_grad():
            ad.gru_cell(x[:8], h[:8], *weights)  # first-call allocations
            tracemalloc.start()
            try:
                out = ad.gru_cell(x, h, *weights)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert block_rows < rows
        assert peak <= out.values.nbytes + 2 * work

    def test_recorded_gru_keeps_gates_and_candidate_only(self):
        """Beside its output, a recorded node holds [z | r] and the candidate."""
        rows, width, hid = 4096, 17, 64
        rng = np.random.default_rng(66)
        x, h = rng.normal(size=(rows, width)), rng.normal(size=(rows, hid))
        weights = self.gru_weights(rng, width, hid)
        tracemalloc.start()
        try:
            out = ad.gru_cell(x, h, *weights)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= 1.05 * 8 * rows * (1 + 2 + 1) * hid


class TestSharedLeftOperand:
    """A matmul's left-operand gradient is formed once per operand, from all its uses."""

    def test_leaf_left_of_three_products(self):
        rng = np.random.default_rng(70)
        a = leaf(rng.normal(size=(6, 5)))
        rights = [rng.normal(size=(5, k)) for k in (1, 3, 4)]
        weights = [rng.normal(size=(6, k)) for k in (1, 3, 4)]
        loss = ad.sum(ad.concat([ad.multiply(ad.matmul(a, b), Tensor(w)) for b, w in zip(rights, weights)]))
        backward(loss)
        expected = sum(w @ b.T for b, w in zip(rights, weights))
        assert relative_gap(a.grad, expected) < 1e-14
        with pytest.raises(RuntimeError, match="consumed"):
            backward(loss)

    def test_non_leaf_left_of_two_products_and_an_add(self):
        rng = np.random.default_rng(71)
        x = leaf(rng.normal(size=(3, 8)))
        a = ad.reshape(x, (6, 4))
        b1, b2 = rng.normal(size=(4, 2)), rng.normal(size=(4, 5))
        w1, w2, w3 = rng.normal(size=(6, 2)), rng.normal(size=(6, 5)), rng.normal(size=(6, 4))
        terms = [ad.matmul(a, b1), ad.matmul(a, b2), a]
        loss = ad.sum(ad.concat([ad.multiply(t, Tensor(w)) for t, w in zip(terms, (w1, w2, w3))]))
        backward(loss)
        expected = (w1 @ b1.T + w2 @ b2.T + w3).reshape(3, 8)
        assert relative_gap(x.grad, expected) < 1e-14
        assert a.grad is None  # the walk consumed the intermediate
        with pytest.raises(RuntimeError, match="consumed"):
            backward(loss)


def random_composite(seed):
    """A small random program over registered parameters, returned as a loss fn."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    m, k, n = rng.integers(1, 4, size=3)
    store.register("w", rng.normal(size=(m, k)))
    store.register("v", rng.normal(size=(k, n)))
    store.register("b", rng.normal(size=(m, n)))
    activation = [relu, sigmoid, tanh][seed % 3]
    combiner = [ad.add, ad.subtract, ad.multiply][seed % 3]

    def loss(s):
        prod = ad.matmul(s["w"], s["v"])
        return ad.sum(activation(combiner(prod, s["b"])))

    return loss, store


class TestGradientCheck:
    def test_quadratic_passes_tight_tolerance(self):
        store = ParameterStore()
        store.register("w", np.array([0.3, -1.2, 2.0, 0.0, 0.7]))
        report = gradient_check(lambda s: ad.sum(ad.multiply(s["w"], s["w"])), store, tol=1e-6)
        assert report.passed
        assert report.n_checked == 5

    @pytest.mark.parametrize("seed", range(50))
    def test_random_primitive_compositions(self, seed):
        loss, store = random_composite(seed)
        report = gradient_check(loss, store, tol=1e-4)
        assert report.passed, f"seed {seed}: worst {report.worst_param}[{report.worst_index}]"

    def test_two_step_recurrence(self):
        """Parameters reused across time steps accumulate correctly."""
        store = ParameterStore()
        rng = np.random.default_rng(21)
        store.register("w", rng.normal(size=(3, 4), scale=0.5))
        store.register("u", rng.normal(size=(4, 4), scale=0.5))
        store.register("b", rng.normal(size=(1, 4), scale=0.5))
        x = Tensor(rng.normal(size=(1, 3)))

        def loss(s):
            h = tanh(ad.add(ad.matmul(x, s["w"]), s["b"]))
            h = tanh(ad.add(ad.add(ad.matmul(x, s["w"]), ad.matmul(h, s["u"])), s["b"]))
            return ad.sum(h)

        assert gradient_check(loss, store, tol=1e-5).passed

    def test_detached_factor_fails_the_check(self):
        """Negative control: silently dropping a dependency must be caught."""
        store = ParameterStore()
        store.register("w", np.array([1.0, 2.0]))

        def broken(s):
            detached = Tensor(s["w"].values.copy())  # same numbers, no graph edge
            return ad.sum(ad.multiply(s["w"], detached))

        report = gradient_check(broken, store, tol=1e-4)
        assert not report.passed
        assert report.max_rel_error > 0.1

    def test_sampled_subset_counts(self):
        store = ParameterStore()
        store.register("w", np.zeros((4, 4)))
        report = gradient_check(lambda s: ad.sum(ad.multiply(s["w"], s["w"])), store, tol=1e-5, sample=3)
        assert report.n_checked == 3

    def test_non_finite_loss_raises(self):
        store = ParameterStore()
        store.register("w", np.array([np.inf]))
        with pytest.raises(NumericalError):
            gradient_check(lambda s: ad.sum(s["w"]), store, tol=1e-5)


def reference_adam(values, grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Straight transcription of bias-corrected Adam, independent of the engine."""
    x = np.array(values, dtype=float)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=float)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        store = ParameterStore()
        w = store.register("w", [1.0, -2.0])
        w.grad = np.array([0.5, -3.0])
        adam_step(store, lr=0.01)
        assert_allclose(w.values, [1.0 - 0.01, -2.0 + 0.01], atol=1e-9)

    def test_zero_gradient_leaves_parameter_unchanged(self):
        store = ParameterStore()
        w = store.register("w", [4.0])
        w.grad = np.zeros(1)
        adam_step(store)
        assert w.values[0] == 4.0

    def test_matches_reference_over_several_steps(self):
        rng = np.random.default_rng(31)
        start = rng.normal(size=(2, 3))
        grads = [rng.normal(size=(2, 3)) for _ in range(5)]
        store = ParameterStore()
        w = store.register("w", start)
        for g in grads:
            w.grad = g.copy()
            adam_step(store, lr=0.05)
        assert_allclose(w.values, reference_adam(start, grads, lr=0.05), atol=1e-12)

    def test_missing_gradient_raises(self):
        store = ParameterStore()
        store.register("w", [1.0])
        with pytest.raises(RuntimeError, match="no gradient"):
            adam_step(store)

    def test_gradients_cleared_after_step(self):
        store = ParameterStore()
        w = store.register("w", [1.0])
        w.grad = np.ones(1)
        adam_step(store)
        assert w.grad is None

    def test_deterministic_across_stores(self):
        def run():
            store = ParameterStore()
            w = store.register("w", [0.5, 1.5])
            for i in range(3):
                w.grad = np.array([1.0 + i, -1.0])
                adam_step(store, lr=0.02)
            return w.values

        assert np.array_equal(run(), run())

    def test_nonpositive_lr_rejected(self):
        store = ParameterStore()
        w = store.register("w", [1.0])
        w.grad = np.ones(1)
        with pytest.raises(ValueError):
            adam_step(store, lr=0.0)


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.register("w", [1.0])
        with pytest.raises(ValueError):
            store.register("w", [2.0])

    def test_parameter_count(self):
        store = ParameterStore()
        store.register("a", np.zeros((2, 3)))
        store.register("b", np.zeros(4))
        assert sum(values.size for values in store.snapshot().values()) == 10

    def test_snapshot_round_trip(self):
        store = ParameterStore()
        w = store.register("w", [1.0, 2.0])
        snap = store.snapshot()
        w.values = np.array([9.0, 9.0])
        store.load_snapshot(snap)
        assert_allclose(store["w"].values, [1.0, 2.0])

    def test_snapshot_is_isolated(self):
        store = ParameterStore()
        store.register("w", [1.0])
        snap = store.snapshot()
        snap["w"][0] = 100.0
        assert store["w"].values[0] == 1.0

    def test_load_snapshot_validates_names_and_shapes(self):
        store = ParameterStore()
        store.register("w", [1.0, 2.0])
        with pytest.raises(ValueError):
            store.load_snapshot({"other": np.zeros(2)})
        with pytest.raises(ValueError):
            store.load_snapshot({"w": np.zeros(3)})


@st.composite
def broadcast_pairs(draw):
    """A gradient shape and an operand shape that broadcasts to it."""
    result = draw(hnp.array_shapes(min_dims=0, max_dims=4, min_side=1, max_side=4))
    kept = result[draw(st.integers(0, len(result))):]
    return result, tuple(1 if draw(st.booleans()) else s for s in kept)


class TestUnbroadcastProperty:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(shapes=broadcast_pairs(), seed=st.integers(0, 2**31))
    def test_sums_the_broadcast_gradient(self, shapes, seed):
        """The operand gets the sum of the gradient over every position it was broadcast to."""
        result, shape = shapes
        grad = np.random.default_rng(seed).normal(size=result)
        expected = np.zeros(shape)
        lead = len(result) - len(shape)
        for index in np.ndindex(*result):
            expected[tuple(0 if s == 1 else i for i, s in zip(index[lead:], shape))] += grad[index]
        reduced = ad._unbroadcast(grad, shape)
        assert np.shape(reduced) == shape
        assert_allclose(reduced, expected, rtol=1e-12, atol=1e-12)
