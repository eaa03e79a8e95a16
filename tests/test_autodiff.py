import asyncio
import inspect
import math
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import grad_check, reshape
import lahn.autodiff as ad
from lahn.data import EncodedSplit
from lahn.metrics import EVAL_ELEMENTS

RTOL = 1e-4
FD_H = 1e-5


def scalar_sum(x: ad.Tensor) -> ad.Tensor:
    n = x.values.size
    ones = ad.constant(np.ones((n, 1)))
    return reshape(ad.matmul(reshape(x, (1, n)), ones), ())


def one_hot_ce(logits: ad.Tensor, targets) -> ad.Tensor:
    """Batch-mean softmax-CE against integer targets: the masked kernel with
    every logit valid and weight 1/B on each row's target."""
    n, c = logits.shape
    weights = np.zeros((n, c))
    weights[np.arange(n), targets] = 1.0 / n
    return ad.masked_softmax_cross_entropy(logits, np.ones((n, c), dtype=bool), weights)


def reference_softmax_ce(logits, targets) -> tuple[float, np.ndarray]:
    """Independent route, plain numpy: the batch mean of -log softmax(row)[t]
    and its gradient (softmax - onehot) / B."""
    logits = np.asarray(logits, dtype=np.float64)
    n = logits.shape[0]
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    softmax = exp / exp.sum(axis=1, keepdims=True)
    value = (np.log(exp.sum(axis=1)) - shifted[rows, targets]).mean()
    grad = softmax.copy()
    grad[rows, targets] -= 1.0
    return value, grad / n


def naive_cosine(a, b, eps=1e-8):
    # independent route: pure-python dot and norms, norms clamped at eps
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = max(math.sqrt(math.fsum(x * x for x in a)), eps)
    nb = max(math.sqrt(math.fsum(y * y for y in b)), eps)
    return dot / (na * nb)


def cosine(a, b) -> float:
    """cos(a, b) through ad.cosine: one row against one row."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return ad.cosine(ad.constant(a[None, :]), ad.constant(b[None, :])).values.item()


class TestValueSemantics:
    def test_matmul_identity(self):
        a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        eye = ad.constant(np.eye(2))
        np.testing.assert_array_equal(ad.matmul(a, eye).values, a.values)

    def test_matmul_dot(self):
        out = ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.values, [[11.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 2))))

    def test_embedding_gather_order(self):
        table = ad.constant(np.arange(6.0).reshape(3, 2))
        out = ad.embed_mean_pool(table, [[2, 0], [0, 1]], [[True, False], [True, False]])
        np.testing.assert_array_equal(out.values, [[4.0, 5.0], [0.0, 1.0]])

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("bad", [-1, -(2**63), 5, 2**62], ids=["-1", "-2**63", "n_rows", "2**62"])
    def test_embedding_out_of_range(self, bad, masked):
        # a masked position is still an id: it must name a table row
        ids = np.array([[0, 4, 2, 1], [3, 3, 0, 0]])
        mask = np.array([[True, True, True, False], [True, True, False, False]])
        ids[1, 3 if masked else 1] = bad
        with pytest.raises(IndexError, match=rf"^id {re.escape(str(bad))} out of range for table with 5 rows$"):
            ad.embed_mean_pool(ad.constant(np.zeros((5, 3))), ids, mask)

    def test_embedding_repeated_id_accumulates(self):
        table = ad.param(np.zeros((3, 2)))
        with ad.Tape() as tape:
            out = ad.embed_mean_pool(table, [[1, 1], [1, 0]], [[True, True], [True, False]])
            loss = scalar_sum(out)
            tape.backward(loss)
        np.testing.assert_array_equal(table.grad.dense(table.shape), [[0.0, 0.0], [2.0, 2.0], [0.0, 0.0]])

    def test_mean_pool_values(self):
        table = ad.constant([[1.0, 1.0], [3.0, 3.0], [9.0, 9.0]])
        out = ad.embed_mean_pool(table, [[0, 1], [0, 2]], [[True, True], [True, False]])
        np.testing.assert_array_equal(out.values, [[2.0, 2.0], [1.0, 1.0]])

    def test_mean_pool_all_false_mask(self):
        with pytest.raises(ValueError, match="mask"):
            ad.embed_mean_pool(
                ad.constant(np.ones((2, 2))), [[0, 1], [1, 1]], [[True, False], [False, False]]
            )

    def test_mean_pool_gradient_split(self):
        table = ad.param(np.ones((4, 2)))
        with ad.Tape() as tape:
            loss = scalar_sum(ad.embed_mean_pool(table, [[0, 1, 2]], [[True, False, True]]))
            tape.backward(loss)
        np.testing.assert_array_equal(
            table.grad.dense(table.shape), [[0.5, 0.5], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0]]
        )

    def test_relu(self):
        np.testing.assert_array_equal(ad.relu(ad.constant([-1.0, 2.0])).values, [0.0, 2.0])

    def test_scale_identity(self):
        x = ad.constant([1.5, -2.0])
        np.testing.assert_array_equal(ad.scale(x, 1.0).values, x.values)

    def test_add_shape_errors(self):
        a, b = ad.constant([1.0]), ad.constant([1.0, 2.0])
        with pytest.raises(ad.ShapeError):
            ad.add(a, b)

    def test_softmax_ce_hand_cases(self):
        ln2 = one_hot_ce(ad.constant([[0.0, 0.0]]), [0])
        np.testing.assert_allclose(float(ln2.values), 0.693147, atol=1e-6)
        saturated = one_hot_ce(ad.constant([[100.0, 0.0]]), [0])
        assert float(saturated.values) < 1e-8
        three = one_hot_ce(ad.constant([[1.0, 2.0, 3.0]]), [2])
        np.testing.assert_allclose(float(three.values), 0.407606, atol=1e-6)

    def test_softmax_ce_uniform_equals_ln_c(self):
        for c in (2, 3, 7):
            out = one_hot_ce(ad.constant(np.zeros((4, c))), [0] * 4)
            np.testing.assert_allclose(float(out.values), math.log(c), rtol=1e-12)

    def test_cosine_self_and_orthogonal(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(cosine(v, v), 1.0, rtol=1e-12)
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_cosine_zero_vector_guarded(self):
        assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0
        assert cosine([1.0, 0.0], [0.0, 0.0]) == 0.0

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=30)
    def test_cosine_scale_invariance(self, alpha):
        a = np.array([0.3, -1.2, 0.7])
        b = np.array([-0.5, 0.4, 1.1])
        np.testing.assert_allclose(cosine(alpha * a, b), cosine(a, b), atol=1e-12)
        np.testing.assert_allclose(cosine(a, alpha * b), cosine(a, b), atol=1e-12)

    def test_cosine_bounds_random(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 4))
        c = ad.cosine(ad.constant(x), ad.constant(rng.normal(size=(150, 4)))).values
        assert (np.abs(c) <= 1.0 + 1e-9).all()

    def test_cosine_many_matches_stacked_scalar_calls(self):
        # every anchor against every row equals one naive cosine per pair
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5))
        rows = rng.normal(size=(7, 5))
        got = ad.cosine(ad.constant(x), ad.constant(rows)).values
        want = [[naive_cosine(a, r) for r in rows] for a in x]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_cosine_blocks_shape_errors(self):
        with pytest.raises(ad.ShapeError):
            ad.cosine(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 2))))
        with pytest.raises(ad.ShapeError):
            ad.cosine(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 1, 3))))
        with pytest.raises(ad.ShapeError):
            ad.cosine(ad.constant(np.ones(3)), ad.constant(np.ones((2, 3))))


def reference_pool(table, ids, mask, g):
    """One gather-and-mean per example, then one row-major scatter-add of
    every token's share into zeros: the route embed_mean_pool must equal."""
    out = np.stack([table[ids[b]][mask[b]].mean(axis=0) for b in range(len(ids))])
    return out, dense_scatter(np.zeros_like(table), ids, mask, g)


def pooled_with_grad(table_values, ids, mask, g):
    table = ad.param(table_values.copy())
    with ad.Tape() as tape:
        out = ad.embed_mean_pool(table, ids, mask)
        n = out.values.size
        # loss = sum(out * g), so the upstream gradient of out is exactly g
        flat = ad.matmul(reshape(out, (1, n)), ad.constant(g.reshape(n, 1)))
        tape.backward(reshape(flat, ()))
    return out.values, table.grad.dense(table.shape)


class TestEmbedMeanPool:
    def random_case(self, rng, v, d, b, t, ragged=True):
        ids = rng.integers(0, v, size=(b, t))
        lens = rng.integers(1, t + 1, size=b) if ragged else np.full(b, t)
        mask = np.arange(t)[None, :] < lens[:, None]
        return rng.normal(size=(v, d)), ids, mask, rng.normal(size=(b, d))

    @pytest.mark.parametrize("d", [2, 3, 64])
    def test_bitwise_equal_to_per_example_route(self, d):
        rng = np.random.default_rng(d)
        for _ in range(30):
            # a small vocabulary forces ids repeated within and across examples
            case = self.random_case(rng, v=7, d=d, b=int(rng.integers(1, 17)), t=int(rng.integers(1, 40)))
            got = pooled_with_grad(*case)
            want = reference_pool(*case)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 8), st.integers(1, 12), st.integers(0, 3), st.integers(2, 64), st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_a_sum_that_skips_masked_slots(self, b, t, pad, d, seed):
        # the reference is the formula the pool replaced: np.sum with where=,
        # which starts from +0.0 and never reads a masked slot
        rng = np.random.default_rng(seed)
        v = int(rng.integers(1, 6))
        table = rng.normal(size=(v + 3, d))
        special = rng.random((v, d)) < 0.5
        table[:v][special] = rng.choice([-0.0, 0.0, 5e-324, -5e-324, 1e300], size=int(special.sum()))
        table[v:] = np.array([np.inf, -np.inf, np.nan])[:, None]  # rows only masked slots name
        ids = rng.integers(0, v, size=(b, t + pad))
        mask = rng.random((b, t + pad)) < 0.6  # holes anywhere, not a prefix
        mask[np.arange(b), rng.integers(0, t, size=b)] = True
        mask[:, t:] = False  # trailing all-PAD columns
        ids[~mask] = rng.integers(0, v + 3, size=int((~mask).sum()))
        if b:
            # one column whose unmasked entries in example 0 are all -0.0
            table[ids[0][mask[0]], rng.integers(0, d)] = -0.0
        want = np.sum(table[ids], axis=1, where=mask[:, :, None]) / mask.sum(axis=1)[:, None]
        got = ad.embed_mean_pool(ad.constant(table), ids, mask).values
        assert got.shape == (b, d)
        assert_bitwise(got, want)

    def test_id_layout_changes_no_bit(self):
        # a C-contiguous result whatever the ids' layout, so the next matmul's
        # bits do not depend on it either
        rng = np.random.default_rng(6)
        table = ad.constant(rng.normal(size=(50, 16)))
        ids = rng.integers(0, 50, size=(12, 10))
        mask = rng.random((12, 10)) < 0.6
        mask[:, 0] = True
        wide = rng.integers(0, 50, size=(12, 15))
        wide[:, 2:12] = ids
        rows = rng.integers(0, 50, size=(20, 10))
        rows[5:17] = ids
        split = EncodedSplit(rows, np.zeros(20, np.int64), [""] * 20)[5:17]
        want = ad.embed_mean_pool(table, ids, mask).values
        assert want.flags.c_contiguous
        for layout in (np.asfortranarray(ids), wide[:, 2:12], split.ids):
            got = ad.embed_mean_pool(table, layout, mask).values
            assert got.flags.c_contiguous
            assert_bitwise(got, want)

    def test_trailing_pad_columns_and_interior_holes(self):
        rng = np.random.default_rng(1)
        table, ids, _, g = self.random_case(rng, v=5, d=4, b=6, t=12)
        mask = rng.random((6, 12)) < 0.5
        mask[:, 0] = True
        mask[:, 7:] = False  # five trailing all-PAD columns
        got = pooled_with_grad(table, ids, mask, g)
        want = reference_pool(table, ids, mask, g)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_width_one_embedding_within_tolerance(self):
        # at d = 1 numpy's mean sums pairwise, so only the order-free tolerance holds
        rng = np.random.default_rng(2)
        case = self.random_case(rng, v=9, d=1, b=5, t=50)
        got = pooled_with_grad(*case)
        want = reference_pool(*case)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-15)

    def test_one_tape_entry_for_the_batch(self):
        table = ad.param(np.ones((4, 2)))
        with ad.Tape() as tape:
            ad.embed_mean_pool(table, np.ones((8, 5), np.int64), np.ones((8, 5), bool))
        assert len(tape) == 1

    def test_pool_allocates_about_one_gather(self):
        # the masked sum reads the gather in place: no B x W x d masked copy
        rng = np.random.default_rng(5)
        table = ad.constant(rng.normal(size=(20_000, 64)))
        ids = rng.integers(0, 20_000, size=(16, 64))
        mask = rng.random((16, 64)) < 0.7
        mask[:, -1] = True  # every column is gathered
        gather = 16 * 64 * 64 * 8
        tracemalloc.start()
        try:
            ad.embed_mean_pool(table, ids, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gather <= peak < 1.25 * gather

    def test_pool_at_the_eval_chunk_allocates_about_one_gather(self):
        # a scoring forward's chunk: 64 rows of width 8 at d 64 make the
        # EVAL_ELEMENTS gather, and the pool allocates little beyond it
        rng = np.random.default_rng(7)
        table = ad.constant(rng.normal(size=(2_000, 64)))
        ids = rng.integers(0, 2_000, size=(64, 8))
        mask = rng.random((64, 8)) < 0.7
        mask[:, -1] = True  # every column is gathered
        gather = EVAL_ELEMENTS * 8
        assert ids.size * 64 == EVAL_ELEMENTS
        tracemalloc.start()
        try:
            ad.embed_mean_pool(table, ids, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gather <= peak < 1.25 * gather

    def test_shape_errors(self):
        table = ad.constant(np.zeros((3, 2)))
        with pytest.raises(ad.ShapeError):
            ad.embed_mean_pool(table, [0, 1], [True, True])
        with pytest.raises(ad.ShapeError):
            ad.embed_mean_pool(table, [[0, 1]], [[True]])


class TestSumRows:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_add_at_into_zeros(self, n, k, d, seed):
        # repeated slots in any order, signed zeros and magnitudes far apart,
        # so a different summation order or start value would show
        rng = np.random.default_rng(seed)
        slot = rng.integers(0, n, size=k)
        values = rng.choice([-0.0, 0.0, 1e-300, -1.0, 1e16, 3.0, -5e-324], size=(k, d)) * rng.normal(size=(k, d))
        values[rng.random((k, d)) < 0.2] = -0.0
        want = np.zeros((n, d))
        np.add.at(want, slot, values)
        assert_bitwise(ad._sum_rows(slot, values, n), want)


def dense_scatter(grad, ids, mask, g):
    """embed_mean_pool's backward into a full table gradient: every unmasked
    token's share ``g[b] / count[b]``, scatter-added in row-major token
    order. The reference for RowGrad."""
    ids, mask = np.asarray(ids), np.asarray(mask, dtype=bool)
    example, _ = np.nonzero(mask)
    np.add.at(grad, ids[mask], (g / mask.sum(axis=1)[:, None])[example])
    return grad


def two_stage_scatter(grad, ids, mask, g):
    """The older summation order: each row's shares summed within an example
    first, then those sums scatter-added across examples in descending
    order, as one gather-and-pool per example would. The same sums as
    ``dense_scatter`` up to rounding."""
    ids, mask = np.asarray(ids), np.asarray(mask, dtype=bool)
    n_rows = grad.shape[0]
    example, _ = np.nonzero(mask)
    pairs, slot = np.unique(example * n_rows + ids[mask], return_inverse=True)
    per_example = np.zeros((pairs.size, grad.shape[1]))
    np.add.at(per_example, slot, (g / mask.sum(axis=1)[:, None])[example])
    np.add.at(grad, pairs[::-1] % n_rows, per_example[::-1])
    return grad


def add_row_sums(grad, ids, mask, g):
    """A pool's gradient reaching a table that already has one: its per-row
    sums, each taken from 0.0 as ``dense_scatter`` into zeros takes them,
    added into the rows the batch used."""
    rows = np.unique(np.asarray(ids)[np.asarray(mask, dtype=bool)])
    grad[rows] += dense_scatter(np.zeros(grad.shape), ids, mask, g)[rows]
    return grad


def assert_bitwise(a, b):
    # assert_array_equal alone takes -0.0 == 0.0
    np.testing.assert_array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def dot_with(x: ad.Tensor, g: np.ndarray) -> ad.Tensor:
    """sum(x * g) as a tape scalar: the upstream gradient of x is exactly g."""
    n = x.values.size
    return reshape(ad.matmul(reshape(x, (1, n)), ad.constant(g.reshape(n, 1))), ())


class TestRowGrad:
    def test_dense_scatters_rows_into_zeros(self):
        grad = ad.RowGrad(np.array([0, 2]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(grad.dense((3, 2)), [[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])

    @staticmethod
    def pool_cases(d):
        """Thirty pooled batches over a small vocabulary, so ids repeat within
        and across examples, with some -0.0 upstream entries: the table
        after backward, ids, mask and upstream gradient of each."""
        rng = np.random.default_rng(10 + d)
        for _ in range(30):
            v, b, t = int(rng.integers(2, 12)), int(rng.integers(1, 17)), int(rng.integers(1, 30))
            ids = rng.integers(0, v, size=(b, t))
            mask = np.arange(t)[None, :] < rng.integers(1, t + 1, size=b)[:, None]
            g = rng.normal(size=(b, d))
            g[rng.random(g.shape) < 0.1] = -0.0
            table = ad.param(rng.normal(size=(v, d)))
            with ad.Tape() as tape:
                tape.backward(dot_with(ad.embed_mean_pool(table, ids, mask), g))
            yield table, ids, mask, g

    @pytest.mark.parametrize("d", [1, 2, 3, 64])
    def test_pool_gradient_bitwise_equal_to_dense_scatter(self, d):
        for table, ids, mask, g in self.pool_cases(d):
            grad = table.grad
            assert isinstance(grad, ad.RowGrad)
            np.testing.assert_array_equal(grad.rows, np.unique(ids[mask]))
            assert grad.values.shape == (grad.rows.size, d)
            assert_bitwise(grad.dense(table.shape), dense_scatter(np.zeros(table.shape), ids, mask, g))

    @pytest.mark.parametrize("d", [1, 2, 3, 64])
    def test_pool_gradient_within_rounding_of_two_stage_route(self, d):
        # any order sums n terms to within about (n - 1) * eps times the sum
        # of their magnitudes, so two orders differ by at most twice that;
        # here n <= 16 * 29, so 1e-12 bounds it
        for table, ids, mask, g in self.pool_cases(d):
            got = table.grad.dense(table.shape)
            want = two_stage_scatter(np.zeros(table.shape), ids, mask, g)
            magnitude = dense_scatter(np.zeros(table.shape), ids, mask, np.abs(g))
            assert (np.abs(got - want) <= 1e-12 * magnitude).all()

    def test_table_pooled_twice_adds_row_sums_into_dense_gradient(self):
        rng = np.random.default_rng(20)
        ids1, ids2 = rng.integers(0, 6, size=(4, 5)), rng.integers(0, 6, size=(3, 7))
        mask1, mask2 = rng.random((4, 5)) < 0.7, rng.random((3, 7)) < 0.7
        mask1[:, 0] = mask2[:, 0] = True
        g1, g2 = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
        table = ad.param(rng.normal(size=(6, 3)))
        with ad.Tape() as tape:
            first = dot_with(ad.embed_mean_pool(table, ids1, mask1), g1)
            second = dot_with(ad.embed_mean_pool(table, ids2, mask2), g2)
            tape.backward(ad.add(first, second))
        # backward visits the second pool first; its RowGrad is densified
        want = add_row_sums(dense_scatter(np.zeros((6, 3)), ids2, mask2, g2), ids1, mask1, g1)
        assert_bitwise(table.grad, want)

    @pytest.mark.parametrize("pool_first", [True, False])
    def test_pool_and_matmul_on_one_table_add_in_backward_order(self, pool_first):
        rng = np.random.default_rng(21)
        ids = rng.integers(0, 6, size=(4, 5))
        mask = np.ones((4, 5), dtype=bool)
        g, c = rng.normal(size=(4, 3)), rng.normal(size=(2, 6))
        table = ad.param(rng.normal(size=(6, 3)))
        with ad.Tape() as tape:
            if pool_first:
                pooled = dot_with(ad.embed_mean_pool(table, ids, mask), g)
                product = scalar_sum(ad.matmul(ad.constant(c), table))
            else:
                product = scalar_sum(ad.matmul(ad.constant(c), table))
                pooled = dot_with(ad.embed_mean_pool(table, ids, mask), g)
            tape.backward(ad.add(pooled, product))
        from_matmul = c.T @ np.ones((2, 3))
        if pool_first:  # the matmul's rule runs first and leaves a dense gradient
            want = add_row_sums(from_matmul.copy(), ids, mask, g)
        else:
            want = dense_scatter(np.zeros((6, 3)), ids, mask, g)
            want += from_matmul
        assert_bitwise(table.grad, want)

    def test_pooled_intermediate_passes_a_dense_gradient_on(self):
        base = ad.param(np.arange(12.0))
        ids, mask = [[0, 2], [2, 2]], [[True, True], [True, False]]
        with ad.Tape() as tape:
            table = reshape(base, (4, 3))
            tape.backward(scalar_sum(ad.embed_mean_pool(table, ids, mask)))
        want = dense_scatter(np.zeros((4, 3)), ids, mask, np.ones((2, 3))).reshape(-1)
        assert_bitwise(base.grad, want)


class TestCosineMatrix:
    def test_matches_pairwise_scalar_cosines(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4))
        got = ad.cosine(ad.constant(x), ad.constant(x)).values
        want = [[naive_cosine(a, b) for b in x] for a in x]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_zero_row_is_guarded(self):
        x = ad.param(np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 1.0]]))
        with ad.Tape() as tape:
            out = ad.cosine(x, x)
            tape.backward(scalar_sum(out))
        assert np.isfinite(out.values).all() and (out.values[0] == 0.0).all()
        assert np.isfinite(x.grad).all()


def weighted_sum(x: ad.Tensor, w) -> ad.Tensor:
    n = x.values.size
    return reshape(ad.matmul(reshape(x, (1, n)), ad.constant(np.reshape(w, (n, 1)))), ())


def with_zero_row(rows: ad.Tensor, zero: ad.Tensor, at: int) -> ad.Tensor:
    """[n x d] rows and one [1 x d] row -> [(n+1) x d], the one row at ``at``."""
    eye = np.eye(rows.shape[0] + 1)
    return ad.add(
        ad.matmul(ad.constant(np.delete(eye, at, axis=1)), rows),
        ad.matmul(ad.constant(eye[:, at : at + 1]), zero),
    )


class TestCosineGradients:
    """ad.cosine's backward against central differences, with a zero-norm
    row on the side that carries gradient: h = 1e-5 over the other rows, and
    a step below the norm clamp (1e-8) over the zero row, where the op is
    linear in it (its own cos(z, z) is quadratic, which central differences
    cancel)."""

    SIDES = {
        "x": lambda s, const: ad.cosine(s, const),
        "rows": lambda s, const: ad.cosine(const, s),
        "self": lambda s, const: ad.cosine(s, s),
    }

    @pytest.mark.parametrize("side", sorted(SIDES))
    def test_grad_check_with_a_zero_row(self, side):
        rng = np.random.default_rng(26)
        free = ad.param(rng.uniform(-1, 1, (4, 3)))
        zero = ad.param(np.zeros((1, 3)))
        const = ad.constant(rng.uniform(-1, 1, (5, 3)))
        w = rng.normal(size=(5, 5))

        def f(free, zero):
            return weighted_sum(self.SIDES[side](with_zero_row(free, zero, at=2), const), w)

        fd_check(lambda t: f(t, zero), [free])
        report = grad_check(lambda z: f(free, z), [zero], h=1e-10, tol=RTOL)
        assert report.passed, str(report)
        assert const.grad is None


class TestMaskedSoftmaxCrossEntropy:
    def test_full_mask_one_hot_weights_equal_softmax_cross_entropy(self):
        rng = np.random.default_rng(4)
        logits = ad.param(rng.normal(size=(4, 3)))
        targets = [0, 2, 1, 2]
        with ad.Tape() as tape:
            got = one_hot_ce(logits, targets)
            tape.backward(got)
        want, want_grad = reference_softmax_ce(logits.values, targets)
        np.testing.assert_allclose(float(got.values), want, rtol=1e-14)
        np.testing.assert_allclose(logits.grad, want_grad, rtol=1e-13, atol=1e-16)

    def test_invalid_entries_are_left_out(self):
        logits = ad.constant([[0.0, 50.0, 0.0]])
        valid = [[True, False, True]]
        out = ad.masked_softmax_cross_entropy(logits, valid, [[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(float(out.values), math.log(2.0), rtol=1e-14)

    def test_single_valid_entry_is_exactly_zero(self):
        logits = ad.param([[3.0, -7.0]])
        with ad.Tape() as tape:
            out = ad.masked_softmax_cross_entropy(logits, [[True, False]], [[1.0, 0.0]])
            tape.backward(out)
        assert float(out.values) == 0.0
        np.testing.assert_array_equal(logits.grad, [[0.0, 0.0]])

    def test_contract_errors(self):
        logits = ad.constant(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="valid"):
            ad.masked_softmax_cross_entropy(logits, [[True, True], [False, False]], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="zero on invalid"):
            ad.masked_softmax_cross_entropy(logits, [[True, False], [True, True]], np.ones((2, 2)))
        with pytest.raises(ad.ShapeError):
            ad.masked_softmax_cross_entropy(logits, np.ones((2, 3), bool), np.zeros((2, 3)))


def reference_gelu(x: float) -> float:
    """The tanh-approximate gelu in plain Python, kept as the oracle."""
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x**3)))


class TestGelu:
    @pytest.mark.parametrize("sigma", [1.0, 5.0, 30.0])
    def test_matches_plain_python_reference(self, sigma):
        v = np.random.default_rng(int(sigma)).normal(0.0, sigma, (64, 128))
        want = np.array([reference_gelu(x) for x in v.ravel()]).reshape(v.shape)
        np.testing.assert_allclose(ad.gelu(ad.constant(v)).values, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("case", ["normal", "wide", "edges"])
    def test_bitwise_the_expression(self, case):
        # the in-place kernel against the expression it replaces, bit for bit
        rng = np.random.default_rng(9)
        v = {
            "normal": rng.normal(0.0, 2.0, (16, 64)),
            "wide": rng.normal(0.0, 1.0, (300, 7)) * 10.0 ** rng.integers(-8, 9, (300, 7)),
            "edges": np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e103, -1e103, 1e200, -1e200, np.inf, -np.inf]),
        }[case]
        c = math.sqrt(2.0 / math.pi)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            want = 0.5 * v * (1.0 + np.tanh(c * (v + 0.044715 * (v * v * v))))
            got = ad.gelu(ad.constant(v)).values
        assert got.tobytes() == want.tobytes()

    def test_zeros_tiny_huge_and_infinite_inputs(self):
        v = np.array([0.0, -0.0, 1e-300, -1e-300, 1e200, -1e200, 1e103, -1e103, np.inf, -np.inf])
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got = ad.gelu(ad.constant(v)).values
        want = np.array([0.0, -0.0, 5e-301, -5e-301, 1e200, -0.0, 1e103, -0.0, np.inf, np.nan])
        np.testing.assert_array_equal(got, want)
        # the sign of each zero too; a NaN's sign bit is the platform's
        number = ~np.isnan(want)
        np.testing.assert_array_equal(np.signbit(got[number]), np.signbit(want[number]))


class TestDropout:
    def test_p_zero_identity(self):
        x = ad.constant([1.0, 2.0])
        out = ad.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.values, x.values)

    def test_eval_identity_regardless_of_p(self):
        x = ad.constant([1.0, 2.0])
        out = ad.dropout(x, 0.9, training=False)
        np.testing.assert_array_equal(out.values, x.values)

    def test_invalid_p(self):
        x = ad.constant([1.0])
        with pytest.raises(ValueError):
            ad.dropout(x, 1.0, training=True, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            ad.dropout(x, -0.1, training=True, rng=np.random.default_rng(0))

    def test_survivor_fraction_and_mean(self):
        rng = np.random.default_rng(7)
        x = ad.constant(np.full(100_000, 2.0))
        out = ad.dropout(x, 0.5, training=True, rng=rng).values
        survivors = np.count_nonzero(out) / out.size
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.mean() - 2.0) / 2.0 < 0.02


class TestTapeMechanics:
    def test_no_tape_records_nothing(self):
        x = ad.param(np.ones(3))
        y = ad.scale(x, 2.0)  # outside any tape
        assert y.requires_grad is False

    def test_tapes_are_independent_between_steps(self):
        x = ad.param(np.ones(2))
        with ad.Tape() as t1:
            scalar_sum(ad.scale(x, 2.0))
        with ad.Tape() as t2:
            loss = scalar_sum(ad.scale(x, 3.0))
            t2.backward(loss)
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])
        assert len(t1) != 0 and len(t2) != 0

    def test_nested_tapes_record_into_the_outer_again_after_the_inner(self):
        x = ad.param(np.ones(3))
        with ad.Tape() as outer:
            ad.scale(x, 2.0)
            with ad.Tape() as inner:
                ad.scale(x, 3.0)
            ad.scale(x, 4.0)
        assert (len(outer), len(inner)) == (2, 1)
        assert ad.scale(x, 5.0).requires_grad is False

    def test_threads_each_record_into_their_own_tape(self):
        # both tapes are entered before either forward runs, and both
        # forwards run before either backward
        barrier = threading.Barrier(2, timeout=30)
        results = {}

        def train(name, factor):
            x = ad.param(np.ones(3))
            with ad.Tape() as tape:
                barrier.wait()
                loss = dot_with(x, np.full(3, factor))
                barrier.wait()
                tape.backward(loss)
            results[name] = (len(tape), x.grad)

        threads = [threading.Thread(target=train, args=args) for args in (("a", 2.0), ("b", 4.0))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        for name, factor in (("a", 2.0), ("b", 4.0)):
            n_entries, grad = results[name]
            assert n_entries == 3, name
            np.testing.assert_array_equal(grad, [factor] * 3, err_msg=name)

    def test_a_thread_without_a_tape_records_nothing_into_anothers(self):
        x = ad.param(np.ones(3))
        outside = []
        with ad.Tape() as tape:
            ad.scale(x, 2.0)
            t = threading.Thread(target=lambda: outside.append(ad.scale(x, 3.0)))
            t.start()
            t.join(timeout=30)
            assert not t.is_alive() and len(tape) == 1
        assert outside[0].requires_grad is False

    def test_asyncio_tasks_each_record_into_their_own_tape(self):
        async def train(factor):
            x = ad.param(np.ones(3))
            with ad.Tape() as tape:
                await asyncio.sleep(0)  # the other task enters its tape
                loss = dot_with(x, np.full(3, factor))
                await asyncio.sleep(0)  # and runs its forward
                tape.backward(loss)
            return len(tape), x.grad

        async def both():
            return await asyncio.gather(train(2.0), train(4.0))

        for (n_entries, grad), factor in zip(asyncio.run(both()), (2.0, 4.0)):
            assert n_entries == 3
            np.testing.assert_array_equal(grad, [factor] * 3)

    @pytest.mark.parametrize("twice", ["a", "b"])
    def test_add_hands_each_input_its_own_gradient(self, twice):
        # loss = sum((a + b) + twice): the input added twice takes a second
        # accumulation, which must not move the other input's gradient
        a, b = ad.param(np.ones(3)), ad.param(np.ones(3))
        with ad.Tape() as tape:
            loss = scalar_sum(ad.add(ad.add(a, b), a if twice == "a" else b))
            tape.backward(loss)
        np.testing.assert_array_equal(a.grad, [2.0] * 3 if twice == "a" else [1.0] * 3)
        np.testing.assert_array_equal(b.grad, [2.0] * 3 if twice == "b" else [1.0] * 3)

    def test_backward_requires_scalar(self):
        x = ad.param(np.ones(2))
        with ad.Tape() as tape:
            y = ad.scale(x, 2.0)
            with pytest.raises(ad.ShapeError):
                tape.backward(y)


def fd_check(f, tensors, tol=RTOL):
    report = grad_check(f, tensors, h=FD_H, tol=tol)
    assert report.passed, str(report)
    return report


class TestFiniteDifferenceOracle:
    """Every backward rule against central differences, h = 1e-5."""

    def test_matmul(self):
        rng = np.random.default_rng(11)
        a = ad.param(rng.uniform(-1, 1, (3, 4)))
        b = ad.param(rng.uniform(-1, 1, (4, 2)))
        fd_check(lambda a, b: scalar_sum(ad.matmul(a, b)), [a, b])

    def test_embedding_lookup(self):
        # ids repeated within an example and across examples
        rng = np.random.default_rng(12)
        table = ad.param(rng.uniform(-1, 1, (5, 3)))
        ids = [[4, 1, 1, 0], [1, 3, 4, 4]]
        fd_check(lambda t: scalar_sum(ad.embed_mean_pool(t, ids, np.ones((2, 4), bool))), [table])

    def test_mean_pool(self):
        # ragged rows, an interior masked position and a trailing all-PAD column
        rng = np.random.default_rng(13)
        table = ad.param(rng.uniform(-1, 1, (4, 3)))
        ids = [[1, 2, 3, 0], [3, 0, 0, 0], [2, 2, 1, 0]]
        mask = [[True, False, True, False], [True, False, False, False], [True, True, True, False]]
        fd_check(
            lambda t: one_hot_ce(ad.embed_mean_pool(t, ids, mask), [0, 2, 1]), [table]
        )

    def test_cosine_matrix_and_row(self):
        # row 1 of the cosine matrix, picked out by a one-hot matmul
        rng = np.random.default_rng(14)
        x = ad.param(rng.uniform(-1, 1, (4, 3)))
        pick = ad.constant(np.eye(4)[1:2])
        fd_check(
            lambda x: one_hot_ce(ad.matmul(pick, ad.cosine(x, x)), [2]),
            [x],
        )

    def test_elementwise_add_scale(self):
        rng = np.random.default_rng(15)
        a = ad.param(rng.uniform(-1, 1, (2, 3)))
        b = ad.param(rng.uniform(-1, 1, (2, 3)))
        fd_check(lambda a, b: one_hot_ce(ad.scale(ad.add(a, b), -1.7), [0, 2]), [a, b])

    def test_masked_softmax_cross_entropy(self):
        rng = np.random.default_rng(25)
        logits = ad.param(rng.uniform(-1, 1, (3, 4)))
        valid = np.array([[True, True, False, True], [False, True, True, True], [True, False, False, False]])
        weights = np.where(valid, rng.uniform(0, 1, (3, 4)), 0.0)
        fd_check(lambda x: ad.masked_softmax_cross_entropy(x, valid, weights), [logits])

    def test_add_rows_bias(self):
        rng = np.random.default_rng(16)
        x = ad.param(rng.uniform(-1, 1, (3, 4)))
        bias = ad.param(rng.uniform(-1, 1, 4))
        fd_check(lambda x, b: scalar_sum(ad.add_rows(x, b)), [x, bias])

    def test_cosine_blocks_scaled_masked_loss(self):
        # the lahn contrastive graph: cosines against shared constant rows,
        # 1/tau, masked softmax-CE; anchor b sees only rows 4b..4b+3, the
        # first of them its positive
        rng = np.random.default_rng(17)
        x = ad.param(rng.uniform(-1, 1, (3, 4)))
        rows = ad.constant(rng.uniform(-1, 1, (3, 4, 4)).reshape(12, 4))
        own = np.array([[True] * 4, [True, True, False, False], [True, False, False, False]])
        valid = np.zeros((3, 12), dtype=bool)
        weights = np.zeros((3, 12))
        for b in range(3):
            valid[b, 4 * b : 4 * b + 4] = own[b]
            weights[b, 4 * b] = 1.0 / 3.0
        fd_check(
            lambda x: ad.masked_softmax_cross_entropy(ad.scale(ad.cosine(x, rows), 2.0), valid, weights),
            [x],
        )

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(18)
        v = rng.uniform(-1, 1, (3, 3))
        v[np.abs(v) < 10 * FD_H] = 0.5  # exclude kink points within h of zero
        fd_check(lambda x: scalar_sum(ad.relu(x)), [ad.param(v)])

    def test_gelu(self):
        rng = np.random.default_rng(19)
        fd_check(lambda x: scalar_sum(ad.gelu(x)), [ad.param(rng.uniform(-1, 1, (3, 3)))])

    def test_dropout_fixed_mask(self):
        rng = np.random.default_rng(20)
        x = ad.param(rng.uniform(-1, 1, (4, 4)))
        fd_check(
            lambda x: scalar_sum(ad.dropout(x, 0.5, True, np.random.default_rng(99))), [x]
        )

    def test_cosine_blocks_zero_norm_anchor(self):
        # anchor row 0 is exactly zero, so its norm sits on the clamp, where
        # the op is linear in it: a step below the clamp (1e-8) stays there
        rng = np.random.default_rng(21)
        others = np.vstack([np.zeros(5), rng.uniform(-1, 1, (2, 5))])
        first_row = ad.constant(np.eye(3)[:, :1])
        zero_row = ad.param(np.zeros((1, 5)))
        rows = ad.constant(rng.uniform(-1, 1, (3, 3, 5)).reshape(9, 5))

        def f(z):
            x = ad.add(ad.constant(others), ad.matmul(first_row, z))
            return scalar_sum(ad.cosine(x, rows))

        report = grad_check(f, [zero_row], h=1e-10, tol=RTOL)
        assert report.passed, str(report)
        # and the zero anchor's own values and gradient stay finite
        x = ad.param(others)
        with ad.Tape() as tape:
            out = ad.cosine(x, rows)
            tape.backward(scalar_sum(out))
        assert (out.values[0] == 0.0).all() and np.isfinite(x.grad).all()

    def test_cosine_many(self):
        # anchors against shared constant rows, one of them zero-norm
        rng = np.random.default_rng(22)
        a = ad.param(rng.uniform(-1, 1, (2, 5)))
        rows = rng.uniform(-1, 1, (12, 5))
        rows[9] = 0.0
        fd_check(lambda a: one_hot_ce(ad.cosine(a, ad.constant(rows)), [0, 10]), [a])

    def test_reshape(self):
        rng = np.random.default_rng(23)
        a = ad.param(rng.uniform(-1, 1, (5,)))
        fd_check(lambda a: one_hot_ce(reshape(a, (1, 5)), [3]), [a])

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(24)
        logits = ad.param(rng.uniform(-1, 1, (4, 3)))
        fd_check(lambda x: one_hot_ce(x, [0, 2, 1, 0]), [logits])

    def test_many_seeds_composite_graph(self):
        # layered graph touching most ops, over a spread of random seeds
        for seed in range(20):
            rng = np.random.default_rng(seed)
            w = ad.param(rng.uniform(-1, 1, (3, 4)))
            x = ad.param(rng.uniform(-1, 1, (2, 3)))
            bias = ad.param(rng.uniform(-1, 1, 4))

            def f(w, x, bias):
                h = ad.gelu(ad.add_rows(ad.matmul(x, w), bias))
                return one_hot_ce(h, [1, 3])

            fd_check(f, [w, x, bias])


class TestGradCheckHarness:
    def test_sum_passes_exactly(self):
        x = ad.param(np.array([0.3, -0.7, 1.1]))
        report = grad_check(scalar_sum, [x])
        assert report.passed and report.max_rel_error < 1e-9

    def test_corrupted_backward_rule_fails(self):
        # negative control: an op whose backward claims twice the true gradient
        def bad_double(x: ad.Tensor) -> ad.Tensor:
            out = ad.Tensor(x.values * 2.0)

            def rule(g):
                ad._accum(x, g * 4.0)  # wrong on purpose; true rule is 2.0

            return ad._record(out, (x,), rule)

        x = ad.param(np.array([0.5, -0.2]))
        report = grad_check(lambda x: scalar_sum(bad_double(x)), [x])
        assert not report.passed

    def test_non_finite_forward_reported(self):
        x = ad.param(np.array([1.0]))
        report = grad_check(lambda x: ad.scale(scalar_sum(x), math.inf), [x])
        assert not report.passed and "non-finite" in report.note

    def test_restores_values_after_run(self):
        x = ad.param(np.array([0.25, -0.5]))
        before = x.values.copy()
        grad_check(scalar_sum, [x])
        np.testing.assert_array_equal(x.values, before)


def test_every_public_op_has_a_caller_in_src():
    # an op that nothing in src/lahn calls is dead code: delete it with its tests
    src = Path(ad.__file__).parent
    text = "".join(p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py")) if p.name != "autodiff.py")
    called = set(re.findall(r"\bad\.(\w+)", text))
    public = {
        name
        for name, obj in vars(ad).items()
        if inspect.isfunction(obj) and obj.__module__ == ad.__name__ and not name.startswith("_")
    }
    assert public - called == set()
