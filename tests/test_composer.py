"""Composer families: hand-computed outputs, gradient checks, factorization."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codepress import autodiff as ad
from codepress.accounting import composer_params
from codepress.autodiff import Tensor
from codepress.codes import CodeTable
from codepress.composer import (
    CodeBook,
    ComposerKind,
    _compose_frozen,
    build_factorization,
    compose_digits,
    compose_relaxed,
    factorization_equivalence_check,
    init_codebook,
    load_codebook,
    save_codebook,
)

KINDS = [ComposerKind.LINEAR, ComposerKind.HIDDEN, ComposerKind.LSTM]


def gauss_rank(matrix: np.ndarray, tol: float = 1e-9) -> int:
    """Row-reduction rank, independent of any library decomposition."""
    m = np.array(matrix, dtype=np.float64)
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = r + int(np.argmax(np.abs(m[r:, c])))
        if abs(m[pivot, c]) < tol:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        m[r] = m[r] / m[r, c]
        for i in range(rows):
            if i != r:
                m[i] -= m[i, c] * m[r]
        r += 1
    return r


class TestRankOracle:
    def test_identity(self):
        assert gauss_rank(np.eye(5)) == 5

    def test_outer_product_is_rank_one(self):
        u, v = np.arange(1.0, 5.0), np.arange(2.0, 8.0)
        assert gauss_rank(np.outer(u, v)) == 1

    def test_random_full_rank(self):
        m = np.random.default_rng(0).normal(size=(6, 9))
        assert gauss_rank(m) == 6


def random_book(kind, rng, k=3, d=2, dprime=3, out=4, hidden=5) -> CodeBook:
    return init_codebook(k, d, dprime, out, kind, rng, hidden_width=hidden)


def random_table(rng, n=10, k=3, d=2) -> CodeTable:
    return CodeTable(
        symbols=[f"s{i}" for i in range(n)],
        codes=rng.integers(0, k, (n, d)),
        alphabet_size=k,
    )


def one_hot(codes: np.ndarray, k: int) -> Tensor:
    """Exact one-hot (batch, code_length, k) selection rows for digit rows."""
    return Tensor(np.eye(k)[codes])


class TestComposeExamples:
    def test_single_position_is_row_lookup(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        book = CodeBook(kind=ComposerKind.LINEAR, table=Tensor(w[None]))
        sel = Tensor([[[0.0, 0.0, 1.0]]])
        assert np.array_equal(compose_relaxed(sel, book).data, [w[2]])

    def test_two_position_sum_by_hand(self):
        w1 = [[1.0, 0.0], [0.0, 1.0]]
        w2 = [[1.0, 1.0], [2.0, 3.0]]
        book = CodeBook(kind=ComposerKind.LINEAR, table=Tensor([w1, w2]))
        sel = Tensor([[[1.0, 0.0], [0.0, 1.0]]])  # code (0, 1)
        assert np.array_equal(compose_relaxed(sel, book).data, [[3.0, 3.0]])

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_weights_compose_to_zero(self, kind):
        rng = np.random.default_rng(1)
        book = random_book(kind, rng)
        for t in book.parameters().values():
            t.data = np.zeros_like(t.data)
        sel = ad.softmax_t(Tensor(rng.normal(size=(4, 2, 3))), 1.0)
        out = compose_relaxed(sel, book)
        # lstm: all gates sigmoid(0)=0.5 but memory stays at tanh(0)=0
        assert np.array_equal(out.data, np.zeros_like(out.data))

    def test_selection_rows_must_sum_to_one(self):
        book = random_book(ComposerKind.LINEAR, np.random.default_rng(2))
        bad = Tensor(np.full((1, 2, 3), 0.5))
        with pytest.raises(ValueError, match="sum to 1"):
            compose_relaxed(bad, book)

    def test_selection_shape_mismatch(self):
        book = random_book(ComposerKind.LINEAR, np.random.default_rng(3))
        with pytest.raises(ValueError, match="does not match"):
            compose_relaxed(Tensor(np.full((1, 2, 5), 0.2)), book)

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_matches_per_symbol_loop(self, kind):
        rng = np.random.default_rng(4)
        book = random_book(kind, rng)
        table = random_table(rng, n=20)
        batch = compose_digits(table.codes, book).data
        for i in range(20):
            single = compose_relaxed(one_hot(table.codes[i : i + 1], 3), book).data[0]
            assert np.allclose(batch[i], single, atol=1e-14)

    def test_identical_codes_identical_rows(self):
        rng = np.random.default_rng(5)
        book = random_book(ComposerKind.LSTM, rng)
        table = CodeTable(symbols=["a", "b"], codes=[[1, 2], [1, 2]], alphabet_size=3)
        rows = compose_digits(table.codes, book).data
        assert np.array_equal(rows[0], rows[1])


class TestGatherMatmulAgreement:
    @pytest.mark.parametrize("kind", KINDS)
    def test_one_hot_product_equals_row_gather_bitwise(self, kind):
        rng = np.random.default_rng(6)
        book = random_book(kind, rng, k=5, d=3, dprime=4, out=4)
        table = random_table(rng, n=40, k=5, d=3)
        via_gather = compose_digits(table.codes, book).data
        via_matmul = compose_relaxed(one_hot(table.codes, 5), book).data
        assert np.array_equal(via_gather, via_matmul)


class TestLinearity:
    def test_linear_sum_additive_in_codebook(self):
        rng = np.random.default_rng(7)
        k, d, dp = 4, 3, 5
        w1 = [rng.normal(size=(k, dp)) for _ in range(d)]
        w2 = [rng.normal(size=(k, dp)) for _ in range(d)]
        sel = ad.softmax_t(Tensor(rng.normal(size=(6, d, k))), 1.0)

        def book_of(ws):
            return CodeBook(kind=ComposerKind.LINEAR, table=Tensor(np.stack(ws)))

        lhs = compose_relaxed(sel, book_of([a + b for a, b in zip(w1, w2)])).data
        rhs = compose_relaxed(sel, book_of(w1)).data + compose_relaxed(sel, book_of(w2)).data
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestGradients:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_parameter_passes_finite_differences(self, kind):
        rng = np.random.default_rng(8)
        for trial in range(5):
            book = random_book(kind, rng)
            sel = ad.softmax_t(Tensor(rng.normal(size=(3, 2, 3))), 0.8)
            target = Tensor(rng.normal(size=(3, 4)))

            def build():
                return ad.squared_error(compose_relaxed(sel, book), target)

            for name, param in book.parameters().items():
                err = ad.finite_difference_check(build, param)
                assert err < 1e-4, f"{kind} {name} trial {trial}: {err}"

    def test_gradient_flows_into_selection(self):
        rng = np.random.default_rng(9)
        book = random_book(ComposerKind.LINEAR, rng)
        logits = Tensor(rng.normal(size=(3, 2, 3)))

        def build():
            sel = ad.softmax_t(logits, 1.0)
            return ad.tsum(compose_relaxed(sel, book))

        err = ad.finite_difference_check(build, logits)
        assert err < 1e-4


class TestFactorization:
    def test_random_instances_reconstruct_exactly(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n, k, d, dp = 50, 4, 3, 5
            book = init_codebook(k, d, dp, dp, ComposerKind.LINEAR, rng)
            table = random_table(rng, n=n, k=k, d=d)
            assert factorization_equivalence_check(table, book) < 1e-10

    def test_zero_codebook_gives_zero(self):
        rng = np.random.default_rng(11)
        book = random_book(ComposerKind.LINEAR, rng, out=3, dprime=3)
        table = random_table(rng)
        assert compose_digits(table.codes, book).data.any()
        book.table.data = np.zeros_like(book.table.data)
        assert not compose_digits(table.codes, book).data.any()  # the write reached the composer
        assert factorization_equivalence_check(table, book) == 0.0

    def test_binary_selector_structure(self):
        rng = np.random.default_rng(12)
        k, d = 4, 3
        book = init_codebook(k, d, 5, 5, ComposerKind.LINEAR, rng)
        table = random_table(rng, n=30, k=k, d=d)
        b, c = build_factorization(table, book)
        assert set(np.unique(b)) <= {0.0, 1.0}
        assert np.array_equal(b.sum(axis=1), np.full(30, d))  # D ones per row
        for j in range(d):  # exactly one per alphabet block
            assert np.array_equal(b[:, j * k : (j + 1) * k].sum(axis=1), np.ones(30))
        assert c.shape == (k * d, 5)

    def test_composed_rank_capped_by_alphabet_times_length(self):
        rng = np.random.default_rng(13)
        k, d, dp = 3, 2, 40
        n = 30  # more symbols than K*D
        book = init_codebook(k, d, dp, dp, ComposerKind.LINEAR, rng)
        table = random_table(rng, n=n, k=k, d=d)
        b, c = build_factorization(table, book)
        assert gauss_rank(b @ c) <= k * d

    def test_rejects_a_table_of_another_code_shape(self):
        rng = np.random.default_rng(15)
        book = init_codebook(3, 2, 4, 4, ComposerKind.LINEAR, rng)
        for k, d in ((4, 2), (3, 3)):
            with pytest.raises(ValueError, match="disagree"):
                build_factorization(random_table(rng, k=k, d=d), book)

    def test_requires_plain_linear_sum(self):
        rng = np.random.default_rng(14)
        table = random_table(rng)
        with pytest.raises(ValueError, match="linear-sum"):
            factorization_equivalence_check(table, random_book(ComposerKind.HIDDEN, rng))
        projected = init_codebook(3, 2, 3, 7, ComposerKind.LINEAR, rng)
        assert projected.projection is not None
        with pytest.raises(ValueError, match="identity"):
            factorization_equivalence_check(table, projected)


class TestInitAndShapes:
    @pytest.mark.parametrize("kind", KINDS)
    def test_weight_scale_and_zero_biases(self, kind):
        rng = np.random.default_rng(15)
        book = random_book(kind, rng, dprime=4)
        bound = 1.0 / np.sqrt(4)
        for name, p in book.parameters().items():
            if name.startswith("b_"):
                assert np.array_equal(p.data, np.zeros_like(p.data))
            else:
                assert np.max(np.abs(p.data)) <= bound

    def test_projection_only_when_dims_differ(self):
        rng = np.random.default_rng(16)
        same = init_codebook(3, 2, 4, 4, ComposerKind.LINEAR, rng)
        assert same.projection is None
        diff = init_codebook(3, 2, 4, 7, ComposerKind.LINEAR, rng)
        assert diff.projection.data.shape == (7, 4)
        assert diff.embed_dim == 7

    def test_hidden_family_projects_through_output_layer(self):
        rng = np.random.default_rng(17)
        book = init_codebook(3, 2, 4, 7, ComposerKind.HIDDEN, rng, hidden_width=6)
        assert book.projection is None
        assert book.extras["w_out"].data.shape == (6, 7)
        assert book.embed_dim == 7

    def test_hidden_family_needs_hidden_units(self):
        with pytest.raises(ValueError, match="hidden_width >= 1"):
            init_codebook(3, 2, 4, 7, ComposerKind.HIDDEN, np.random.default_rng(0),
                          hidden_width=0)

    def test_param_counts(self):
        rng = np.random.default_rng(18)
        linear = init_codebook(4, 3, 5, 5, ComposerKind.LINEAR, rng)
        assert composer_params(4, 3, 5, linear.extra_param_count()) == 4 * 3 * 5
        hidden = init_codebook(4, 3, 5, 7, ComposerKind.HIDDEN, rng, hidden_width=6)
        assert hidden.extra_param_count() == 5 * 6 + 6 + 6 * 7 + 7
        lstm = init_codebook(4, 3, 5, 5, ComposerKind.LSTM, rng)
        assert lstm.extra_param_count() == 4 * (5 * 5 + 5)

    def test_tied_output_gate_matches_explicit_tying(self):
        rng = np.random.default_rng(19)
        tied = init_codebook(3, 2, 4, 4, ComposerKind.LSTM, np.random.default_rng(7),
                             tie_output_gate=True)
        untied = init_codebook(3, 2, 4, 4, ComposerKind.LSTM, np.random.default_rng(8))
        table = random_table(rng, n=8, k=3, d=2)
        assert not np.array_equal(
            compose_digits(table.codes, tied).data, compose_digits(table.codes, untied).data
        )
        # copy shared weights, then force the untied o-gate to equal the t-gate
        for name in ("u_t", "u_i", "u_m"):
            untied.extras[name].data = tied.extras[name].data.copy()
        untied.table.data = tied.table.data.copy()
        untied.extras["u_o"].data = tied.extras["u_t"].data.copy()
        untied.extras["b_o"].data = tied.extras["b_t"].data.copy()
        assert np.array_equal(
            compose_digits(table.codes, tied).data, compose_digits(table.codes, untied).data
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_width_and_tying_are_read_from_the_extras(self, kind):
        rng = np.random.default_rng(30)
        book = init_codebook(3, 2, 4, 4, kind, rng, hidden_width=6, tie_output_gate=True)
        assert book.hidden_width == (6 if kind is ComposerKind.HIDDEN else 0)
        assert book.tie_output_gate == (kind is ComposerKind.LSTM)
        with pytest.raises(AttributeError):
            book.hidden_width = 9


class TestExport:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_preserves_structure(self, tmp_path, kind):
        rng = np.random.default_rng(20)
        book = random_book(kind, rng, k=4, d=3, dprime=5, out=6, hidden=7)
        path = tmp_path / "book.bin"
        save_codebook(book, path)
        loaded = load_codebook(path)
        assert loaded.kind == book.kind
        assert loaded.code_length == book.code_length
        assert loaded.alphabet_size == book.alphabet_size
        assert loaded.digit_dim == book.digit_dim
        assert loaded.embed_dim == book.embed_dim
        assert loaded.hidden_width == book.hidden_width
        assert set(loaded.extras) == set(book.extras)

    def test_values_round_to_float32(self, tmp_path):
        rng = np.random.default_rng(21)
        book = random_book(ComposerKind.LINEAR, rng)
        path = tmp_path / "book.bin"
        save_codebook(book, path)
        loaded = load_codebook(path)
        for name, p in book.parameters().items():
            expected = p.data.astype(np.float32).astype(np.float64)
            assert np.array_equal(loaded.parameters()[name].data, expected)

    def test_round_tripped_book_composes_identically(self, tmp_path):
        rng = np.random.default_rng(22)
        book = random_book(ComposerKind.LSTM, rng)
        path = tmp_path / "book.bin"
        save_codebook(book, path)
        loaded = load_codebook(path)
        table = random_table(rng, n=6)
        first = compose_digits(table.codes, loaded).data
        save_codebook(loaded, tmp_path / "book2.bin")
        again = load_codebook(tmp_path / "book2.bin")
        assert np.array_equal(compose_digits(table.codes, again).data, first)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError, match="not a codebook"):
            load_codebook(path)

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(23)
        book = random_book(ComposerKind.LINEAR, rng)
        path = tmp_path / "book.bin"
        save_codebook(book, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_codebook(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(24)
        book = random_book(ComposerKind.LINEAR, rng)
        path = tmp_path / "book.bin"
        save_codebook(book, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_codebook(path)


class TestComposeDigits:
    def test_validates_digit_range(self):
        rng = np.random.default_rng(26)
        book = random_book(ComposerKind.LINEAR, rng)
        with pytest.raises(ValueError, match="digits"):
            compose_digits(np.array([[0, 9]]), book)


class TestLstmRecurrenceOp:
    @staticmethod
    def graph_sizes(code_length: int) -> tuple[int, int]:
        rng = np.random.default_rng(29)
        book = init_codebook(4, code_length, 3, 5, ComposerKind.LSTM, rng)
        sel = ad.softmax_t(Tensor(rng.normal(size=(6, code_length, 4))), 1.0)
        digits = rng.integers(0, 4, (6, code_length))
        return (len(ad.topo_order(compose_relaxed(sel, book))),
                len(ad.topo_order(_compose_frozen(digits, book))))

    def test_graph_size_does_not_grow_with_code_length(self):
        assert self.graph_sizes(2) == self.graph_sizes(16)

    @pytest.mark.parametrize("tied", [False, True])
    def test_forward_is_bit_identical_to_the_per_node_graph(self, tied):
        rng = np.random.default_rng(30)
        book = init_codebook(5, 4, 6, 7, ComposerKind.LSTM, rng, tie_output_gate=tied)
        for p in book.extras.values():  # nonzero biases, so the add order shows
            p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
        tables = [Tensor(block.copy()) for block in book.table.data]
        sel = ad.softmax_t(Tensor(rng.normal(size=(9, 4, 5))), 0.7)
        ref = per_position_compose(book, [ad.select(sel, j) @ tables[j] for j in range(4)])
        assert np.array_equal(compose_relaxed(sel, book).data, ref.data)
        digits = rng.integers(0, 5, (9, 4))
        ref = per_position_compose(
            book, [ad.gather_rows(tables[j], digits[:, j]) for j in range(4)]
        )
        assert np.array_equal(compose_digits(digits, book).data, ref.data)


def per_position_compose(book: CodeBook, contribs: list[Tensor]) -> Tensor:
    """The composition as written before the single digit-vector tensor: D
    per-position contributions folded by a sequential sum (lstm: the
    recurrence), then the family's head."""
    ex = book.extras
    if book.kind is ComposerKind.LSTM:
        u_o, b_o = (ex["u_t"], ex["b_t"]) if book.tie_output_gate else (ex["u_o"], ex["b_o"])
        h = Tensor(np.zeros(contribs[0].data.shape))
        m = Tensor(np.zeros(contribs[0].data.shape))
        total = None
        for e in contribs:
            t_gate = ad.sigmoid(ad.add(e + h @ ex["u_t"], ex["b_t"]))
            i_gate = ad.sigmoid(ad.add(e + h @ ex["u_i"], ex["b_i"]))
            o_gate = ad.sigmoid(ad.add(e + h @ u_o, b_o))
            candidate = ad.tanh(ad.add(e + h @ ex["u_m"], ex["b_m"]))
            m = t_gate * m + i_gate * candidate
            h = o_gate * ad.tanh(m)
            total = h if total is None else total + h
    else:
        total = contribs[0]
        for c in contribs[1:]:
            total = total + c
    if book.kind is ComposerKind.HIDDEN:
        hidden = ad.relu(ad.add(total @ ex["w_hidden"], ex["b_hidden"]))
        return ad.add(hidden @ ex["w_out"], ex["b_out"])
    if book.projection is not None:
        total = total @ book.projection.T
    return total


class TestPerPositionEquivalence:
    """compose_relaxed, compose_digits and the frozen-code op on the
    (D, K, d') tensor agree with the per-position path (D separate tables,
    select + matmul + sequential sum), forward and gradients, to 1e-12."""

    TOL = 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        k=st.integers(2, 5),
        d=st.integers(1, 4),
        dprime=st.integers(1, 5),
        out=st.integers(1, 6),
        hidden=st.integers(1, 5),
        batch=st.integers(1, 6),
        tied=st.booleans(),
        relaxed=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_per_position_tables(self, kind, k, d, dprime, out, hidden, batch,
                                         tied, relaxed, seed):
        rng = np.random.default_rng(seed)
        book = init_codebook(k, d, dprime, out, kind, rng, hidden_width=hidden,
                             tie_output_gate=tied)
        tables = [Tensor(block.copy()) for block in book.table.data]
        digits = rng.integers(0, k, (batch, d))
        logits = rng.normal(size=(batch, d, k))
        sel_rows = ad.softmax_t(Tensor(logits), 1.0).data if relaxed else np.eye(k)[digits]
        mix = Tensor(rng.normal(size=(batch, book.embed_dim)))
        extras = [p for name, p in book.parameters().items() if name != "table"]

        def grads(out_tensor, wrt):
            loss = ad.tsum(ad.multiply(out_tensor, mix))
            return list(ad.gradients(loss, {str(i): p for i, p in enumerate(wrt)}).values())

        sel = Tensor(sel_rows)
        new = compose_relaxed(sel, book)
        new_grads = grads(new, [sel, book.table, *extras])
        ref_sel = Tensor(sel_rows)
        ref = per_position_compose(book, [ad.select(ref_sel, j) @ tables[j] for j in range(d)])
        ref_grads = grads(ref, [ref_sel, *tables, *extras])
        ref_grads = [ref_grads[0], np.stack(ref_grads[1 : d + 1]), *ref_grads[d + 1 :]]
        np.testing.assert_allclose(new.data, ref.data, rtol=0, atol=self.TOL)
        for got, want in zip(new_grads, ref_grads, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=self.TOL)

        new = _compose_frozen(digits, book)
        new_grads = grads(new, [book.table, *extras])
        ref = per_position_compose(
            book, [ad.gather_rows(tables[j], digits[:, j]) for j in range(d)]
        )
        ref_grads = grads(ref, [*tables, *extras])
        ref_grads = [np.stack(ref_grads[:d]), *ref_grads[d:]]
        np.testing.assert_allclose(new.data, ref.data, rtol=0, atol=self.TOL)
        np.testing.assert_allclose(compose_digits(digits, book).data, ref.data, rtol=0,
                                   atol=self.TOL)
        for got, want in zip(new_grads, ref_grads, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=self.TOL)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_parameter_for_the_digit_vectors(self, kind):
        book = random_book(kind, np.random.default_rng(27))
        params = book.parameters()
        assert params["table"] is book.table
        assert book.table.data.shape == (2, 3, 3)
        assert not any(name.startswith("table_") for name in params)

    def test_per_position_views_are_read_only(self):
        book = random_book(ComposerKind.LINEAR, np.random.default_rng(28))
        views = book.tables
        assert len(views) == book.code_length
        for j, view in enumerate(views):
            assert np.array_equal(view.data, book.table.data[j])
            with pytest.raises(ValueError):
                view.data[0, 0] = 1.0
        assert book.table.data.flags.writeable


BOOK_SHAPES = [  # (kind, tied, projected)
    (ComposerKind.LINEAR, False, False),
    (ComposerKind.LINEAR, False, True),
    (ComposerKind.HIDDEN, False, False),
    (ComposerKind.LSTM, False, False),
    (ComposerKind.LSTM, False, True),
    (ComposerKind.LSTM, True, True),
]


class TestGraphFreeComposition:
    """compose_digits composes in plain numpy, with the bits of the graph
    that the frozen-code path still builds."""

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.sampled_from(BOOK_SHAPES),
        k=st.integers(1, 5),
        d=st.integers(1, 4),
        dprime=st.integers(1, 5),
        hidden=st.integers(1, 5),
        batch=st.integers(0, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_same_bits_as_the_graph(self, shape, k, d, dprime, hidden, batch, seed):
        kind, tied, projected = shape
        rng = np.random.default_rng(seed)
        out = dprime + 1 if projected else dprime
        book = init_codebook(k, d, dprime, out, kind, rng, hidden_width=hidden,
                             tie_output_gate=tied)
        assert (book.projection is not None) == projected
        for p in book.extras.values():  # nonzero biases, so the add order shows
            p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
        digits = rng.integers(0, k, (batch, d))
        composed = compose_digits(digits, book)
        assert composed._parents == ()
        np.testing.assert_array_equal(composed.data, _compose_frozen(digits, book).data)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kind, tied, projected", BOOK_SHAPES)
    def test_non_finite_parameter_raises(self, kind, tied, projected, value):
        rng = np.random.default_rng(31)
        book = init_codebook(3, 2, 4, 5 if projected else 4, kind, rng, hidden_width=3,
                             tie_output_gate=tied)
        digits = rng.integers(0, 3, (4, 2))
        for name, p in book.parameters().items():
            saved = p.data.copy()
            p.data.flat[0] = value
            with pytest.raises(FloatingPointError, match=name):
                compose_digits(digits, book)
            p.data = saved
        assert np.all(np.isfinite(compose_digits(digits, book).data))

    # Allocation peaks of one whole-vocabulary pass at K = D = d' = 32.  The
    # graph path peaked at 156.9 MB (linear-sum, N = 10,000) and 114.5 MB
    # (lstm, N = 2,000); the graph-free pass measured 7.3 and 7.8 MB, a few
    # (N, d') buffers.  The bound lies well below the first and about twice
    # the second.
    PEAK_BOUND_MB = {ComposerKind.LINEAR: (10_000, 16.0), ComposerKind.LSTM: (2_000, 16.0)}

    @pytest.mark.parametrize("kind", list(PEAK_BOUND_MB))
    def test_whole_vocabulary_pass_peak(self, kind):
        n, bound_mb = self.PEAK_BOUND_MB[kind]
        rng = np.random.default_rng(32)
        book = init_codebook(32, 32, 32, 32, kind, rng)
        digits = rng.integers(0, 32, (n, 32))
        tracemalloc.start()
        try:
            rows = compose_digits(digits, book)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.shape == (n, 32)
        assert peak / 2**20 < bound_mb


# SHA-256 of codebook.bin for init_codebook(4, 3, 5, 6, kind, default_rng(0),
# hidden_width=7), as written by the per-position tables before the single
# digit-vector tensor; the stacked row-major tensor must serialize identically.
GOLDEN_CODEBOOK_SHA256 = {
    ("linear-sum", False): "19399903158c617efd0173cd0d1a8797d174fd9f6baab889478d1b9f39abd78f",
    ("linear-hidden", False): "217bb0826ade32964643c06ac2b16074df162eeb97d80bb3047cda290c6cb478",
    ("lstm", False): "6a847529fb25c0b3c00ace64774219527ea89babe0ff0186ded7cb164e02b632",
    ("lstm", True): "5a75f57a71260f0410831bc93a544985a491e54ef380358ab1936dc1f9caa55b",
}


@pytest.mark.parametrize("kind, tied", list(GOLDEN_CODEBOOK_SHA256))
def test_codebook_bytes_match_golden(tmp_path, kind, tied):
    book = init_codebook(4, 3, 5, 6, kind, np.random.default_rng(0), hidden_width=7,
                         tie_output_gate=tied)
    path = tmp_path / "codebook.bin"
    save_codebook(book, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CODEBOOK_SHA256[kind, tied]
