import copy
import hashlib
import itertools
import pickle
import warnings
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from rotorcut import (
    Graph,
    GraphFormatError,
    brute_force_max_cut,
    cost_hessian,
    cut_value,
    generate_graph,
    parse_edge_list,
    serialize_edge_list,
)
from oracles import (
    enumerate_max_cut, former_parse_edge_list, former_symmetric, loop_generated_edges,
)

K3_TEXT = "3 3\n1 2 1.0\n2 3 1.0\n1 3 1.0\n"


def test_parse_k3():
    g = parse_edge_list(K3_TEXT)
    assert g.n == 3
    assert g.m == 3
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))
    assert g.total_weight == 3.0


def test_edges_canonicalized():
    g = Graph(3, [(2, 0, 1.5), (1, 0, 2.0)])
    assert g.edges == ((0, 2, 1.5), (0, 1, 2.0))
    ii, jj, ww = g.edge_arrays
    assert ii.dtype == jj.dtype == np.intp and ww.dtype == float
    assert tuple(zip(ii.tolist(), jj.tolist(), ww.tolist())) == g.edges
    # numpy integers are integers
    assert Graph(3, [(np.int64(2), np.intp(0), 1.5)]).edges == ((0, 2, 1.5),)


def test_serialize_round_trip():
    g = generate_graph(9, 14, weight_mode=(0.0, 15.0), seed=5)
    again = parse_edge_list(serialize_edge_list(g))
    assert again.n == g.n
    assert again.edges == g.edges


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("3 3\n1 2 1.0\n2 3 1.0\n", "expected 3 edge"),
        ("3 2\n1 2 1.0\n2 2 1.0\n", "self-loop"),
        ("3 2\n1 2 1.0\n2 1 3.0\n", "duplicate"),
        ("3 2\n1 2 1.0\n2 4 1.0\n", "out of range"),
        ("3 1\n1 2 one\n", "malformed"),
        ("3 1\n1 2\n", "malformed"),
        ("1 0\n", ">= 2"),
        ("3 1\n1 2 nan\n", "finite"),
        ("", "empty"),
        # line numbers count every line of the text, blank ones too
        ("3 1\n\n1 2 x\n", "malformed edge line 3:"),
        ("\n\n3 1\n1 2 x\n", "malformed edge line 4:"),
        ("3 2\n1 2 1.0\n\n2 2 1.0\n", r"self-loop at edges\[1\]: \(1, 1, 1.0\)"),
        ("3 1\r\n1 2 x\r\n", r"malformed edge line 2: '1 2 x'$"),
        ("3 1\n1\t2.5\t1.0\n", r"malformed edge line 2: '1\\t2.5\\t1.0'"),
        ("3 1\n1.0 2 1.0\n", "malformed edge line 2:"),
        # two tokens on one line and four on the next are still malformed
        ("3 2\n1 2\n2 3 1.0 4\n", "malformed edge line 2:"),
        ("3 1\n0 2 1.0\n", r"out of range \[0, 3\) at edges\[0\]: \(-1, 1, 1.0\)"),
        ("3 2\n1 2 1.0\n2 3 inf\n", r"non-finite weight at edges\[1\]: \(1, 2, inf\)"),
        ("3 1\n1 2 -1e400\n", r"non-finite weight at edges\[0\]: \(0, 1, -inf\)"),
        # indices that do not fit a machine integer
        ("3 1\n1 99999999999999999999 1.0\n", "vertex indices must be integers"),
        ("3 1\n-9223372036854775808 2 1.0\n", "vertex indices must be integers"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_edge_list(text)


def test_parse_error_deep_in_a_long_file():
    lines = serialize_edge_list(generate_graph(80, 2000, (0.0, 15.0), 3)).splitlines()
    lines[1500] = lines[1500].rsplit(" ", 1)[0] + " 1.2.3"
    lines.insert(40, "")  # a blank line still counts
    text = "\r\n".join(lines)
    with pytest.raises(GraphFormatError, match=r"^malformed edge line 1502: '\d+ \d+ 1.2.3'$"):
        parse_edge_list(text)


@pytest.mark.parametrize(
    "text",
    [
        "3 3\r\n1 2 1.0\r\n2 3 1.0\r\n1 3 1.0\r\n",
        "3\t3\n1\t2\t1.0\n  2 3   1.0  \n\n\n1 3 1.0",
        "\n\n3 3\n\n1 2 1.0\n \t \n2 3 1.0\n1 3 1e0\n\n",
        "3 3\n+1 2 1.0\n2 3 1.0\n3 1 1.0\n",
    ],
    ids=["crlf", "tabs", "blank-lines", "signs-and-order"],
)
def test_parse_whitespace_variants(text):
    g = parse_edge_list(text)
    assert g == parse_edge_list(K3_TEXT)
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))


def test_parse_no_edges():
    g = parse_edge_list("4 0\n")
    assert g == Graph(4, []) and g.m == 0 and g.edges == ()
    assert [a.size for a in g.edge_arrays] == [0, 0, 0]
    assert g.total_weight == 0.0
    assert serialize_edge_list(g) == "4 0\n"


def test_parse_matches_line_by_line_oracle():
    # random texts, most of them faulty: the same graph or the same error
    tokens = ["1", "2", "3", "0", "-1", "4", "1.5", "x", "nan", "inf", "+2", "2_0",
              "1e400", "-0.0", "99999999999999999999", "-9223372036854775808"]
    rng = np.random.default_rng(5)
    for case in range(1500):
        n, m = (int(k) for k in rng.integers(1, 6, size=2))
        lines = [f"{n} {m}"]
        for _ in range(m + (int(rng.integers(-1, 2)) if case % 4 == 0 else 0)):
            if rng.random() < 0.7:
                i, j = rng.integers(1, n + 2, size=2)
                row = [str(i), str(j), repr(float(rng.uniform(-2.0, 5.0)))]
            else:
                row = list(rng.choice(tokens, size=int(rng.integers(1, 5))))
            lines.append(" \t  "[int(rng.integers(3))].join(row))
            if rng.random() < 0.1:
                lines.append(" ")
        eol = "\r\n" if case % 2 else "\n"
        text = eol.join(lines) + eol
        outcomes = []
        for parse in (parse_edge_list, former_parse_edge_list):
            try:
                g = parse(text)
                outcomes.append((g.n, g.edges))
            except GraphFormatError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], text


def test_equality_hash_and_pickle():
    g = generate_graph(30, 100, weight_mode=(-1.0, 2.0), seed=4)
    g.adjacency  # a cached matrix is not part of the graph's value
    assert g.edges == tuple(zip(*(a.tolist() for a in g.edge_arrays)))
    assert all(type(i) is int and type(w) is float for i, _, w in g.edges)
    assert repr(g) == f"Graph(n=30, edges={g.edges!r})"
    blob = pickle.dumps(g)
    assert len(blob) < len(pickle.dumps(g.edge_arrays)) + 500
    copies = [
        Graph(g.n, g.edges), parse_edge_list(serialize_edge_list(g)),
        pickle.loads(blob), copy.copy(g), copy.deepcopy(g),
    ]
    for h in copies:
        assert h == g and hash(h) == hash(g) and h.edges == g.edges
        assert serialize_edge_list(h) == serialize_edge_list(g)
        assert not any(a.flags.writeable for a in h.edge_arrays)
    assert {g: 1}[copies[0]] == 1
    # -0.0 == 0.0, as for the tuples
    zero, minus_zero = Graph(3, [(0, 1, 0.0)]), Graph(3, [(1, 0, -0.0)])
    assert zero == minus_zero and hash(zero) == hash(minus_zero)
    (i, j, w), rest = g.edges[0], g.edges[1:]
    unequal = [
        Graph(31, g.edges), Graph(g.n, g.edges[::-1]), Graph(g.n, rest),
        Graph(g.n, ((i, j, w + 1.0),) + rest),
    ]
    for h in unequal:
        assert h != g and not h == g
    assert g != g.edges and g != (g.n, g.edges)


def test_graph_is_immutable():
    g = parse_edge_list(K3_TEXT)
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'n'$"):
        g.n = 4
    with pytest.raises(FrozenInstanceError):
        setattr(g, "n", 3)
    with pytest.raises(FrozenInstanceError):
        g.edge_arrays = ()
    with pytest.raises(FrozenInstanceError, match="^cannot delete field 'n'$"):
        del g.n
    for a in g.edge_arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 2


def test_cached_csr_is_read_only():
    # every BMZ and cost call reads the cached matrix, so no caller may
    # write into it; a Hessian fills a writable copy of its pattern
    g = generate_graph(12, 30, weight_mode=(0.0, 15.0), seed=9)
    for h in (g, pickle.loads(pickle.dumps(g))):  # a round trip rebuilds the cache
        a = h.adjacency
        for arr in (a.data, a.indices, a.indptr, h._hessian_slots):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        hess = cost_hessian(h, np.linspace(0.0, 3.0, h.n))
        assert all(x.flags.writeable for x in (hess.data, hess.indices, hess.indptr))


def test_total_weight_is_python_sum_in_edge_order():
    # a pairwise np.sum gives 0.0 here, and Python's sum 1.0 (8.0 on
    # Python >= 3.12, which compensates)
    weights = [1e16, 1.0, -1e16, 1.0] * 4
    g = Graph(8, [(i, j, w) for (i, j), w in zip(itertools.combinations(range(8), 2), weights)])
    expected = sum(w for _, _, w in g.edges)
    assert float(np.sum(g.edge_arrays[2])) != expected
    assert g.total_weight == expected and type(g.total_weight) is float
    for seed in range(5):
        g = generate_graph(200, 3000, weight_mode=(-3.0, 15.0), seed=seed)
        assert g.total_weight == sum(w for _, _, w in g.edges)


def test_generate_graph_deterministic():
    a = generate_graph(12, 30, weight_mode=(0.0, 15.0), seed=7)
    b = generate_graph(12, 30, weight_mode=(0.0, 15.0), seed=7)
    assert a.edges == b.edges
    c = generate_graph(12, 30, weight_mode=(0.0, 15.0), seed=8)
    assert c.edges != a.edges


def test_generate_graph_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for case in range(320):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        if case % 2:
            mode = "unit"
        else:
            mode = (float(rng.uniform(-5.0, 0.0)), float(rng.uniform(0.5, 20.0)))
        seed = int(rng.integers(1 << 30)) if case % 3 else [case, 7]
        g = generate_graph(n, m, mode, seed)
        expected = loop_generated_edges(n, m, mode, seed)
        assert g.edges == expected, (n, m, mode, seed)
        assert g.total_weight == sum(w for _, _, w in expected)
        assert parse_edge_list(serialize_edge_list(g)).edges == g.edges


@pytest.mark.parametrize(
    "n,m,mode,seed,digest",
    [
        (50, 619, (0.0, 15.0), 2024, "baeee8cbb8abd0c3"),
        (800, 19176, "unit", [0, 0], "7c07b7d5dc15f428"),
        (2000, 8000, "unit", [0, 1], "a6a307678716bee9"),
    ],
)
def test_generate_graph_pinned(n, m, mode, seed, digest):
    text = serialize_edge_list(generate_graph(n, m, mode, seed))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_generate_graph_shape_and_weights():
    g = generate_graph(20, 50, weight_mode=(0.0, 15.0), seed=1)
    assert g.n == 20
    assert g.m == 50
    assert len({(i, j) for i, j, _ in g.edges}) == 50
    for i, j, w in g.edges:
        assert 0 <= i < j < 20
        assert 0.0 < w < 15.0
    unit = generate_graph(10, 9, weight_mode="unit", seed=0)
    assert all(w == 1.0 for _, _, w in unit.edges)


@pytest.mark.parametrize(
    "m_edges,weight_mode,fragment",
    [
        (7, "unit", "too large"),
        (3, "gaussian", "unknown weight mode"),
        (3, (2.0, 2.0), "invalid weight range"),
        (3, (-1e308, 1e308), "invalid weight range"),
    ],
    ids=["too-many-edges", "unknown-weight-mode", "empty-weight-range", "overflowing-weight-range"],
)
def test_generate_graph_rejects_bad_request(m_edges, weight_mode, fragment):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphFormatError, match=fragment):
            generate_graph(4, m_edges, weight_mode=weight_mode, seed=0)


def test_cut_value_examples(k3):
    assert cut_value(k3, np.array([1, 1, -1])) == 2.0
    assert cut_value(k3, np.array([1, 1, 1])) == 0.0


def test_cut_value_validates(k3):
    with pytest.raises(ValueError):
        cut_value(k3, np.array([1, 1]))
    with pytest.raises(ValueError):
        cut_value(k3, np.array([1, 0, -1]))
    # a complex or non-numeric assignment is refused, not cut on its real part
    for bad in ([1j, -1j, 1], ["1", "-1", "1"], [True, True, True]):
        with pytest.raises(ValueError, match="^assignment entries must be real numbers, got dtype"):
            cut_value(k3, bad)
    assert cut_value(k3, np.array([1, -1, 1], dtype=np.int8)) == cut_value(k3, [1.0, -1.0, 1.0])


def test_brute_force_matches_enumeration():
    rng = np.random.default_rng(42)
    for n in (4, 6, 8):
        for _ in range(3):
            m = min(n * (n - 1) // 2, 2 * n)
            g = generate_graph(n, m, weight_mode=(0.0, 15.0), seed=int(rng.integers(1 << 30)))
            val, x = brute_force_max_cut(g)
            ref_val, _ = enumerate_max_cut(g.n, g.edges)
            assert val == pytest.approx(ref_val, abs=1e-12)
            assert cut_value(g, x) == val


def test_brute_force_known_optima(small_suite):
    expected = {
        "K3": 2.0, "K4": 4.0, "C4": 4.0, "C5": 4.0,
        "C6": 6.0, "K33": 9.0, "Q3": 12.0, "Petersen": 12.0,
    }
    for name, g in small_suite.items():
        val, x = brute_force_max_cut(g)
        assert val == expected[name], name
        assert cut_value(g, x) == val
        assert x[0] == 1


def test_brute_force_size_guard():
    g = generate_graph(25, 30, weight_mode="unit", seed=0)
    with pytest.raises(ValueError, match="24"):
        brute_force_max_cut(g)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        Graph(1, [])
    # a non-integral vertex count fails here, not later in scipy
    with pytest.raises(GraphFormatError, match="vertex count must be an integer, got 3.5"):
        Graph(3.5, [(0, 1, 1.0)])
    assert type(Graph(np.int64(3), []).n) is int
    # 1.7 would truncate to 1 and duplicate the (0, 1) edge
    with pytest.raises(GraphFormatError, match="integers"):
        Graph(3, [(0, 1.7, 1.0), (0, 1, 2.0)])
    with pytest.raises(GraphFormatError, match="integers"):
        Graph(3, [(0, 1.0, 1.0)])
    for bad in [(0, 1), (0, 1, 1.0, 2.0)]:
        with pytest.raises(GraphFormatError, match=r"edges\[1\] is not an \(i, j, w\) triple"):
            Graph(3, [(1, 2, 1.0), bad])
    with pytest.raises(GraphFormatError, match=r"duplicate edge at edges\[2\]: \(2, 0, 3.0\)"):
        Graph(3, [(0, 2, 1.0), (0, 1, 1.0), (2, 0, 3.0)])
    with pytest.raises(GraphFormatError, match=r"out of range \[0, 3\) at edges\[0\]: \(-1, 1"):
        Graph(3, [(-1, 1, 1.0)])
    with pytest.raises(GraphFormatError, match="real numbers"):
        Graph(3, [(0, 1, 1 + 2j)])
    # weights go through the one dtype rule: nothing is parsed, cast or converted
    for weight, dtype in (("2.5", "<U3"), (True, "bool"), (np.complex128(1), "complex128"),
                          (Fraction(1, 2), "object"), (2**64, "object")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphFormatError,
                               match=rf"^edge weights must be real numbers, got dtype {dtype}$"):
                Graph(3, [(0, 1, weight)])
    for edges in ([(0, 1, [1.0])], [(0, 1, [1.0, 2.0]), (1, 2, 1.0)]):
        with pytest.raises(GraphFormatError, match="^edge weights must be real numbers"):
            Graph(3, edges)
    assert Graph(3, [(0, 1, 2), (1, 2, np.float32(0.5))]).edges == ((0, 1, 2.0), (1, 2, 0.5))
    # a bool is no vertex index and no weight, even where numpy would read
    # it among numbers as 0 or 1
    for edges in ([(0, True, 1.0)], [(0, True, 1.0), (1, 2, 1.0)],
                  [(np.bool_(False), 2, 1.0), (1, 2, 1.0)]):
        with pytest.raises(GraphFormatError, match="^vertex indices must be integers$"):
            Graph(3, edges)
    for edges in ([(0, 1, 1.0), (1, 2, True)], [(0, 1, 2), (1, 2, np.True_)]):
        with pytest.raises(GraphFormatError, match="^edge weights must be real numbers, got a bool$"):
            Graph(3, edges)
    assert Graph(3, ((i, i + 1, 1.0) for i in range(2))).edges == (
        (0, 1, 1.0), (1, 2, 1.0)
    )
    empty = Graph(3, [])
    assert empty.edges == ()
    assert [a.size for a in empty.edge_arrays] == [0, 0, 0]


def test_adjacency():
    cases = [
        generate_graph(5, 0, "unit", 0),
        parse_edge_list(K3_TEXT),
        generate_graph(9, 14, weight_mode=(0.0, 15.0), seed=5),
        generate_graph(40, 300, weight_mode=(-2.0, 3.0), seed=6),
    ]
    for g in cases:
        a = g.adjacency
        dense = np.zeros((g.n, g.n))
        for i, j, w in g.edges:
            dense[i, j] = dense[j, i] = w
        np.testing.assert_array_equal(a.toarray(), dense)
        assert (a != a.T).nnz == 0
        assert a.has_canonical_format
        assert a.nnz == 2 * g.m + g.n
        rows = np.repeat(np.arange(g.n), np.diff(a.indptr))
        on_diag = rows == a.indices
        # exactly one stored zero per diagonal entry, in row order
        np.testing.assert_array_equal(a.indices[on_diag], np.arange(g.n))
        np.testing.assert_array_equal(a.data[on_diag], 0.0)
        assert g.adjacency is a


def test_hessian_slots():
    cases = [
        generate_graph(5, 0, "unit", 0),
        parse_edge_list(K3_TEXT),
        generate_graph(9, 14, weight_mode=(0.0, 15.0), seed=5),
        generate_graph(40, 300, weight_mode=(-2.0, 3.0), seed=6),
    ]
    for g in cases:
        a, slots = g.adjacency, g._hessian_slots
        assert slots.shape == a.indices.shape and slots.dtype == np.intp
        # the row of every stored entry, read from the CSR indptr
        rows = np.repeat(np.arange(g.n), np.diff(a.indptr))
        on_diag = slots >= g.m
        # exactly one diagonal slot per row, on the diagonal entry
        np.testing.assert_array_equal(rows[on_diag], np.arange(g.n))
        np.testing.assert_array_equal(a.indices[on_diag], np.arange(g.n))
        np.testing.assert_array_equal(slots[on_diag], g.m + np.arange(g.n))
        # every other slot names the edge between its row and column, and
        # each edge fills two slots, (i, j) and (j, i)
        k = slots[~on_diag]
        ends = np.sort([rows[~on_diag], a.indices[~on_diag]], axis=0)
        ii, jj, _ = g.edge_arrays
        np.testing.assert_array_equal(ends, [ii[k], jj[k]])
        np.testing.assert_array_equal(np.bincount(k, minlength=g.m), np.full(g.m, 2))
        assert g._hessian_slots is slots


def test_csr_layout_matches_former_coo_build():
    # adjacency (data, indices, indptr and their dtypes) and the Hessian
    # slots, built from one sort, equal the former COO to CSR conversion:
    # on generated graphs, the bmz-sparse shapes among them, and on graphs
    # built by hand from shuffled or reversed triples with either endpoint
    # first, with isolated vertices, and with no edges
    rng = np.random.default_rng(17)
    cases = [generate_graph(800, 19176, "unit", 0), generate_graph(2000, 8000, "unit", 0)]
    for seed in range(30):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        cases.append(generate_graph(n, m, "unit" if seed % 2 else (-2.0, 3.0), seed))
    triples = list(generate_graph(30, 120, (-2.0, 3.0), 4).edges)
    shuffled = [triples[k] for k in rng.permutation(len(triples))]
    flipped = [(j, i, w) if k % 2 else (i, j, w) for k, (i, j, w) in enumerate(shuffled)]
    cases += [
        Graph(30, shuffled), Graph(30, flipped), Graph(30, flipped[::-1]),
        Graph(30, triples[::-1]),
        Graph(12, [(10, 3, 1.0), (3, 0, 2.0), (7, 5, -1.0)]),
        Graph(2, []), Graph(7, []),
    ]
    for g in cases:
        want = former_symmetric(g, g.edge_arrays[2], np.zeros(g.n))
        for field in ("data", "indices", "indptr"):
            got, ref = getattr(g.adjacency, field), getattr(want, field)
            assert got.dtype == ref.dtype, field
            np.testing.assert_array_equal(got, ref)
        k = np.arange(g.m + g.n, dtype=np.intp)
        slots = former_symmetric(g, k[:g.m], k[g.m:]).data
        assert g._hessian_slots.dtype == slots.dtype
        np.testing.assert_array_equal(g._hessian_slots, slots)


# the largest vertex count whose pair keys i * n + j fit in int64
MAX_VERTICES = 3_037_000_499


@pytest.mark.parametrize(
    "call,name",
    [
        # two distinct pairs whose int64 keys wrapped to one
        (lambda: Graph(2**62, [(0, 5, 1.0), (4, 5, 1.0)]), "vertex count"),
        (lambda: Graph(2**64, []), "vertex count"),
        (lambda: parse_edge_list("99999999999999999999 0\n"), "vertex count"),
        # pairs drawn by the generator itself wrapped out of range
        (lambda: generate_graph(2**32, 5, "unit", 0), "n"),
        (lambda: Graph(MAX_VERTICES + 1, []), "vertex count"),
    ],
    ids=["false-duplicate", "graph-2**64", "parse-header", "generate-2**32", "max+1"],
)
def test_vertex_count_beyond_int64_pair_keys(call, name):
    with pytest.raises(GraphFormatError, match=rf"^{name} must be <= {MAX_VERTICES}, got \d+$"):
        call()


def test_largest_vertex_count():
    n = MAX_VERTICES
    assert n * n < 2**63 <= (n + 1) ** 2
    g = Graph(n, [(0, 5, 1.0), (4, 5, 1.0), (n - 2, n - 1, 2.0)])
    assert g.edges == ((0, 5, 1.0), (4, 5, 1.0), (n - 2, n - 1, 2.0))
    with pytest.raises(GraphFormatError, match=r"duplicate edge at edges\[1\]"):
        Graph(n, [(n - 1, n - 2, 1.0), (n - 2, n - 1, 1.0)])
    assert parse_edge_list(f"{n} 1\n1 {n} 1.0\n").edges == ((0, n - 1, 1.0),)
    drawn = generate_graph(n, 5, "unit", 0)
    assert drawn.m == 5 and all(0 <= i < j < n for i, j, _ in drawn.edges)
