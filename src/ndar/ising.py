"""Ising/MaxCut problem model: energies, instance generators, brute force, instance files.

Conventions used throughout the package:

* a bitstring x is a numpy uint8 array of 0/1 values; spin i is s_i = 1 - 2 x_i
* model energy is offset + sum_i h_i s_i + sum_{i<j} J_ij s_i s_j
* MaxCut-derived models satisfy energy(x) == -cut(x) exactly, cut(x) being the weight
  of the edges whose endpoints x puts on different sides
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

BRUTE_FORCE_CAP = 24

# largest graph accepted; the paper's instances have 300 nodes, and the complete graph on
# NODE_CAP nodes has 523,776 edges and a 4 MB coupling matrix under the float32 rule
NODE_CAP = 1024

# entries per block of the streamed cost diagonal are 2^_COST_BLOCK_BITS, 32 KiB of
# float64, so the stream's three block buffers add under 128 KiB to a QAOA state and
# its scratch
_COST_BLOCK_BITS = 12

# entries per row block of block_rows: 512 KiB of float32 spins or fields, so one NDAR
# chunk's words, bits, spins and fields fit in L2
_BLOCK_ENTRIES = 1 << 17

# a line whose first character after blanks is '#': a comment line of an instance file
_COMMENT_START = re.compile(r"^[^\S\n]*#", re.MULTILINE)

# characters per block of an instance file's inline-'#' scan, which bounds its memory
_SCAN_BLOCK = 1 << 16

# the columns of an instance file's edge lines
_EDGE_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])

# edges per block of instance-file text; writing the complete graph on NODE_CAP nodes in
# one piece peaks (tracemalloc) at 77.5 MiB, in blocks at 28.5 MiB, in the same time
_WRITE_BLOCK = 1 << 16


def as_bits(x, n: int | None = None) -> np.ndarray:
    """Coerce a bitstring ("0110", list of ints, array) to a uint8 array of 0/1 values."""
    if isinstance(x, str):
        try:
            arr = np.array([int(c) for c in x], dtype=np.int64)
        except ValueError:
            raise ValueError(f"bitstring contains non-digit characters: {x!r}") from None
    else:
        arr = np.asarray(x)
        if arr.dtype == np.bool_:
            arr = arr.astype(np.int64)
    if arr.ndim != 1:
        raise ValueError(f"bitstring must be one-dimensional, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        asint = arr.astype(np.int64)
        if not np.array_equal(asint, arr):
            raise ValueError("bitstring values must be integers")
        arr = asint
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bitstring values must be 0 or 1")
    if n is not None and arr.size != n:
        raise ValueError(f"bitstring length {arr.size} does not match n = {n}")
    return arr.astype(np.uint8)


def _check_node_count(n: int) -> None:
    if n > NODE_CAP:
        raise ResourceLimitError(f"graph has n = {n} nodes, beyond the node cap {NODE_CAP}")


def _check_enumerable(n: int) -> None:
    if n > BRUTE_FORCE_CAP:
        raise ResourceLimitError(f"refusing to enumerate 2^{n} bitstrings (cap {BRUTE_FORCE_CAP})")


def _spin_doubling(out: np.ndarray, weights: np.ndarray, start: int = 0) -> None:
    """Given entries [0, 2^start) of out, fill it up to 2^len(weights) by doubling: entries
    [2^i, 2^(i+1)) are entries [0, 2^i) minus 2 weights[i], in place.

    From out[0] = b, entry x is b - 2 sum_{i: bit i of x is 1} weights[i]; with b the
    weights' sum, that is sum_i weights[i] s_i for the spins of x.
    """
    for i, w in enumerate(weights[start:].tolist(), start):
        np.subtract(out[:1 << i], 2.0 * w, out=out[1 << i:2 << i])


def _pair_sums(out: np.ndarray, J: np.ndarray) -> None:
    """Fill out[x] = sum_{i<j} J[i, j] s_i s_j for the spins of x < 2^len(J), where J is
    symmetric with a zero diagonal.

    Entry 0, every spin +1, is the coupling sum. Entries [2^k, 2^(k+1)) are entries
    [0, 2^k) with spin k flipped, which subtracts twice its field: J[k] summed with the
    spins below k doubled over by _spin_doubling and those above k at +1.
    """
    out[0] = 0.5 * J.sum()
    for k in range(len(J)):
        half = out[1 << k:2 << k]
        half[0] = -2.0 * J[k].sum()
        _spin_doubling(half, -2.0 * J[k, :k])
        half += out[:1 << k]


def _index_bits(idx: np.ndarray, n: int) -> np.ndarray:
    """Rows of little-endian bits for indices below 2^32: bit i of row k is (idx[k] >> i) & 1."""
    octets = np.asarray(idx).astype("<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little")


def lex_first(cand: np.ndarray, bit: Callable[[np.ndarray, int], np.ndarray], n: int) -> int:
    """The lexicographically smallest candidate (bit 0 first, 0 before 1): the one tie-break rule.

    `bit(cand, i)` reads bit i of every candidate in `cand`. For i = 0, 1, ..., n - 1
    only the candidates whose bit i is 0 are kept, whenever any of them has a 0 there;
    of identical candidates the first in `cand` wins.
    """
    for i in range(n):
        if cand.size == 1:
            break
        zero = bit(cand, i) == 0
        if zero.any():
            cand = cand[zero]
    return int(cand[0])


class TripleView(Sequence):
    """Read-only sequence of (int, int, float) triples over (i, j, value) arrays.

    The int64/int64/float64 arrays are the stored form; the tuples are built only when
    the view is iterated, indexed or hashed. A view equals another view or a tuple
    holding the same triples and hashes like that tuple, and np.asarray(view) is the
    (m, 3) float64 array of its rows.
    """

    __slots__ = ("arrays",)

    def __init__(self, arrays: tuple[np.ndarray, np.ndarray, np.ndarray]):
        self.arrays = arrays

    def __len__(self) -> int:
        return self.arrays[0].size

    def __iter__(self):
        i, j, w = self.arrays
        return zip(i.tolist(), j.tolist(), w.tolist())

    def __getitem__(self, k):
        i, j, w = self.arrays
        if isinstance(k, slice):
            return tuple(zip(i[k].tolist(), j[k].tolist(), w[k].tolist()))
        k = operator.index(k)
        return int(i[k]), int(j[k]), float(w[k])

    def __eq__(self, other) -> bool:
        if isinstance(other, TripleView):
            return all(np.array_equal(a, b) for a, b in zip(self.arrays, other.arrays))
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a TripleView holds no (m, 3) array to share")
        return np.column_stack(self.arrays).astype(dtype or np.float64, copy=False)

    def __repr__(self) -> str:
        return f"TripleView({tuple(self)!r})"


def _canonical_triples(triples, n: int, what: str) -> TripleView:
    """Validate (i, j, value) triples in one numpy pass; return a view over their arrays.

    `triples` is a sequence of triples or an (m, 3) array. Indices must be integers in
    [0, n) with i < j, pairs unique, values finite. The view holds the read-only
    (i, j, value) int64/int64/float64 arrays; no per-triple Python object is built.
    """
    try:
        t = np.asarray(triples, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{what} entries must be (i, j, value) triples") from None
    if t.size == 0:
        t = t.reshape(0, 3)
    if t.ndim != 2 or t.shape[1] != 3:
        raise ValueError(f"{what} entries must be (i, j, value) triples, got shape {t.shape}")
    fi, fj, w = t[:, 0], t[:, 1], t[:, 2]
    for bad, problem in (
            (~(np.isfinite(t[:, :2]) & (t[:, :2] == np.floor(t[:, :2]))).all(axis=1),
             "has a non-integer index"),
            (fi == fj, "is a self-loop"),
            ((fi < 0) | (fj < 0) | (fi >= n) | (fj >= n), f"has an index outside [0, {n})"),
            (fi > fj, "must be ordered i < j"),
            (~np.isfinite(w), "has a non-finite value")):
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"{what} ({fi[k]:g}, {fj[k]:g}) {problem}")
    arrays = fi.astype(np.int64), fj.astype(np.int64), w.copy()
    keys = arrays[0] * n + arrays[1]
    # sorted neighbours, not np.unique's hash table: on the 523,776 pairs of the complete
    # graph on NODE_CAP nodes, 5 ms against 280 ms on a 2-core host
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        raise ValueError(f"duplicate {what} pair")
    for a in arrays:
        a.flags.writeable = False
    return TripleView(arrays)


@dataclass(frozen=True, eq=False)
class IsingModel:
    """Cost model offset + sum_i h[i] s_i + sum_{i<j} J_ij s_i s_j with s_i = 1 - 2 x_i.

    `h` takes n values and holds them as a read-only float64 array. `couplings` takes
    (i, j, J_ij) triples with i < j, as a sequence or an (m, 3) array, and holds a
    TripleView over the int64/int64/float64 arrays `couplings.arrays`. Models with equal
    n, offset, h and couplings are equal and hash equal (0.0 and -0.0 alike). The offset
    is part of every energy so that MaxCut-derived models satisfy energy == -cut exactly.
    """

    n: int
    h: np.ndarray
    couplings: Sequence[tuple[int, int, float]]
    offset: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        h = np.array(self.h, dtype=np.float64)
        if h.shape != (self.n,):
            raise ValueError(f"h must hold {self.n} values, got shape {h.shape}")
        if not np.isfinite(h).all():
            raise ValueError("h contains non-finite values")
        if not np.isfinite(self.offset):
            raise ValueError("offset must be finite")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "couplings",
                           _canonical_triples(self.couplings, self.n, "coupling"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IsingModel):
            return NotImplemented
        return (self.n == other.n and self.offset == other.offset
                and np.array_equal(self.h, other.h) and self.couplings == other.couplings)

    def __hash__(self) -> int:
        return hash((self.n, self.offset, tuple(self.h.tolist()), self.couplings))

    @functools.cached_property
    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(h, J) in float32 when every energy sum is exact there, else float64 (h then
        `self.h`). J is the model's one dense coupling matrix, J_ij at [i, j] and [j, i],
        read by `energies`, the annealer, `cost_blocks` and the p = 1 closed form.

        The rule: every h_i and J_ij is an integer multiple of one unit u = 2^-p (p >= 0),
        and the total sum |h_i| + 2 sum_{i<j} |J_ij| is finite and at most 2^24 u. Then
        every partial sum `energies` and `sa_solve` form, in any order, is a multiple of u
        no larger than 2^24 u, which float32 holds exactly. Testing the finest unit the
        bound allows suffices, as a multiple of 2^-p is one of 2^-q for every q >= p;
        p <= 126 keeps u a normal float32.
        """
        ci, cj, cw = self.couplings.arrays
        total = float(np.abs(self.h).sum()) + 2.0 * float(np.abs(cw).sum())
        mant, exp = math.frexp(total)  # total = mant * 2^exp with 0.5 <= mant < 1
        p = min(126, 24 - exp + (mant == 0.5)) if total else 0
        scaled = (np.ldexp(values, p) for values in (self.h, cw))
        exact = (math.isfinite(total) and p >= 0
                 and all(np.array_equal(s, np.round(s)) for s in scaled))
        h = self.h.astype(np.float32) if exact else self.h
        m = np.zeros((self.n, self.n), dtype=h.dtype)
        m[ci, cj] = cw
        m[cj, ci] = cw
        return h, m


def energy(model: IsingModel, x) -> float:
    """Exact energy of bitstring x under the model (offset included)."""
    s = 1.0 - 2.0 * as_bits(x, model.n).astype(np.float64)
    ci, cj, cw = model.couplings.arrays
    e = model.offset + float(model.h @ s)
    if cw.size:
        e += float(cw @ (s[ci] * s[cj]))
    return e


def block_rows(n: int) -> int:
    """Rows of n bits per NDAR chunk and energies block: max(2, 2^17 // n) rounded down to
    even, so chunked Bernoulli and decay draws, two bits per raw output, equal one draw."""
    return max(2, (_BLOCK_ENTRIES // n) & ~1)


def energies(model: IsingModel, xs) -> np.ndarray:
    """Energies of a batch of bitstrings given as a (shots, n) 0/1 matrix.

    S @ h, S @ J and the row dot of S with S @ J run in the dtype of `model.terms`:
    float32 under its rule (small dyadic weights, as in every generated instance), where
    every partial sum is exact in both dtypes, and float64 otherwise. The sums become
    float64 before the offset and the factor 1/2 are applied, in the float64 path's
    order, so both paths give the same bits.

    Rows go in blocks of block_rows(n), an NDAR chunk's size, through one spin buffer and
    one S @ J buffer, so the temporaries stay near 512 KiB each whatever the batch size.
    """
    X = np.asarray(xs)
    if X.ndim != 2 or X.shape[1] != model.n:
        raise ValueError(f"expected a (shots, {model.n}) bit matrix, got shape {X.shape}")
    h, J = model.terms
    block = block_rows(model.n)
    spins = np.empty((min(block, len(X)), model.n), dtype=h.dtype)
    fields = np.empty_like(spins)
    out = np.empty(len(X))
    for start in range(0, len(X), block):
        stop = min(start + block, len(X))
        S = spins[:stop - start]
        np.copyto(S, X[start:stop])  # spins 1 - 2x, built in place; exact in both dtypes
        S *= -2
        S += 1
        e = model.offset + (S @ h).astype(np.float64)
        if len(model.couplings):
            SJ = np.matmul(S, J, out=fields[:stop - start])
            e += 0.5 * np.einsum("ij,ij->i", S, SJ).astype(np.float64)
        out[start:stop] = e
    return out


@dataclass(frozen=True)
class MaxCutInstance:
    """Weighted graph for MaxCut: n nodes and (i, j, w_ij) edges with i < j.

    `edges` takes a sequence of triples or an (m, 3) array, and holds a TripleView over
    the int64/int64/float64 arrays `edges.arrays`.
    """

    n: int
    edges: Sequence[tuple[int, int, float]]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("MaxCut instance needs n >= 2")
        _check_node_count(self.n)
        object.__setattr__(self, "edges", _canonical_triples(self.edges, self.n, "edge"))


def edge_density(g: MaxCutInstance) -> float:
    """|E| divided by the number of node pairs n(n-1)/2."""
    return len(g.edges) / (g.n * (g.n - 1) / 2)


def maxcut_to_ising(g: MaxCutInstance) -> IsingModel:
    """Encode MaxCut as an Ising model: h = 0, J_ij = w_ij / 2, offset = -(1/2) sum w.

    With this encoding energy(model, x) equals minus the cut weight of x for every x, so
    minimizing the energy maximizes the cut.
    """
    ei, ej, ew = g.edges.arrays
    offset = -0.5 * float(ew.sum()) if ew.size else 0.0
    return IsingModel(g.n, np.zeros(g.n), np.column_stack((ei, ej, ew / 2.0)), offset)


def gen_unweighted(n: int, d: float, seed: int) -> MaxCutInstance:
    """Random unweighted graph: each node pair is an edge of weight 1 with probability d."""
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_node_count(n)
    if not (0.0 <= d <= 1.0):
        raise ValueError(f"edge density must lie in [0, 1], got {d}")
    iu, ju = np.triu_indices(n, k=1)
    keep = np.random.default_rng(seed).random(iu.size) < d
    return MaxCutInstance(n, np.column_stack((iu, ju, np.ones(iu.size)))[keep])


def gen_weighted_dense(n: int, seed: int) -> MaxCutInstance:
    """Complete graph with weights drawn uniformly from {-1, +1}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_node_count(n)
    iu, ju = np.triu_indices(n, k=1)
    w = np.random.default_rng(seed).integers(0, 2, iu.size) * 2.0 - 1.0
    return MaxCutInstance(n, np.column_stack((iu, ju, w)))


def _index_bit(c: np.ndarray, i: int) -> np.ndarray:
    """Bit i of each statevector index in c."""
    return (c >> i) & 1


def cost_blocks(model: IsingModel):
    """Yield the energies of all 2^n bitstrings (offset included), indexed like a
    statevector, in consecutive blocks of 2^L entries, L = min(n, _COST_BLOCK_BITS).

    Every block is yielded in one buffer, which the next block overwrites. Entry x of
    block q is string q 2^L + x: q sets the n - L high spins and x the L low ones. No bit
    matrix is built: the low spins' coupling sums (_pair_sums) and the high spins' field
    and coupling sums for every q (spin doubling) are built once. Block q adds to the low
    coupling sums q's coupling sum and the field of q's spins on each low spin,
    J[:L, L:] s_high, summed over the first L // 2 low spins by a product with a table
    of their spins and then doubled over the rest. It adds (offset + field sum) last,
    the order `energies` adds them in. Under the float32 rule of `terms` every other sum
    is exact, so each entry has the bits `energies` gives; off it (weights such as 0.1)
    they agree to rounding, about 1e-15 relative. Refuses n beyond the enumeration cap
    before allocating.
    """
    _check_enumerable(model.n)
    n, J, h = model.n, model.terms[1], model.h
    low = min(n, _COST_BLOCK_BITS)
    a = low // 2  # the first a low spins are read off a table, the rest doubled
    spins_a = 1.0 - 2.0 * _index_bits(np.arange(1 << a), a)
    fields_a = spins_a @ h[:a]
    pairs_low = np.empty(1 << low)
    _pair_sums(pairs_low, J[:low, :low])
    fields_high = np.empty(1 << (n - low))
    fields_high[0] = h[low:].sum()
    _spin_doubling(fields_high, h[low:])
    pairs_high = np.empty_like(fields_high)
    _pair_sums(pairs_high, J[low:, low:])
    spins_high = 1 - 2 * _index_bits(np.arange(1 << (n - low)), n - low).astype(np.int8)
    cross, fields_low = J[:low, low:], h[:low]
    block, t, t_field = np.empty_like(pairs_low), np.empty_like(pairs_low), None
    for field, pair, s_high in zip(fields_high, pairs_high, spins_high):
        w = cross @ s_high  # the high spins' field on each low spin
        np.matmul(spins_a, w[:a], out=block[:1 << a])
        block[:1 << a] += w[a:].sum() + pair
        _spin_doubling(block, w, a)
        block += pairs_low
        if field != t_field:  # t depends on q only through its field sum, 0 for MaxCut
            np.add(fields_a, fields_low[a:].sum() + field, out=t[:1 << a])
            _spin_doubling(t, fields_low, a)
            t += model.offset
            t_field = field
        block += t
        yield block


def brute_force_best(model: IsingModel) -> tuple[np.ndarray, float]:
    """Global minimum-energy bitstring, read off cost_blocks in one pass; ties go to lex_first.

    Lexicographic order treats bit 0 as the most significant position. The rule runs
    on each block that holds the running minimum, then over the block winners, so the
    candidate arrays stay one block long however many strings tie; the candidates of a
    block share their high bits, so its own indices decide. Refuses n beyond the
    enumeration cap.
    """
    lowest, winners, start = math.inf, [], 0
    for block in cost_blocks(model):
        low = block.min()
        if low < lowest:
            lowest, winners = low, []
        if low == lowest:
            winners.append(start + lex_first(np.flatnonzero(block == low), _index_bit, model.n))
        start += block.size
    best = lex_first(np.array(winners, dtype=np.int64), _index_bit, model.n)
    bits = _index_bits(np.array([best], dtype=np.int64), model.n)[0]
    return bits, energy(model, bits)


def write_instance(g: MaxCutInstance, path) -> None:
    """Write a graph as text: one 'n m' header line, then 'i j w' per edge, sorted by (i, j).

    A weight is printed with 12 significant digits when that reads back exactly (so
    integer weights print as '1'), otherwise as its shortest exact repr. Each distinct
    weight (bit pattern, so -0.0 apart from 0.0) is formatted once.
    """
    ei, ej, ew = g.edges.arrays
    order = np.lexsort((ej, ei))
    bits, which = np.unique(ew[order].view(np.int64), return_inverse=True)
    texts = []
    for w in bits.view(np.float64).tolist():
        text = f"{w:.12g}"
        texts.append(text if float(text) == w else repr(w))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.n} {len(g.edges)}\n")
        for start in range(0, order.size, _WRITE_BLOCK):
            rows, ks = order[start:start + _WRITE_BLOCK], which[start:start + _WRITE_BLOCK]
            fh.write("".join([f"{i} {j} {texts[k]}\n" for i, j, k in
                              zip(ei[rows].tolist(), ej[rows].tolist(), ks.tolist())]))


def _read_edge_lines(path, header_line: int, m: int) -> list[tuple[int, int, float]]:
    """The line loop over the lines after the header, which is file line `header_line`:
    the m edges, or a ValueError that names the file's line."""
    with open(path, "r", encoding="utf-8") as fh:
        # (line number, text) of the edge lines, up to one beyond the m promised
        rows = list(itertools.islice(((k, ln) for k, ln in enumerate(map(str.strip, fh), 1)
                                      if k > header_line and ln and ln[0] != "#"), m + 1))
    if len(rows) != m:
        raise ValueError(f"{path}: header promises {m} edges, file has "
                         f"{'more' if len(rows) > m else len(rows)}")
    edges = []
    for lineno, ln in rows:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'i j w', got {ln!r}")
        try:
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed edge {ln!r}") from None
        edges.append((min(i, j), max(i, j), w))
    return edges


def _needs_line_loop(fh) -> bool:
    """Whether the rest of fh has a '#' that starts no comment line, or a line longer than
    _SCAN_BLOCK characters: read in blocks cut after their last newline, so each shorter
    line is whole in one block and memory stays bounded however long the file."""
    carry = ""
    for block in itertools.chain(iter(functools.partial(fh.read, _SCAN_BLOCK), ""), ["\n"]):
        lines, _, carry = (carry + block).rpartition("\n")
        if len(carry) > _SCAN_BLOCK or ("#" in lines and lines.count("#")
                                        != len(_COMMENT_START.findall(lines))):
            return True
    return False


def _load_edges(path, skip: int, m: int) -> np.ndarray | None:
    """The m edge lines after the first `skip` lines as an (m, 3) array of sorted (i, j, w)
    rows, parsed by np.loadtxt in one streamed pass that stops one edge line beyond m;
    None when that pass refuses the file or finds another number of edges."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no edge lines, or a deprecated int parse
            t = np.loadtxt(path, dtype=_EDGE_ROW, comments="#", skiprows=skip, ndmin=1,
                           encoding="utf-8", max_rows=m + 1)
    except (ValueError, Warning):
        return None
    if t.size != m:
        return None
    return np.column_stack((np.minimum(t["i"], t["j"]), np.maximum(t["i"], t["j"]), t["w"]))


def read_instance(path) -> MaxCutInstance:
    """Parse the edge-list text format; rejects self-loops, duplicates, and bad counts.

    The file is an 'n m' header line, then 'i j w' per edge, with blank lines and lines
    starting with '#' skipped; i > j is read as (j, i). An n beyond NODE_CAP is refused
    from the header. The edge lines are parsed in one streamed np.loadtxt pass (int64
    indices, which refuse '1e3' and '1.5' as int() does, and float64 weights): the
    complete graph on NODE_CAP nodes in about 0.15 s and a 32 MiB tracemalloc peak. A
    file that pass refuses or miscounts, or that `_needs_line_loop`, goes to the line
    loop, whose errors name the file's line (about 1 s and 178 MiB on that graph); both
    stop one edge line beyond the header's count.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, header in enumerate(map(str.strip, fh), 1):
            if header and header[0] != "#":
                break
        else:
            raise ValueError(f"{path}: empty instance file")
        head = header.split()
        if len(head) != 2:
            raise ValueError(f"{path}: header must be 'n m', got {header!r}")
        try:
            n, m = int(head[0]), int(head[1])
        except ValueError:
            raise ValueError(f"{path}: header must hold two integers, got {header!r}") from None
        if m < 0:
            raise ValueError(f"{path}: header promises a negative edge count, got {header!r}")
        _check_node_count(n)
        # loadtxt would drop the rest of a line after an inline '#', which the format refuses
        by_lines = not m or _needs_line_loop(fh)
    edges = None if by_lines else _load_edges(path, lineno, m)
    if edges is None:
        edges = _read_edge_lines(path, lineno, m)
    try:
        return MaxCutInstance(n, edges)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
