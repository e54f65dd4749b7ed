"""Connectivity stores — the memory representation behind the engine.

The refinement engine's dominant allocation is the per-node
part-connectivity bookkeeping: for every node *u* and part *c*, the
summed weight of *u*'s edges into *c* and the count of *u*'s neighbours
living in *c*.  :class:`~repro.partition.refine_state.RefinementState`
historically materialised both as dense ``(k, n)`` matrices — ~16·k·n
bytes, which is ~2 GB at n=1M, k=128 *before a single move* and the
blocker to million-node instances (ROADMAP item 2).

This module puts that bookkeeping behind a small protocol with two
interchangeable implementations:

:class:`DenseConnStore`
    The historical layout, verbatim: ``conn`` float64 and ``ncnt`` int64
    of shape ``(k, n)``.  Every query and update computes what the numpy
    expression the engine used inline computed, value for value (a move
    of a low-degree node writes the same cells through memoryviews), so
    the dense path is **bit-identical** to the pre-store engine (pinned
    by the existing differential corpora).

:class:`SparseConnStore`
    A packed CSR-of-slices layout sized by *degree*, not by *k*: node
    *u* owns a slice of capacity ``min(deg(u), k)`` holding
    ``(part int32, weight float64, count int32)`` entries for the parts
    it actually touches — ~16 bytes per *incident part* instead of 16
    bytes per *(part, node)* cell.  On bounded-degree process networks
    this is 8–15× below dense at k=64 and the ratio grows with k.
    Entries within a slice are unsorted; removal is swap-with-last;
    a move updates only the slices of the moved node's neighbours
    (O(deg) amortised).  The capacity invariant — live entries =
    distinct neighbour parts ≤ min(deg, k), since every live entry has
    count ≥ 1 and counts sum to deg — guarantees a slice never
    overflows as long as zero-count entries are removed before new
    parts are inserted.  A move updates the slices in a Python loop,
    one neighbour at a time, through ``memoryview``s of the arrays.

Exactness contract: like the engine itself, the sparse store is exact
under **integer-valued weights** (the invariant the differential suites
pin).  Under such weights a part's summed weight reaches exactly 0.0
when its neighbour count does, so dropping the entry loses nothing;
with irrational float weights the dense matrix can retain
accumulation dust in zero-count cells that the sparse store sheds —
both are within float tolerance of the true value, but only the
integer-weight case is bit-reproducible across formats.

``make_conn_store`` picks the format: explicit ``"dense"``/``"sparse"``,
or ``"auto"`` — sparse iff ``k * n`` exceeds :data:`AUTO_SPARSE_CELLS`.
The threshold is far above every pinned differential corpus, so
existing results are byte-stable by construction.  See
``docs/refinement.md`` (connectivity formats) for the full contract.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import PartitionError

__all__ = [
    "AUTO_SPARSE_CELLS",
    "CONN_FORMATS",
    "check_conn_format",
    "make_conn_store",
    "DenseConnStore",
    "SparseConnStore",
]

#: ``"auto"`` switches to the sparse store when ``k * n`` exceeds this
#: many cells (4M cells = 64 MB of dense matrices).  Far above every
#: pinned differential corpus, so auto never changes small-instance
#: results; far below the million-node target, so large instances never
#: allocate the dense matrices at all.
AUTO_SPARSE_CELLS = 4_000_000

CONN_FORMATS = ("auto", "dense", "sparse")


def check_conn_format(conn_format: str) -> str:
    """Validate a ``conn_format`` knob value (shared by every entry point)."""
    if conn_format not in CONN_FORMATS:
        raise PartitionError(
            f"conn_format must be one of {CONN_FORMATS}, got {conn_format!r}"
        )
    return conn_format


def make_conn_store(g, assign: np.ndarray, k: int, conn_format: str = "auto"):
    """Build the connectivity store for *(g, assign, k)* in *conn_format*."""
    check_conn_format(conn_format)
    if conn_format == "auto":
        conn_format = "sparse" if k * g.n > AUTO_SPARSE_CELLS else "dense"
    if conn_format == "dense":
        return DenseConnStore(g, assign, k)
    return SparseConnStore(g, assign, k)


#: :meth:`DenseConnStore.apply_move` updates a node with fewer
#: neighbours than this through Python scalars; see docs/refinement.md
#: ("Move evaluation") for the measurement.
_SCALAR_MOVE_MAX_DEG = 24


def _flat_slice_indices(
    lo: np.ndarray, ln: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices enumerating many slices at once.

    Given per-slice starts *lo* and lengths *ln*, returns ``(rows,
    flat)``: ``flat`` walks every slice's entries in order, ``rows[i]``
    is the slice that ``flat[i]`` belongs to.  The repeat/cumsum trick
    replaces a Python loop over slices with three O(total) array ops.
    """
    total = int(ln.sum())
    rows = np.repeat(np.arange(ln.size), ln)
    offsets = np.arange(total) - np.repeat(np.cumsum(ln) - ln, ln)
    return rows, np.repeat(lo, ln) + offsets


class DenseConnStore:
    """The historical dense ``(k, n)`` layout, expression for expression.

    ``conn[c, u]`` — weight of *u*'s edges into part *c*;
    ``ncnt[c, u]`` — count of *u*'s neighbours in part *c*.
    """

    __slots__ = ("k", "n", "conn", "ncnt", "_idx")

    format = "dense"

    def __init__(self, g, assign: np.ndarray, k: int) -> None:
        self.k = int(k)
        self.n = g.n
        a = assign
        eu, ev, ew = g.edge_array
        conn = np.zeros((self.k, self.n), dtype=np.float64)
        np.add.at(conn, (a[ev], eu), ew)
        np.add.at(conn, (a[eu], ev), ew)
        self.conn = conn
        ncnt = np.zeros((self.k, self.n), dtype=np.int64)
        ones = np.ones(len(ew), dtype=np.int64)
        np.add.at(ncnt, (a[ev], eu), ones)
        np.add.at(ncnt, (a[eu], ev), ones)
        self.ncnt = ncnt
        self._idx = np.arange(self.n)

    @property
    def nbytes(self) -> int:
        return self.conn.nbytes + self.ncnt.nbytes

    # -- queries ------------------------------------------------------- #
    def col(self, u: int) -> np.ndarray:
        """Node *u*'s dense connectivity column, shape ``(k,)`` (a copy)."""
        return self.conn[:, u].copy()

    def entries(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, parts, weights)`` of the positive entries of *nodes*'
        columns; ``rows`` index into *nodes*, sorted by ``(row, part)``."""
        cols = self.gather_cols(nodes)
        rows, parts = np.nonzero(cols > 0.0)
        return rows, parts, cols[rows, parts]

    def node_entries(self, u: int) -> list[tuple[int, float]]:
        """:meth:`entries` of the single node *u*, as ``(part, weight)``."""
        return [
            (p, x) for p, x in enumerate(self.conn[:, u].tolist()) if x > 0.0
        ]

    def gain_pair(self, u: int, src: int, dest: int) -> float:
        return float(self.conn[dest, u] - self.conn[src, u])

    def conn_at(self, parts: np.ndarray) -> np.ndarray:
        """``out[i] = conn[parts[i], i]`` — one weight per node."""
        return self.conn[parts, self._idx]

    def same_part_counts(self, assign: np.ndarray) -> np.ndarray:
        """``out[i] = ncnt[assign[i], i]`` — same-part neighbour counts."""
        return self.ncnt[assign, self._idx]

    def gather_cols(self, nodes: np.ndarray) -> np.ndarray:
        """Columns of *nodes* as a ``(len(nodes), k)`` contiguous gather."""
        return self.conn.T[nodes]

    def touching(self, part: int) -> np.ndarray:
        """Boolean ``(n,)`` mask of nodes with positive weight into *part*."""
        return self.conn[part] > 0.0

    def dense_conn(self) -> np.ndarray:
        return self.conn

    def dense_counts(self) -> np.ndarray:
        return self.ncnt

    # -- updates ------------------------------------------------------- #
    def apply_move(
        self, src: int, dest: int, nbrs: np.ndarray, ws: np.ndarray
    ) -> None:
        """Account a *src*→*dest* move of a node with neighbours *nbrs*.

        Below :data:`_SCALAR_MOVE_MAX_DEG` neighbours, Python scalars
        through memoryviews of the flattened matrices beat the four
        fancy-index updates; each cell gets the same single float
        operation either way (*nbrs* holds no repeats).
        """
        if nbrs.size < _SCALAR_MOVE_MAX_DEG:
            n = self.n
            conn = memoryview(self.conn.reshape(-1))
            ncnt = memoryview(self.ncnt.reshape(-1))
            s, d = src * n, dest * n
            for v, w in zip(nbrs.tolist(), ws.tolist()):
                conn[s + v] -= w
                conn[d + v] += w
                ncnt[s + v] -= 1
                ncnt[d + v] += 1
            return
        self.conn[src, nbrs] -= ws
        self.conn[dest, nbrs] += ws
        self.ncnt[src, nbrs] -= 1
        self.ncnt[dest, nbrs] += 1

    def copy(self) -> "DenseConnStore":
        out = object.__new__(DenseConnStore)
        out.k = self.k
        out.n = self.n
        out.conn = self.conn.copy()
        out.ncnt = self.ncnt.copy()
        out._idx = self._idx
        return out


class SparseConnStore:
    """Packed per-node part-connectivity slices, sized by degree.

    Node *u* owns ``parts/weights/counts[indptr[u] : indptr[u] +
    nnz[u]]`` within a reserved capacity of ``indptr[u+1] - indptr[u] =
    min(deg(u), k)`` entries; entries are unsorted, one per part the
    node currently touches.  See the module docstring for the capacity
    invariant and the exactness contract.
    """

    __slots__ = ("k", "n", "indptr", "parts", "weights", "counts", "nnz")

    format = "sparse"

    def __init__(self, g, assign: np.ndarray, k: int) -> None:
        self.k = int(k)
        self.n = g.n
        a = assign
        eu, ev, ew = g.edge_array
        csr_indptr = g.csr[0]
        degrees = csr_indptr[1:] - csr_indptr[:-1]
        cap = np.minimum(degrees, self.k).astype(np.int64)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(cap, out=indptr[1:])
        self.indptr = indptr

        # aggregate (node, part) contributions from both edge directions
        node_of = np.concatenate([eu, ev])
        part_of = np.concatenate([a[ev], a[eu]])
        w_of = np.concatenate([ew, ew])
        keys = node_of.astype(np.int64) * self.k + part_of
        uniq, inv = np.unique(keys, return_inverse=True)
        wsum = np.bincount(inv, weights=w_of, minlength=uniq.size)
        csum = np.bincount(inv, minlength=uniq.size)
        node_ids = uniq // self.k
        part_ids = (uniq % self.k).astype(np.int32)

        total = int(indptr[-1])
        parts_arr = np.zeros(total, dtype=np.int32)
        weights_arr = np.zeros(total, dtype=np.float64)
        counts_arr = np.zeros(total, dtype=np.int32)
        nnz = np.bincount(node_ids, minlength=self.n).astype(np.int32)
        # uniq is ascending, so each node's entries are consecutive; the
        # first entry of node u sits at searchsorted(node_ids, u)
        first = np.searchsorted(node_ids, np.arange(self.n))
        pos = indptr[node_ids] + (np.arange(uniq.size) - first[node_ids])
        parts_arr[pos] = part_ids
        weights_arr[pos] = wsum
        counts_arr[pos] = csum.astype(np.int32)
        self.parts = parts_arr
        self.weights = weights_arr
        self.counts = counts_arr
        self.nnz = nnz

    @property
    def nbytes(self) -> int:
        return (
            self.indptr.nbytes
            + self.parts.nbytes
            + self.weights.nbytes
            + self.counts.nbytes
            + self.nnz.nbytes
        )

    # -- queries ------------------------------------------------------- #
    def _slice(self, u: int) -> slice:
        lo = self.indptr[u]
        return slice(lo, lo + self.nnz[u])

    def col(self, u: int) -> np.ndarray:
        out = np.zeros(self.k, dtype=np.float64)
        sl = self._slice(u)
        out[self.parts[sl]] = self.weights[sl]
        return out

    def entries(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, parts, weights)`` of the positive entries of *nodes*'
        slices; ``rows`` index into *nodes*, sorted by ``(row, part)``
        (slices are unsorted, so this matches the dense store's order)."""
        rows, flat = _flat_slice_indices(self.indptr[nodes], self.nnz[nodes])
        live = self.weights[flat] > 0.0  # zero-weight edges stay live
        rows, flat = rows[live], flat[live]
        parts = self.parts[flat].astype(np.int64)
        order = np.lexsort((parts, rows))
        return rows[order], parts[order], self.weights[flat[order]]

    def node_entries(self, u: int) -> list[tuple[int, float]]:
        """:meth:`entries` of the single node *u*, as ``(part, weight)``."""
        lo = int(self.indptr[u])
        hi = lo + int(self.nnz[u])
        ws = self.weights[lo:hi].tolist()
        live = sorted(zip(self.parts[lo:hi].tolist(), ws))
        if ws and min(ws) <= 0.0:  # live entries of zero weight
            live = [e for e in live if e[1] > 0.0]
        return live

    def gain_pair(self, u: int, src: int, dest: int) -> float:
        sl = self._slice(u)
        p = self.parts[sl]
        w = self.weights[sl]
        w_dest = w[p == dest]
        w_src = w[p == src]
        dest_w = float(w_dest[0]) if w_dest.size else 0.0
        src_w = float(w_src[0]) if w_src.size else 0.0
        return dest_w - src_w

    def conn_at(self, parts: np.ndarray) -> np.ndarray:
        rows, flat = _flat_slice_indices(self.indptr[:-1], self.nnz)
        hit = self.parts[flat] == parts[rows]
        out = np.zeros(self.n, dtype=np.float64)
        out[rows[hit]] = self.weights[flat[hit]]
        return out

    def same_part_counts(self, assign: np.ndarray) -> np.ndarray:
        rows, flat = _flat_slice_indices(self.indptr[:-1], self.nnz)
        hit = self.parts[flat] == assign[rows]
        out = np.zeros(self.n, dtype=np.int64)
        out[rows[hit]] = self.counts[flat[hit]]
        return out

    def gather_cols(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        out = np.zeros((nodes.size, self.k), dtype=np.float64)
        if nodes.size == 0:
            return out
        rows, flat = _flat_slice_indices(self.indptr[nodes], self.nnz[nodes])
        out[rows, self.parts[flat]] = self.weights[flat]
        return out

    def touching(self, part: int) -> np.ndarray:
        rows, flat = _flat_slice_indices(self.indptr[:-1], self.nnz)
        hit = (self.parts[flat] == part) & (self.weights[flat] > 0.0)
        out = np.zeros(self.n, dtype=bool)
        out[rows[hit]] = True
        return out

    def dense_conn(self) -> np.ndarray:
        """Materialised ``(k, n)`` weight matrix — tests/debugging only."""
        out = np.zeros((self.k, self.n), dtype=np.float64)
        rows, flat = _flat_slice_indices(self.indptr[:-1], self.nnz)
        out[self.parts[flat], rows] = self.weights[flat]
        return out

    def dense_counts(self) -> np.ndarray:
        """Materialised ``(k, n)`` count matrix — tests/debugging only."""
        out = np.zeros((self.k, self.n), dtype=np.int64)
        rows, flat = _flat_slice_indices(self.indptr[:-1], self.nnz)
        out[self.parts[flat], rows] = self.counts[flat]
        return out

    # -- updates ------------------------------------------------------- #
    def apply_move(
        self, src: int, dest: int, nbrs: np.ndarray, ws: np.ndarray
    ) -> None:
        """Account a *src*→*dest* move across the neighbours' slices.

        Order matters for the capacity invariant: decrement the (always
        present) *src* entry first, drop it if its count reached zero,
        and only then insert a *dest* entry if the neighbour had none —
        after removal every slice holds exactly its live distinct parts,
        so the insert always fits.
        """
        # memoryview items read and write Python scalars at a fraction of
        # the cost of numpy scalar indexing
        indptr, nnz = memoryview(self.indptr), memoryview(self.nnz)
        parts, weights = memoryview(self.parts), memoryview(self.weights)
        counts = memoryview(self.counts)
        for v, w in zip(nbrs.tolist(), ws.tolist()):
            lo = indptr[v]
            hi = lo + nnz[v]
            ps = parts[lo:hi].tolist()
            s = lo + ps.index(src)
            weights[s] -= w
            left = counts[s] - 1
            counts[s] = left
            has_dest = dest in ps
            if has_dest:
                d = lo + ps.index(dest)
                weights[d] += w
                counts[d] += 1
            if left == 0:  # swap-with-last removal
                hi -= 1
                parts[s] = parts[hi]
                weights[s] = weights[hi]
                counts[s] = counts[hi]
                nnz[v] -= 1
            if not has_dest:
                parts[hi] = dest
                weights[hi] = w
                counts[hi] = 1
                nnz[v] += 1

    def copy(self) -> "SparseConnStore":
        out = object.__new__(SparseConnStore)
        out.k = self.k
        out.n = self.n
        out.indptr = self.indptr  # capacity layout is immutable
        out.parts = self.parts.copy()
        out.weights = self.weights.copy()
        out.counts = self.counts.copy()
        out.nnz = self.nnz.copy()
        return out
