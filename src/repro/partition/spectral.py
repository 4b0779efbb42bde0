"""Recursive spectral bisection via the Fiedler vector.

Each bisection splits at the weighted median of the second-smallest
Laplacian eigenvector.  Disconnected subgraphs are handled by peeling
components first (a disconnected Laplacian has a degenerate Fiedler
vector).  Slow but high-quality — the classic contrast to RCB.
"""

from __future__ import annotations

import numpy as np

from repro.partition.graph import Graph, check_nparts

# scipy is imported inside the functions that use it: it takes about 0.4 s
# to import, which a process that never partitions (one that only needs
# AdaptConfig from repro.apps.adapt, say) should not pay

__all__ = ["spectral", "fiedler_vector"]


def _laplacian(graph: Graph) -> "sp.csr_matrix":
    import scipy.sparse as sp

    n = graph.num_vertices
    adj = sp.csr_matrix((-graph.ewgt, (graph.sources(), graph.adjncy)), shape=(n, n))
    deg = -np.asarray(adj.sum(axis=1)).ravel()
    return adj + sp.diags(deg)


def fiedler_vector(graph: Graph, seed: int = 7) -> np.ndarray:
    """Second-smallest eigenvector of the graph Laplacian."""
    n = graph.num_vertices
    if n < 3:
        return np.arange(n, dtype=np.float64)
    import scipy.sparse.linalg as spla

    lap = _laplacian(graph).asfptype()
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    try:
        _vals, vecs = spla.eigsh(lap, k=2, sigma=-1e-6, which="LM", v0=v0)
        return vecs[:, 1]
    except Exception:
        # dense fallback for tiny/ill-conditioned cases
        vals, vecs = np.linalg.eigh(lap.toarray())
        return vecs[:, np.argsort(vals)[1]]


def spectral(graph: Graph, nparts: int, seed: int = 7) -> np.ndarray:
    """Partition into ``nparts`` by recursive spectral bisection."""
    nparts = check_nparts(nparts)
    part = np.zeros(graph.num_vertices, dtype=np.int64)
    if nparts == 1 or graph.num_vertices == 0:
        return part
    _recurse(graph, np.arange(graph.num_vertices), 0, nparts, part, seed)
    return part


def _recurse(
    root: Graph, ids: np.ndarray, first_part: int, nparts: int, out: np.ndarray, seed: int
) -> None:
    if nparts == 1 or len(ids) == 0:
        out[ids] = first_part
        return
    left_parts = nparts // 2
    right_parts = nparts - left_parts
    target_frac = left_parts / nparts

    # csgraph's extension modules add about 1 MB to a process
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    sub, orig = root.subgraph(ids)
    links = sp.csr_matrix((np.ones(len(sub.adjncy)), sub.adjncy, sub.xadj), shape=(len(ids),) * 2)
    ncomp, comp = connected_components(links, directed=False)
    if ncomp > 1:
        # order vertices component-by-component (components numbered by
        # their lowest vertex), then split by weight
        order_local = np.argsort(comp, kind="stable")
    else:
        fied = fiedler_vector(sub, seed=seed)
        order_local = np.argsort(fied, kind="stable")
    order = orig[order_local]
    cum = np.cumsum(root.vwgt[order])
    split = int(np.searchsorted(cum, target_frac * cum[-1], side="left")) + 1
    split = max(1, min(split, len(order) - 1)) if len(order) > 1 else 1
    _recurse(root, np.asarray(sorted(order[:split])), first_part, left_parts, out, seed + 1)
    _recurse(
        root, np.asarray(sorted(order[split:])), first_part + left_parts, right_parts, out, seed + 2
    )
