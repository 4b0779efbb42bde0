"""Canonical Barnes–Hut quadtree.

*Canonical* means deterministic and insertion-order independent: the region
quadtree's structure is a function of the body positions alone (each body
sinks to its own cell, splitting on collision up to a depth cap), and the
mass/centre-of-mass sums are computed in a bottom-up pass that accumulates
bodies and children in fixed index order.  Two processes building the tree
from the same positions — in any insertion order — get bit-identical
results, which is what lets the three programming-model implementations be
cross-checked exactly.  (Node *ids* follow allocation order, so they are
fixed only for a fixed insertion order; :meth:`QuadTree.build` always
inserts in index order.)

Forces are evaluated once per tree for every body (:meth:`QuadTree.forces`):
one vectorised walk whose per-body sums repeat the scalar preorder walk's
order and rounding, so they are bit-identical to it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Set, Tuple

import numpy as np

__all__ = ["Forces", "QuadTree"]

_MAX_DEPTH = 40

#: bodies whose walks run together; bounds the walk's working arrays,
#: which for all bodies at once raised the process's peak memory
_WALK_BLOCK = 64


class QuadTree:
    """Region quadtree over ``[x0, x0+size] × [y0, y0+size]``."""

    # (key, tree) of the last replicated() build
    _last: Optional[Tuple[tuple, "QuadTree"]] = None

    def __init__(self, x0: float = 0.0, y0: float = 0.0, size: float = 1.0):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.x0 = x0
        self.y0 = y0
        self.size = size
        # parallel node arrays
        self.cx: List[float] = []
        self.cy: List[float] = []
        self.half: List[float] = []
        self.children: List[Optional[List[int]]] = []  # None for leaves
        self.bodies: List[List[int]] = []              # leaf body lists
        self.depth: List[int] = []
        self.mass: List[float] = []
        self.comx: List[float] = []
        self.comy: List[float] = []
        self.pos: Optional[np.ndarray] = None
        self.m: Optional[np.ndarray] = None
        self._forces: Optional[Tuple[tuple, "Forces"]] = None
        self._new_node(x0 + size / 2, y0 + size / 2, size / 2, 0)

    def _new_node(self, cx: float, cy: float, half: float, depth: int) -> int:
        self.cx.append(cx)
        self.cy.append(cy)
        self.half.append(half)
        self.children.append(None)
        self.bodies.append([])
        self.depth.append(depth)
        self.mass.append(0.0)
        self.comx.append(0.0)
        self.comy.append(0.0)
        return len(self.cx) - 1

    @property
    def num_nodes(self) -> int:
        return len(self.cx)

    # -- construction ----------------------------------------------------------

    def insert(self, i: int, x: float, y: float) -> int:
        """Insert body ``i``; returns nodes created (for cost accounting)."""
        created = 0
        node = 0
        while True:
            if self.children[node] is None:
                holder = self.bodies[node]
                if not holder or self.depth[node] >= _MAX_DEPTH:
                    holder.append(i)
                    return created
                # split: push existing bodies and the new one down
                created += self._split(node)
                continue
            node = self.children[node][self._quadrant(node, x, y)]

    def _quadrant(self, node: int, x: float, y: float) -> int:
        return (1 if x >= self.cx[node] else 0) | (2 if y >= self.cy[node] else 0)

    def _split(self, node: int) -> int:
        h = self.half[node] / 2
        kids = []
        for q in range(4):
            qx = self.cx[node] + (h if q & 1 else -h)
            qy = self.cy[node] + (h if q & 2 else -h)
            kids.append(self._new_node(qx, qy, h, self.depth[node] + 1))
        moved = self.bodies[node]
        self.bodies[node] = []
        self.children[node] = kids
        for b in moved:
            x, y = self._body_xy(b)
            self.bodies[kids[self._quadrant(node, x, y)]].append(b)
        return 4

    def _body_xy(self, b: int) -> Tuple[float, float]:
        assert self.pos is not None
        return float(self.pos[b, 0]), float(self.pos[b, 1])

    def build(self, pos: np.ndarray, mass: np.ndarray) -> int:
        """Insert all bodies (index order) and finalize; returns node count."""
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2 or len(pos) != len(mass):
            raise ValueError("pos must be (n,2) and mass (n,)")
        self.pos = pos
        self.m = mass
        for i in range(len(pos)):
            x, y = float(pos[i, 0]), float(pos[i, 1])
            if not (self.x0 <= x <= self.x0 + self.size and self.y0 <= y <= self.y0 + self.size):
                raise ValueError(f"body {i} at ({x}, {y}) outside the tree bounds")
            self.insert(i, x, y)
        self.finalize()
        return self.num_nodes

    @staticmethod
    def replicated(pos: np.ndarray, mass: np.ndarray) -> Tuple["QuadTree", int]:
        """The unit-square tree of ``pos``/``mass`` and its node count, shared.

        The tree is a pure function of the arrays' bytes, so the most recent
        one is kept, keyed on the exact float64 bytes and shapes, and handed
        back to every caller with equal arrays.  It owns copies of them:
        in-place writes to the caller's arrays never reach it.  Treat the
        returned tree as read-only.
        """
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        key = (pos.shape, pos.tobytes(), mass.shape, mass.tobytes())
        last = QuadTree._last
        if last is None or last[0] != key:
            tree = QuadTree()
            tree.build(pos.copy(), mass.copy())
            last = QuadTree._last = (key, tree)
        return last[1], last[1].num_nodes

    def finalize(self) -> None:
        """Bottom-up mass / centre-of-mass in canonical (index) order."""
        self._forces = None
        for node in range(self.num_nodes - 1, -1, -1):
            m = sx = sy = 0.0
            for b in sorted(self.bodies[node]):
                m += float(self.m[b])
                sx += float(self.m[b]) * float(self.pos[b, 0])
                sy += float(self.m[b]) * float(self.pos[b, 1])
            if self.children[node] is not None:
                for c in self.children[node]:
                    m += self.mass[c]
                    sx += self.mass[c] * self.comx[c]
                    sy += self.mass[c] * self.comy[c]
            self.mass[node] = m
            if m > 0:
                self.comx[node] = sx / m
                self.comy[node] = sy / m

    # -- force evaluation -----------------------------------------------------------

    def forces(self, theta: float = 0.7, eps: float = 1e-3) -> "Forces":
        """Every body's acceleration, interaction count and visited nodes.

        Computed for all bodies at once on the first call for a
        ``(theta, eps)`` pair and kept on the tree (until the next
        :meth:`finalize`), so the ranks sharing a replicated tree each read
        their slice of one walk.
        """
        key = (theta, eps)
        cached = self._forces
        if cached is None or cached[0] != key:
            cached = self._forces = (key, _Walk(self, theta, eps).forces())
        return cached[1]

    def accel(
        self,
        i: int,
        theta: float = 0.7,
        eps: float = 1e-3,
        visited: Optional[Set[int]] = None,
    ) -> Tuple[float, float, int]:
        """Acceleration on body ``i``; returns (ax, ay, interactions).

        Adds the node ids the walk for ``i`` visits to ``visited``.
        """
        f = self.forces(theta, eps)
        if visited is not None:
            visited.update(f.visits_of(i, i + 1).tolist())
        return float(f.acc[i, 0]), float(f.acc[i, 1]), int(f.counts[i])


class Forces(NamedTuple):
    """One tree's Barnes–Hut walk for all bodies.

    ``acc`` is (n, 2) and ``counts`` the interactions per body (float64,
    as the cost-zones split consumes them).  A walk visits the root and
    the children of every node it opens; ``opened[start[i]:start[i+1]]``
    are the nodes body ``i``'s walk opens, and ``kids`` the tree's child
    table.
    """

    acc: np.ndarray
    counts: np.ndarray
    opened: np.ndarray
    start: np.ndarray
    kids: np.ndarray

    def visits_of(self, lo: int, hi: int) -> np.ndarray:
        """The distinct node ids visited by the walks of bodies ``[lo, hi)``, sorted."""
        seen = np.zeros(len(self.kids), dtype=bool)
        seen[0] = lo < hi
        seen[self.kids[self.opened[self.start[lo] : self.start[hi]]]] = True
        return np.flatnonzero(seen)


class _Walk:
    """The canonical Barnes–Hut walk of every body of one tree.

    Each body's walk is a preorder traversal (children in quadrant order)
    that sums its interactions left to right from ``0.0``: the bodies of a
    leaf in sorted id order, an accepted internal node as one monopole.
    Here the walks of a block of bodies advance one tree level per pass,
    which only decides where each goes (:meth:`_descend`); the
    interactions are then evaluated (:meth:`_interactions`) and summed in
    walk order (:meth:`_ordered_sums`).  The arithmetic repeats the
    per-body expressions operand for operand, so the results are the same
    bits.  Blocks, and one method per phase, keep the working arrays
    small: each phase's temporaries are freed before the next allocates.
    """

    def __init__(self, tree: QuadTree, theta: float, eps: float):
        assert tree.pos is not None and tree.m is not None
        self.n = len(tree.pos)
        self.x = tree.pos[:, 0]
        self.y = tree.pos[:, 1]
        self.m = tree.m
        self.tt = theta * theta
        self.e2 = eps * eps
        nn = tree.num_nodes
        self.mass = np.array(tree.mass)
        self.comx = np.array(tree.comx)
        self.comy = np.array(tree.comy)
        # opening threshold per node, as the Python expression rounds it
        self.opening = np.array([(2 * h) ** 2 for h in tree.half])
        self.kids = np.zeros((nn, 4), dtype=np.int32)
        self.preorder = np.empty(nn, dtype=np.int64)
        stack = [0]
        k = 0
        while stack:
            node = stack.pop()
            self.preorder[node] = k
            k += 1
            children = tree.children[node]
            if children is not None:
                self.kids[node] = children
                stack.extend(reversed(children))
        # 0: massless (the walk stops), 1: leaf, 2: internal; the root is
        # nobody's child, so a zero row of ``kids`` marks a leaf
        self.kind = np.where(self.mass == 0.0, 0, np.where(self.kids[:, 0] == 0, 1, 2))
        held = [sorted(b) for b in tree.bodies]
        self.held_len = np.array([len(b) for b in held], dtype=np.int32)
        self.held_start = np.cumsum(self.held_len) - self.held_len
        self.held_flat = np.array([b for bs in held for b in bs], dtype=np.int32)

    def forces(self) -> Forces:
        """Walk every body, a block of bodies at a time."""
        blocks = []
        for lo in range(0, self.n, _WALK_BLOCK):
            hi = min(self.n, lo + _WALK_BLOCK)
            n_open, opened, far, leaf = self._descend(lo, hi)
            body, node, tx, ty = self._interactions(far, leaf)
            body -= lo
            key = body.astype(np.int64) * len(self.kids) + self.preorder[node]
            blocks.append((*self._ordered_sums(hi - lo, body, key, tx, ty), n_open, opened))
        acc, counts, n_open, opened = (np.concatenate(part) for part in zip(*blocks))
        start = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(n_open, out=start[1:])
        return Forces(acc, counts, opened, start, self.kids)

    def _descend(self, lo: int, hi: int):
        """Run the walks of bodies ``[lo, hi)`` down the tree, one level per pass.

        Returns how many nodes each body opens, the opened nodes grouped by
        body, and the (body, node) pairs that interact: accepted internal
        nodes and reached leaves.  Every pass lists its pairs by body, then
        by preorder.
        """
        open_b, open_n, leaf_b, leaf_n, far_b, far_n = [], [], [], [], [], []
        body = np.arange(lo, hi, dtype=np.int32)
        node = np.zeros(hi - lo, dtype=np.int32)
        while body.size:
            what = self.kind[node]
            at_leaf = what == 1
            leaf_b.append(body[at_leaf])
            leaf_n.append(node[at_leaf])
            inner = what == 2
            body, node = body[inner], node[inner]
            dx = self.comx[node] - self.x[body]
            dy = self.comy[node] - self.y[body]
            far = self.opening[node] < self.tt * (dx * dx + dy * dy)
            far_b.append(body[far])
            far_n.append(node[far])
            near = ~far
            body, node = body[near], node[near]
            open_b.append(body)
            open_n.append(node)
            body = np.repeat(body, 4)
            node = self.kids[node].ravel()
        ob = np.concatenate(open_b) - lo
        opened = np.concatenate(open_n)[np.argsort(ob, kind="stable")]
        far = np.concatenate(far_b), np.concatenate(far_n)
        leaf = np.concatenate(leaf_b), np.concatenate(leaf_n)
        return np.bincount(ob, minlength=hi - lo), opened, far, leaf

    def _interactions(self, far, leaf):
        """Each interaction's (body, node, ax term, ay term).

        The monopoles of the accepted internal nodes come first, then one
        term per body held by a reached leaf (the walker excepted) in
        sorted id order within the leaf.
        """
        x, y = self.x, self.y
        fb, fn = far
        dx = self.comx[fn] - x[fb]
        dy = self.comy[fn] - y[fb]
        r2 = dx * dx + dy * dy + self.e2
        w = self.mass[fn] / (r2 * np.sqrt(r2))
        lb, ln = leaf
        cnt = self.held_len[ln]
        run = np.cumsum(cnt) - cnt  # where each (body, leaf) pair's terms start
        src = self.held_flat[
            np.arange(int(cnt.sum())) + np.repeat(self.held_start[ln] - run, cnt)
        ]
        lb = np.repeat(lb, cnt)
        ln = np.repeat(ln, cnt)
        other = src != lb
        lb, ln, src = lb[other], ln[other], src[other]
        bx = x[src] - x[lb]
        by = y[src] - y[lb]
        r2 = bx * bx + by * by + self.e2
        v = self.m[src] / (r2 * np.sqrt(r2))
        return (
            np.concatenate([fb, lb]),
            np.concatenate([fn, ln]),
            np.concatenate([w * dx, v * bx]),
            np.concatenate([w * dy, v * by]),
        )

    @staticmethod
    def _ordered_sums(n, body, key, tx, ty):
        """Per-body sums of the terms ``tx``/``ty`` in walk order, and term counts.

        ``key`` sorts the terms by body, then by their node's preorder
        index; terms with equal keys (one leaf's bodies) keep their given
        order.  Each body's terms go into a zero-led row summed by
        ``np.cumsum``, which adds strictly left to right as the per-body
        walk does (``np.sum`` would sum pairwise and round differently).
        """
        order = np.argsort(key, kind="stable")
        body = body[order]
        counts = np.bincount(body, minlength=n)
        col = np.arange(1, len(body) + 1)
        col -= np.repeat(np.cumsum(counts) - counts, counts)
        acc = np.empty((n, 2))
        rows = np.empty((n, int(counts.max(initial=0)) + 1))
        for axis, terms in enumerate((tx, ty)):
            rows.fill(0.0)
            rows[body, col] = terms[order]
            # trailing zero padding is exact: a sum led by +0.0 is never -0.0
            np.cumsum(rows, axis=1, out=rows)
            acc[:, axis] = rows[:, -1]
        return acc, counts.astype(np.float64)
