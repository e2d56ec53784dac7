"""Canonical forms and structural operations for finite rooted graphs.

An unlabeled rooted graph is an isomorphism class of (graph, root) pairs.
This module encodes those classes into interned, hashable handles
(:class:`CanonicalClass`) so that all higher-level machinery (laws on
neighborhoods, branching recursions, exact counting) can use plain dict
lookups and identity comparison in its hot loops.

Two encodings are used, and one fold of a ball's pendant trees gives both:
trees are its one-vertex-core case, where the peel leaves the root alone.

* rooted trees: the classic parenthesis string, where a node's encoding
  is ``"(" + <children encodings, sorted> + ")"``.  Linear time, unique,
  and printable (``"()"`` is the isolated root).  A tree class is thus
  the multiset of its root subtrees: :attr:`CanonicalClass.children`
  reads them off the top-level groups of the string, and :func:`_join`
  builds a class from them.  Every operation on tree classes (subtrees,
  dropping or adding a root child, truncation, edge types) is tuple
  algebra on those two, in O(size of the tree) with no traversal.
* general rooted graphs (neighborhoods containing cycles): the vertex
  count and the adjacency bits under a canonical order.  The pendant
  trees are folded into the colour of the core vertex each hangs from;
  :func:`canonical_labeling`, an individualization-refinement search with
  the distance to the root and the folded trees as vertex colour, orders
  the core, and the trees follow in preorder.  The cost is set by the
  symmetry of the core, not by a factorial of its size.

Labeled graphs come in through :func:`canonical_from_adjacency`, which
reads a ball, or one side of an edge, by one bounded BFS, :func:`_ball`.
Given a `cut` neighbour of the root it treats that edge as absent, so one
side of an edge costs O(size of the ball), whatever the size of the
component.  The classes of every vertex of a graph, or of both sides of
every edge, come from one table of tree-class messages on directed edges
instead (:func:`tree_classes`, :func:`ball_classes`, :func:`_messages`):
each message joins the messages one step further out, and only balls that
hold a cycle are canonicalized one by one.  These take the graph as one
vertex-indexed list, adj[v] iterating the neighbours of v for v in 0..n-1,
as :meth:`SimpleGraph.adjacency` returns it.

Every class records the depth at which it was truncated.  Operations that
read structure beyond that depth are rejected instead of silently using
the truncated object.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate


class EdgeAbsentError(ValueError):
    """Raised when an operation names an edge that is not in the graph."""


class KindMismatchError(TypeError):
    """Raised when a tree-only operation receives a general-graph class."""


TREE = "tree"
GENERAL = "general"


def _check_int(name, value, least=None):
    """The package's one check of an integer parameter: an int, not a bool, and >= least."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


class LabeledRootedGraph:
    """A finite rooted graph with integer vertex labels (simple, undirected).

    Mutable working representation; the immutable currency of the library
    is :class:`CanonicalClass`.
    """

    __slots__ = ("adj", "root")

    def __init__(self, edges=(), root=0, vertices=()):
        self.adj: dict[int, set[int]] = {}
        self.root = root
        self._ensure(root)
        for v in vertices:
            self._ensure(v)
        for u, v in edges:
            self.add_edge(u, v)

    def _ensure(self, v):
        if v not in self.adj:
            self.adj[v] = set()

    def add_edge(self, u, v):
        if u == v:
            raise ValueError("loops are not allowed in simple rooted graphs")
        self._ensure(u)
        self._ensure(v)
        self.adj[u].add(v)
        self.adj[v].add(u)

    def has_edge(self, u, v):
        return u in self.adj and v in self.adj[u]

    def edges(self):
        return [(u, v) for u in self.adj for v in self.adj[u] if u < v]


@dataclass(frozen=True)
class SimpleGraph:
    """A labeled simple graph on vertex set {0, ..., n-1}."""

    n: int
    edges: frozenset  # of (u, v) tuples with u < v

    @staticmethod
    def from_edges(n, edges):
        _check_int("n", n, 0)
        out = set()
        for u, v in edges:
            _check_int("vertex", u)
            _check_int("vertex", v)
            if u == v:
                raise ValueError("loops not allowed in a simple graph")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range: {(u, v)}")
            out.add((u, v) if u < v else (v, u))
        return SimpleGraph(n, frozenset(out))

    @property
    def m(self):
        return len(self.edges)

    def adjacency(self):
        """adj[v] lists the neighbours of v, each once, for v in 0..n-1.

        This vertex-indexed list is the adjacency that the class and girth
        code (:func:`tree_classes`, :func:`ball_classes`, :func:`_messages`,
        :func:`_has_short_cycle`) takes; the girth BFS indexes its stamp
        lists by these vertices 0..n-1.  O(n + m).
        """
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


# ---------------------------------------------------------------------------
# Canonical classes and the intern table
# ---------------------------------------------------------------------------


class CanonicalClass:
    """Interned handle of an unlabeled rooted graph truncated at `depth`.

    Instances are unique per (kind, depth, encoding), so equality is
    identity and hashing is O(1).  `rep` is a canonical labeled
    representative: a tuple of neighbor-tuples indexed by vertex id, with
    the root at 0.

    A class is immutable, so what is derived from it alone is kept on it
    on first use: its root subtrees (:attr:`children`), and per depth h its
    truncation (:func:`truncate`) and root edge-type table
    (:func:`edge_type_table`).  After the first call per (class, h) these
    cost O(1), whichever law or caller asks.  The kept results are not
    part of equality, hashing or pickles.
    """

    __slots__ = ("kind", "depth", "encoding", "rep", "_children", "_truncations", "_edge_types")

    def __init__(self, kind, depth, encoding, rep):
        self.kind = kind
        self.depth = depth
        self.encoding = encoding
        self.rep = rep
        self._children = None
        self._truncations = {}  # h -> truncate(self, h), for h < depth
        self._edge_types = {}  # h -> edge_type_table(self, h)

    @property
    def n_vertices(self):
        return len(self.rep)

    @property
    def children(self):
        """A tree class's root subtrees, declared at depth - 1, in rep[0] order.

        They are the top-level groups of the parenthesis encoding, parsed
        on first use.
        """
        if self.kind != TREE:
            raise KindMismatchError("root subtrees need a tree class")
        got = self._children
        if got is None:
            enc = self.encoding
            kids = []
            level = 0
            begin = 1
            for i in range(1, len(enc) - 1):
                level += 1 if enc[i] == "(" else -1
                if level == 0:
                    kids.append(_tree_class(self.depth - 1, enc[begin : i + 1]))
                    begin = i + 1
            got = self._children = tuple(kids)
        return got

    def wire(self):
        """Serialized form: parenthesis string for trees, "G<d>:<hex>" else."""
        if self.kind == TREE:
            return self.encoding
        return f"G{self.depth}:{self.encoding.hex()}"

    def __repr__(self):
        return f"<class {self.wire()} depth={self.depth}>"

    def __reduce__(self):
        return (_rebuild_class, (self.kind, self.depth, self.wire()))


_INTERN: dict[tuple, CanonicalClass] = {}
_INTERN_LOCK = threading.Lock()


def _intern(kind, depth, encoding, rep):
    key = (kind, depth, encoding)
    got = _INTERN.get(key)
    if got is not None:
        return got
    with _INTERN_LOCK:
        got = _INTERN.get(key)
        if got is None:
            got = CanonicalClass(kind, depth, encoding, rep)
            _INTERN[key] = got
        return got


def _rebuild_class(kind, depth, wire):
    return parse_class(wire, depth)


# ---------------------------------------------------------------------------
# Ball extraction and encodings
# ---------------------------------------------------------------------------


def _ball(adj, root, h, cut=None):
    """BFS distances for the vertices within distance h of the root.

    With `cut` given, the edge {root, cut} is treated as absent.  Skipping
    it from the root suffices: the root is in `dist` before cut is expanded.
    """
    dist = {root: 0}
    frontier = [root]
    d = 0
    while frontier and d < h:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist and (u != root or w != cut):
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def _parse_paren(s):
    """Parse a parenthesis encoding into rep, root at id 0, with a stack of open vertices.

    Ids go in preorder, so each vertex lists its parent, then its children.
    """
    adj = []
    stack = []
    for ch in s:
        if adj and not stack:
            raise ValueError(f"trailing characters in tree encoding: {s!r}")
        if ch == "(":
            v = len(adj)
            adj.append([])
            if stack:
                adj[stack[-1]].append(v)
                adj[v].append(stack[-1])
            stack.append(v)
        elif ch == ")" and stack:
            stack.pop()
        else:
            raise ValueError(f"bad tree encoding: {s!r}")
    if stack or not adj:
        raise ValueError(f"bad tree encoding: {s!r}")
    return tuple(map(tuple, adj))


def canonical_labeling(n, colors, arcs):
    """Canonical labeling of a vertex-colored graph with labeled arcs.

    The vertices are 0..n-1 and colors[v] is the color of v.  `arcs` maps
    each arc (u, v), u != v, to its label; an undirected edge is given as
    both of its arcs, and a loop is folded into its vertex's color.  All
    colors must be mutually sortable, and so must all labels.

    Individualization-refinement search (McKay & Piperno, "Practical graph
    isomorphism II", J. Symb. Comput. 60, 2014).  A partition is refined
    by each vertex's multiset of (arc label, neighbour cell) until it is
    equitable.  A search node individualizes each vertex of its first
    non-singleton cell in turn, skipping a vertex that lies in one orbit
    with an explored one under the automorphisms found so far that fix the
    node's prefix.  A leaf whose certificate equals the first or the best
    leaf's gives an automorphism and a back-jump to where the two paths
    part.

    Returns (certificate, order, automorphisms).  order[i] is the vertex
    placed at position i by the leaf with the least certificate, and
    `certificate` is (vertex colors, sorted (i, j, label) arcs) under that
    order: two inputs get equal certificates exactly when some bijection
    maps one onto the other preserving colors and labels.  `automorphisms`
    is the number of such self-maps, the product of the orbit sizes along
    the first path.

    Cost: a refinement is at most n rounds of O((n + len(arcs)) log n).
    A graph with little symmetry is settled by refinement and a few
    leaves; the number of leaves grows with the symmetry, about cubically
    in the size of a class of twin vertices.  No twins are reduced here:
    :func:`canonical_from_adjacency` folds pendant trees, twin leaves
    among them, into the colours before it calls this, and twins that
    are not pendant (the k middle vertices of K_{2,k}) still cost about
    cubically.
    """
    # (label, cell) pairs sort as the integers label rank * n + cell.
    label_rank = {lab: i * n for i, lab in enumerate(sorted(set(arcs.values())))}
    nbrs = [[] for _ in range(n)]
    for (u, v), label in arcs.items():
        nbrs[u].append((v, label_rank[label]))

    def refine(cell):
        while True:
            # A vertex alone in its cell cannot split it, so it needs no signature.
            sizes = Counter(cell)
            sig = [
                (c, tuple(sorted([lab + cell[w] for w, lab in nbrs[v]])))
                if sizes[c] > 1
                else (c, ())
                for v, c in enumerate(cell)
            ]
            rank = {s: i for i, s in enumerate(sorted(set(sig)))}
            cell = [rank[s] for s in sig]
            if len(rank) == len(sizes):
                return cell

    gens = []  # automorphisms found, as vertex maps
    leaves = []  # [first leaf, best leaf], each (certificate, order, path)

    def orbit(points, prefix):
        """The orbit of points under the found automorphisms fixing prefix."""
        fixing = [g for g in gens if all(g[x] == x for x in prefix)]
        seen = set(points)
        stack = list(points)
        while stack:
            x = stack.pop()
            for g in fixing:
                if g[x] not in seen:
                    seen.add(g[x])
                    stack.append(g[x])
        return seen

    def leaf(cell, path):
        order = [0] * n
        for v, i in enumerate(cell):
            order[i] = v
        cert = (
            tuple(colors[v] for v in order),
            tuple(sorted((cell[u], cell[v], lab) for (u, v), lab in arcs.items())),
        )
        if not leaves:
            leaves[:] = [(cert, order, path)] * 2
            return None
        for ref_cert, ref_order, ref_path in leaves:
            if cert == ref_cert:
                g = [0] * n
                for v, w in zip(order, ref_order):
                    g[v] = w
                gens.append(g)
                d = 0
                while path[d] == ref_path[d]:
                    d += 1
                return d
        if cert < leaves[1][0]:
            leaves[1] = (cert, order, path)
        return None

    def search(cell, path):
        """Explore the subtree; a level < len(path) means jump back to it."""
        sizes = Counter(cell)
        target = min((c for c, k in sizes.items() if k > 1), default=None)
        if target is None:
            return leaf(cell, path)
        done = []
        for v in range(n):
            if cell[v] != target or done and v in orbit(done, path):
                continue
            done.append(v)
            child = [2 * c + 1 for c in cell]
            child[v] -= 1
            jump = search(refine(child), path + (v,))
            if jump is not None and jump < len(path):
                return jump
        return None

    rank = {c: i for i, c in enumerate(sorted(set(colors)))}
    search(refine([rank[c] for c in colors]), ())
    first = leaves[0][2]
    automorphisms = 1
    for j, v in enumerate(first):
        automorphisms *= len(orbit([v], first[:j]))
    return leaves[1][0], leaves[1][1], automorphisms


def _tree_class(h, enc):
    """The interned tree class; the representative is parsed only for a new one."""
    return _INTERN.get((TREE, h, enc)) or _intern(TREE, h, enc, _parse_paren(enc))


def _join(depth, kids):
    """The depth-`depth` tree class whose root subtrees are the tree classes kids.

    Each kid is truncated at depth - 1; the encodings are sorted, so the
    order of kids does not matter.
    """
    if depth == 0:
        return _tree_class(0, "()")
    subs = sorted(_cut(k, depth - 1).encoding for k in kids)
    return _tree_class(depth, "(" + "".join(subs) + ")")


def _decode_general(encoding):
    """The rep of a general encoding: n, then bit i * n + j of each edge, i < j.

    The layout is the one canonical_from_adjacency writes: n >= 1 in two
    little-endian bytes, then exactly max((n * n + 7) // 8, 1) bytes of
    bits, with no bit set at i >= j.  Any other encoding raises ValueError.
    Reads the set bits byte by byte; rows come in order, so lists are
    sorted.
    """
    n = int.from_bytes(encoding[:2], "little")
    if n < 1 or len(encoding) != 2 + max((n * n + 7) // 8, 1):
        raise ValueError("malformed general encoding")
    adj = [[] for _ in range(n)]
    for k, byte in enumerate(encoding[2:]):
        while byte:
            low = byte & -byte
            byte ^= low
            i, j = divmod(8 * k + low.bit_length() - 1, n)
            if i >= j:
                raise ValueError("malformed general encoding")
            adj[i].append(j)
            adj[j].append(i)
    return tuple(map(tuple, adj))


def canonical_from_adjacency(adj, root, h, cut=None):
    """Canonical class of the depth-h truncation of (adj, root).

    adj[v] iterates the neighbours of v: a vertex-indexed list or tuple,
    as SimpleGraph.adjacency and CanonicalClass.rep give, or a mapping
    from labels, as LabeledRootedGraph.adj.  With `cut` given, a
    neighbour of root, the edge {root, cut} is treated as absent: the
    result is the class of root's side of that edge, truncated at depth h.
    The traversal costs O(size of the ball).  Its pendant trees are peeled
    off with their sorted parenthesis strings; when the root alone is left,
    the ball is a tree and the root's string is its class.  Otherwise the
    strings are folded into the colour of the core vertex they hang from,
    and only the core goes through :func:`canonical_labeling`.  Raises
    ValueError, before any traversal, when root is not a vertex of adj (an
    int with 0 <= root < len(adj) for a list or tuple, a key for a
    mapping), and EdgeAbsentError when cut is not adjacent to root.
    """
    _check_int("depth", h, 0)
    if isinstance(adj, (list, tuple)):
        _check_int("root", root, 0)
        if root >= len(adj):
            raise ValueError(f"root must be < {len(adj)}, got {root!r}")
    elif root not in adj:
        raise ValueError(f"root {root!r} is not a vertex of adj")
    if cut is not None and cut not in adj[root]:
        raise EdgeAbsentError(f"{{{root}, {cut}}} is not an edge")
    dist = _ball(adj, root, h, cut)
    keep = dist.keys()
    sub = {v: {u for u in adj[v] if u in keep} for v in keep}
    if cut in sub:
        sub[root].discard(cut)
        sub[cut].discard(root)
    # Peel non-root leaves until the core is left: the root and the cycles,
    # with the paths between them.  A vertex is peeled after every vertex
    # that hangs from it, and hangs from the one neighbour still there.
    deg = {v: len(nb) for v, nb in sub.items()}
    peeled = [v for v, k in deg.items() if k == 1 and v != root]
    kids = {v: [] for v in sub}
    paren = {}
    for v in peeled:
        (u,) = [u for u in sub[v] if u not in paren]
        kids[v].sort(key=paren.__getitem__)
        paren[v] = "(" + "".join(paren[c] for c in kids[v]) + ")"
        kids[u].append(v)
        deg[u] -= 1
        if deg[u] == 1 and u != root:
            peeled.append(u)
    core = [v for v in sub if v not in paren]
    for v in core:
        kids[v].sort(key=paren.__getitem__)
    if len(core) == 1:
        # A tree: the root alone is left, and its string is the class.
        return _tree_class(h, "(" + "".join(paren[c] for c in kids[root]) + ")")
    index = {v: i for i, v in enumerate(core)}
    colors = [(dist[v], tuple(paren[c] for c in kids[v])) for v in core]
    n = len(sub)
    arcs = {(index[v], index[u]): 1 for v in core for u in sub[v] if u in index}
    _, order, _ = canonical_labeling(len(core), colors, arcs)
    # The root is the only vertex at distance 0, so it stays at position 0.
    # After the core, each core vertex's hanging trees follow in preorder,
    # children in the order of their strings: a tree's layout is its string.
    layout = [core[i] for i in order]
    for v in layout[: len(core)]:
        stack = kids[v][::-1]
        while stack:
            u = stack.pop()
            layout.append(u)
            stack += kids[u][::-1]
    pos = {v: i for i, v in enumerate(layout)}
    rep = tuple(tuple(sorted(pos[u] for u in sub[v])) for v in layout)
    bits = sum(1 << (i * n + j) for i, nb in enumerate(rep) for j in nb if i < j)
    enc = n.to_bytes(2, "little") + bits.to_bytes(max((n * n + 7) // 8, 1), "little")
    return _intern(GENERAL, h, enc, rep)


# ---------------------------------------------------------------------------
# Classes of every vertex and every edge side from one message table
# ---------------------------------------------------------------------------


def _arcs(adj):
    """The arc table (start, to, back) of the vertex-indexed simple graph adj.

    adj[v] iterates the neighbours of v, for v in 0..n-1, with no loop.
    The arcs out of v are the a with start[v] <= a < start[v + 1], arc a
    leads to to[a], and back[a] is its reverse arc.  One O(n + m) pass:
    start sums the degrees, and each edge {u, w}, u < w, takes the next
    free arc of u and of w from per-vertex fill counters, so both arcs
    know their reverse as they are written.
    """
    start = [0, *accumulate(map(len, adj))]
    fill = start[:-1]
    to = [0] * start[-1]
    back = [0] * start[-1]
    for u, nbrs in enumerate(adj):
        for w in nbrs:
            if u < w:
                a = fill[u]
                b = fill[w]
                fill[u] = a + 1
                fill[w] = b + 1
                to[a] = w
                to[b] = u
                back[a] = b
                back[b] = a
    return start, to, back


def _messages(adj, k):
    """Depth-k messages on every arc of the vertex-indexed adj, in flat lists.

    adj[v] iterates the neighbours of v, for v in 0..n-1 (a simple graph).
    Returns (start, to, back, ids, table), the first three the O(n + m)
    arc table of :func:`_arcs`: the arcs out of v are the a with start[v]
    <= a < start[v + 1], arc a leads to to[a], and back[a] is its reverse
    arc.  ids[a] is a small int, the index in table, the distinct depth-k
    messages in order of first join, of the tree class of the side of
    to[a] without that edge, unfolded into a tree to depth k.  msg_0 is
    the single vertex, and msg_k(u -> v) joins the msg_{k-1}(v -> w) over
    w != u as root subtrees: the tree-isomorphism recursion of Aho,
    Hopcroft & Ullman (1974) run as colour refinement.  Where the side is a tree to depth k the unfolding
    is the side itself.  A vertex's key is its sorted tuple of ids; each
    round joins once per distinct key, and within it once per distinct
    message dropped from it, and reads the classes only then.  Round 1
    needs no key: msg_1(u -> v) is the star with deg(v) - 1 leaves, joined
    once per distinct degree, in order of first vertex.  Cost O(n + m) for
    that round, and O(n + (k - 1) * m * d log d), d the largest degree,
    for the others, plus the size of each distinct class.
    """
    start, to, back = _arcs(adj)
    table = [_tree_class(0, "()")]
    ids = [0] * len(to)
    if k:
        # An isolated vertex is no arc's head, so only degrees >= 1 get an id.
        index = {}
        head = [index.setdefault(d, len(index)) if d else 0 for d in map(len, adj)]
        table = [_tree_class(1, "(" + "()" * (d - 1) + ")") for d in index]
        ids = [head[w] for w in to]
    for depth in range(2, k + 1):
        drops = {}
        index = {}  # class -> its id in this round's table
        new = [0] * len(to)
        for v in range(len(adj)):
            lo, hi = start[v], start[v + 1]
            key = tuple(sorted(ids[lo:hi]))
            drop = drops.get(key)
            if drop is None:
                drop = drops[key] = {}
                kids = [table[i] for i in key]
                for p, i in enumerate(key):
                    if i not in drop:
                        c = _join(depth, kids[:p] + kids[p + 1 :])
                        drop[i] = index.setdefault(c, len(index))
            for a in range(lo, hi):
                new[back[a]] = drop[ids[a]]
        table = list(index)
        ids = new
    return start, to, back, ids, table


def _short_cycle_at(adj, x, g, above=-1, seen=None, parent=None):
    """Whether a BFS from x over the vertices > above sees a cycle of length <= g.

    adj[v] iterates the neighbours of v, for v in 0..n-1, with no loop.
    While layer d (the vertices at distance d) is expanded, a seen
    neighbour other than the parent lies within distance d + 1 and closes
    a cycle of length <= 2d + 2 through paths from x; within distance d,
    once no vertices are added, <= 2d + 1.  So the layers with 2d + 2 <= g
    add vertices, and the next one only looks for seen neighbours.  Every
    cycle of length <= g through x on x and the vertices > above is found;
    with above = -1, the induced depth-h ball of x is a tree exactly when
    g = 2h + 1 finds none.  seen and parent are stamp lists of length n (w
    is seen from x when seen[w] == x), so one pair serves a pass of BFS
    from distinct roots; None makes a fresh pair.  Cost O(size of the ball
    of radius g // 2), plus O(n) for a fresh pair.
    """
    if seen is None:
        seen, parent = [-1] * len(adj), [-1] * len(adj)
    seen[x] = parent[x] = x
    frontier = [x]
    d = 0
    while frontier and 2 * d + 1 <= g:
        grow = 2 * d + 2 <= g
        nxt = []
        for u in frontier:
            p = parent[u]
            for w in adj[u]:
                if w > above and w != p:
                    if seen[w] == x:
                        return True
                    if grow:
                        seen[w] = x
                        parent[w] = u
                        nxt.append(w)
        frontier = nxt
        d += 1
    return False


def _two_core(adj):
    """The 2-core of the vertex-indexed adj, as a set: O(n + m).

    adj[v] iterates the neighbours of v, for v in 0..n-1, with no loop.
    Every cycle lies in the 2-core, the vertices left once those of degree
    <= 1 are peeled off one by one.
    """
    deg = [len(nb) for nb in adj]
    stack = [v for v, d in enumerate(deg) if d <= 1]
    peeled = set(stack)
    while stack:
        for w in adj[stack.pop()]:
            if w not in peeled:
                deg[w] -= 1
                if deg[w] <= 1:
                    peeled.add(w)
                    stack.append(w)
    return {v for v in range(len(adj)) if v not in peeled}


def _within(adj, near, h):
    """The set near, grown in place to every vertex within distance h of it."""
    frontier = near
    for _ in range(h):
        frontier = {w for v in frontier for w in adj[v] if w not in near}
        near |= frontier
    return near


def _least_cycle_vertices(adj, g):
    """Each 2-core vertex x whose BFS over the vertices >= x sees a cycle of length <= g.

    adj[v] iterates the neighbours of v, for v in 0..n-1, with no loop.
    Each x yielded has a cycle of length <= g on the vertices >= x, and
    each such cycle is found from its least vertex, by
    :func:`_short_cycle_at` with the floor x, on one stamp pair per
    graph.  Lazy, so a caller may stop at the first.  Cost O(n + m) for
    the 2-core, plus per core vertex a BFS of radius g // 2 over the
    vertices above it.
    """
    seen, parent = [-1] * len(adj), [-1] * len(adj)
    return (x for x in _two_core(adj) if _short_cycle_at(adj, x, g, x, seen, parent))


def _has_short_cycle(adj, g):
    """Whether the vertex-indexed simple graph adj has a cycle of length <= g.

    adj[v] iterates the neighbours of v, for v in 0..n-1.  True at the
    first vertex :func:`_least_cycle_vertices` yields: O(n + m) for the
    2-core plus a bounded BFS per core vertex over the vertices above it.
    """
    return next(_least_cycle_vertices(adj, g), None) is not None


def tree_classes(adj, h):
    """Depth-h tree class of every vertex of the vertex-indexed adj, as a list.

    adj[v] iterates the neighbours of v, for v in 0..n-1.  classes[v]
    joins the depth-(h-1) messages of :func:`_messages` into v
    (:func:`_join_at_vertices`); it is the class of the depth-h unfolding
    of v, and so `is` canonical_from_adjacency(adj, v, h) wherever B_h(v)
    is a tree, as on every vertex of a graph with no cycle of length <=
    2h + 1.  No cycle is looked for.  Cost: one message pass, O(n + h * m
    * d log d), d the largest degree, plus the size of each distinct class.
    """
    _check_int("depth", h, 0)
    start, _, _, ids, table = _messages(adj, h - 1)
    return _join_at_vertices(start, ids, table, h)


def _join_at_vertices(start, ids, table, h):
    """Depth-h class of every vertex, joined from the depth-(h-1) messages.

    (start, ids, table) are those of :func:`_messages`: the arcs out of v
    are the a with start[v] <= a < start[v + 1], and ids[a] indexes the
    side of arc a in table.  Joins once per distinct sorted tuple of ids
    into a vertex.
    """
    joined = {}
    out = []
    for v in range(len(start) - 1):
        key = tuple(sorted(ids[start[v] : start[v + 1]]))
        got = joined.get(key)
        if got is None:
            got = joined[key] = _join(h, [table[i] for i in key])
        out.append(got)
    return out


def ball_classes(adj, h):
    """Depth-h class of every vertex of the vertex-indexed adj, as a dict v -> class.

    adj[v] iterates the neighbours of v, for v in 0..n-1.  Each value `is`
    canonical_from_adjacency(adj, v, h).  The classes start from
    :func:`tree_classes`.  A cyclic ball B_h(v) holds a cycle of length
    <= 2h + 1, so v is within distance h of that cycle's least vertex,
    which :func:`_least_cycle_vertices` yields; only such vertices get the
    exact test of :func:`_short_cycle_at`, on a stamp pair of their own,
    and only the cyclic balls among them are replaced, by
    canonical_from_adjacency.  Cost: that of tree_classes, plus O(n + m)
    for the 2-core, a BFS over the larger vertices from each core vertex,
    and the BFS and canonical labeling of the few balls near a short cycle.
    """
    out = dict(enumerate(tree_classes(adj, h)))
    g = 2 * h + 1
    seen, parent = [-1] * len(adj), [-1] * len(adj)
    for v in _within(adj, set(_least_cycle_vertices(adj, g)), h):
        if _short_cycle_at(adj, v, g, -1, seen, parent):
            out[v] = canonical_from_adjacency(adj, v, h)
    return out


def canonicalize(g: LabeledRootedGraph, h: int) -> CanonicalClass:
    """Class of the rooted graph truncated at depth h.

    Invariant under any relabeling of g; only the root component matters.
    """
    return canonical_from_adjacency(g.adj, g.root, h)


def parse_class(wire: str, depth: int | None = None) -> CanonicalClass:
    """Inverse of :meth:`CanonicalClass.wire`.

    Tree encodings carry no depth of their own, so the caller supplies it
    (defaulting to the tree's own radius).  Either wire is canonicalized
    anew from its representative: a hand-written one need not be canonical.
    """
    if wire.startswith("("):
        rep = _parse_paren(wire)
        radius = _radius(rep)
        d = radius if depth is None else depth
        if d < radius:
            raise ValueError(f"declared depth {d} below radius {radius}")
    elif wire.startswith("G"):
        head, _, hexpart = wire.partition(":")
        d = int(head[1:])
        if depth is not None and depth != d:
            raise ValueError(f"depth mismatch: {depth} vs {wire!r}")
        try:
            rep = _decode_general(bytes.fromhex(hexpart))
        except ValueError as exc:
            raise ValueError(f"{exc}: {wire!r}") from None
        if len(_ball(rep, 0, d)) != len(rep):
            raise ValueError(f"encoding not connected within depth {d}: {wire!r}")
    else:
        raise ValueError(f"unrecognized class encoding: {wire!r}")
    return canonical_from_adjacency(rep, 0, d)


def _radius(rep):
    dist = _ball(rep, 0, len(rep))
    return max(dist.values(), default=0)


def declare_depth(g: CanonicalClass, h: int) -> CanonicalClass:
    """The same structure re-declared at truncation depth h >= depth(g)."""
    _check_int("depth", h, 0)
    if h < g.depth:
        return _cut(g, h)
    return _redeclare(g, h)


def _redeclare(g, h):
    """declare_depth for an int h >= depth(g), unchecked, as the law constructor calls it."""
    if h == g.depth:
        return g
    return _intern(g.kind, h, g.encoding, g.rep)


def truncate(g: CanonicalClass, h: int) -> CanonicalClass:
    """Class of the induced subgraph within distance h of the root.

    Identity when h >= depth(g).  Otherwise a tree class is joined from
    its truncated root subtrees, and a general class is canonicalized from
    its representative, on the first call per (g, h); the result is kept
    on g, so later calls cost O(1).
    """
    _check_int("depth", h, 0)
    return _cut(g, h)


def _cut(g, h):
    """truncate for an int h >= 0: subtrees are cut first, off a stack, so no join recurses."""
    if h >= g.depth:
        return g
    if h not in g._truncations:
        if g.kind != TREE:
            g._truncations[h] = canonical_from_adjacency(g.rep, 0, h)
        stack = [(g, h)]
        while stack:
            c, k = stack.pop()
            if k not in c._truncations:
                # a depth-0 join reads no child; a child, at depth c.depth - 1, is cut at k - 1
                kids = c.children if k else ()
                todo = [(s, k - 1) for s in kids if k - 1 not in s._truncations]
                if todo:
                    stack += [(c, k), *todo]
                else:
                    c._truncations[k] = _join(k, kids)
    return g._truncations[h]


def split_at_edge(g: LabeledRootedGraph, u: int, v: int) -> LabeledRootedGraph:
    """The component of v after removing edge {u, v}, rooted at v."""
    if not g.has_edge(u, v):
        raise EdgeAbsentError(f"{{{u}, {v}}} is not an edge")
    keep = _ball(g.adj, v, len(g.adj), cut=u)
    out = LabeledRootedGraph(root=v, vertices=keep)
    for x in keep:
        for w in g.adj[x]:
            if w in keep and x < w and (x, w) not in ((u, v), (v, u)):
                out.add_edge(x, w)
    return out


def join_at_root(tau: CanonicalClass, t_prime: CanonicalClass) -> CanonicalClass:
    """Attach a new root-neighbor carrying t_prime's tree to tau.

    tau must be a depth-h tree and t_prime a tree of depth <= h-1; the
    result is declared at depth h.
    """
    if tau.kind != TREE or t_prime.kind != TREE:
        raise KindMismatchError("join_at_root requires tree classes")
    h = tau.depth
    if t_prime.depth > h - 1:
        raise ValueError(f"child depth {t_prime.depth} exceeds {h - 1}")
    return _join(h, tau.children + (t_prime,))


def root_degree(g: CanonicalClass) -> int:
    return len(g.rep[0])


def drop_root_child(g: CanonicalClass, subtree: CanonicalClass) -> CanonicalClass:
    """Remove one root child whose subtree class equals `subtree`.

    Result declared at depth(g).  Raises if no such child exists.
    """
    kids = g.children
    for i, c in enumerate(kids):
        if c is subtree:
            return _join(g.depth, kids[:i] + kids[i + 1 :])
    raise ValueError("no root child carries the requested subtree")


def root_sides(g: CanonicalClass, h: int, above=()) -> list:
    """Both sides of each root edge of the tree class g, at depth h - 1.

    Returns [(t, t')] in g.rep[0] order: t is the root child's subtree and
    t' the root's side without that child, with the tree classes `above`
    hung on the root as further children (a look-back type, say).  Tuple
    algebra on the root subtrees, O(size of g), with no traversal.
    """
    kids = g.children
    return [
        (truncate(c, h - 1), _join(h - 1, kids[:i] + kids[i + 1 :] + above))
        for i, c in enumerate(kids)
    ]


def edge_type_table(g: CanonicalClass, h: int) -> dict:
    """All root edge-type counts of g at depth h.

    Maps (t, t') -> number of root neighbors v whose outward component
    (rooted at v) truncates to t and whose inward component (rooted at the
    root) truncates to t', both at depth h-1.  Summing the table gives the
    root degree.  On the first call per (g, h), a tree class is read by
    :func:`root_sides` in O(size of g), and a class with a cycle by two
    cut BFS per root edge; the table is kept on g, and each call returns
    a fresh copy of it, O(root degree).
    """
    _check_int("depth", h, 1)
    if g.depth < h:
        raise ValueError(
            f"class truncated at depth {g.depth} cannot answer depth-{h} edge types"
        )
    got = g._edge_types.get(h)
    if got is None:
        if g.kind == TREE:
            sides = root_sides(g, h)
        else:
            sides = [
                (
                    canonical_from_adjacency(g.rep, v, h - 1, cut=0),
                    canonical_from_adjacency(g.rep, 0, h - 1, cut=v),
                )
                for v in g.rep[0]
            ]
        got = g._edge_types[h] = dict(Counter(sides))
    return dict(got)


def edge_type_count(
    g: CanonicalClass, h: int, t: CanonicalClass, t_prime: CanonicalClass
) -> int:
    """Number of root neighbors of g realizing the ordered pattern (t, t')."""
    if t.depth > h - 1 or t_prime.depth > h - 1:
        raise ValueError("patterns must have depth <= h-1")
    key = (declare_depth(t, h - 1), declare_depth(t_prime, h - 1))
    return edge_type_table(g, h).get(key, 0)


def star(k: int, depth: int = 1) -> CanonicalClass:
    """The rooted star with k leaf children, declared at `depth`."""
    _check_int("k", k, 0)
    _check_int("depth", depth, 0)
    if depth < 1 and k > 0:
        raise ValueError("a star with children needs depth >= 1")
    return _tree_class(depth, "(" + "()" * k + ")")
