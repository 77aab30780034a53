"""Bipartite maximum matching (Hopcroft-Karp) and matching-uniqueness test."""
from __future__ import annotations

from collections import deque
from typing import Hashable, Optional

INF = float("inf")


def hopcroft_karp(adj: dict) -> dict:
    """Maximum matching of a bipartite graph given as left-vertex -> iterable
    of right vertices; returns {left: right} for the matched pairs."""
    match_l: dict = {}
    match_r: dict = {}
    dist: dict = {}

    def bfs() -> bool:
        q = deque()
        for u in adj:
            if u not in match_l:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r.get(v)
                if w is None:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(root: Hashable) -> bool:
        """Augment along the BFS layers from a free left vertex.  An explicit
        stack replaces the recursion, so path length is not bounded by the
        interpreter's recursion limit; path[i] is the right vertex taken
        from stack[i]."""
        stack = [(root, iter(adj[root]))]
        path: list = []
        while stack:
            u, it = stack[-1]
            for v in it:
                w = match_r.get(v)
                if w is None:
                    path.append(v)
                    for (x, _), y in zip(reversed(stack), reversed(path)):
                        match_l[x] = y
                        match_r[y] = x
                    return True
                if dist[w] == dist[u] + 1:
                    path.append(v)
                    stack.append((w, iter(adj[w])))
                    break
            else:
                dist[u] = INF
                stack.pop()
                if path:
                    path.pop()
        return False

    while bfs():
        for u in adj:
            if u not in match_l:
                dfs(u)
    return match_l


def find_alternating_cycle(adj: dict, matching: dict) -> Optional[list]:
    """An alternating cycle with respect to a perfect matching, or None.

    A perfect matching is unique iff no alternating cycle exists: following
    an unmatched edge from a left vertex and the matched edge back yields a
    directed graph on left vertices whose cycles are exactly the exchanges.
    """
    succ: dict = {u: set() for u in adj}
    match_r = {v: u for u, v in matching.items()}
    for u in adj:
        for v in adj[u]:
            if matching.get(u) != v and v in match_r:
                succ[u].add(match_r[v])
    return find_cycle(adj, succ)


def find_cycle(nodes, succ) -> Optional[list]:
    """A directed cycle, as its list of nodes in order, or None.

    `succ` maps each node to its successors.  Depth-first search starts
    from each of `nodes` in turn, on an explicit stack, and returns the
    cycle closed by the first back edge it meets.
    """
    color: dict = {}    # 1 on the current path, 2 when finished
    for start in nodes:
        if start in color:
            continue
        stack = [(start, iter(succ[start]))]
        color[start] = 1
        path = [start]
        while stack:
            node, it = stack[-1]
            for w in it:
                if color.get(w) == 1:
                    return path[path.index(w):]
                if w not in color:
                    color[w] = 1
                    path.append(w)
                    stack.append((w, iter(succ[w])))
                    break
            else:
                color[node] = 2
                path.pop()
                stack.pop()
    return None
